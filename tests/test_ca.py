import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpca import ca
from rpca.ca import Boundary

from helpers import naive_step

# Rule/output rows for the six reversible elementary rules, columns ordered
# 111 110 101 100 011 010 001 000 (highest pattern first).
REVERSIBLE_RULE_ROWS = {
    15: [0, 0, 0, 0, 1, 1, 1, 1],
    240: [1, 1, 1, 1, 0, 0, 0, 0],
    51: [0, 0, 1, 1, 0, 0, 1, 1],
    204: [1, 1, 0, 0, 1, 1, 0, 0],
    85: [0, 1, 0, 1, 0, 1, 0, 1],
    170: [1, 0, 1, 0, 1, 0, 1, 0],
}

REVERSIBLE_SET = {15, 51, 85, 170, 204, 240}


def vector(*numbers, radius=1):
    return [ca.make_rule(radius, n) for n in numbers]


class TestMakeRule:
    @pytest.mark.parametrize("number,row", sorted(REVERSIBLE_RULE_ROWS.items()))
    def test_reversible_rule_rows(self, number, row):
        rule = ca.make_rule(1, number)
        # row lists outputs from pattern 111 down to 000
        assert list(rule.table[::-1]) == row

    def test_zero_rule(self):
        assert not ca.make_rule(1, 0).table.any()

    def test_entry_is_rule_number_bit(self):
        rule = ca.make_rule(1, 0b10110001)
        assert [int(b) for b in rule.table] == [1, 0, 0, 0, 1, 1, 0, 1]

    def test_rejects_out_of_range_number(self):
        with pytest.raises(ValueError, match="256"):
            ca.make_rule(1, 256)
        with pytest.raises(ValueError):
            ca.make_rule(2, 1 << 32)
        with pytest.raises(ValueError):
            ca.make_rule(1, -1)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            ca.make_rule(0, 0)
        with pytest.raises(ValueError):
            ca.make_rule(4, 0)

    def test_table_is_read_only(self):
        rule = ca.make_rule(1, 30)
        with pytest.raises(ValueError):
            rule.table[0] = 1


class TestRuleFromTable:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_inverts_make_rule(self, data):
        radius = data.draw(st.integers(1, 3))
        number = data.draw(st.integers(0, (1 << (1 << (2 * radius + 1))) - 1))
        rule = ca.make_rule(radius, number)
        got = ca.rule_from_table(radius, rule.table)
        assert got == rule
        assert np.array_equal(got.table, rule.table)

    def test_rejects_non_binary_entry(self):
        with pytest.raises(ValueError, match="0 or 1"):
            ca.rule_from_table(1, [2, 0, 0, 0, 0, 0, 0, 0])


class TestApplyRule:
    def test_examples(self):
        assert ca.apply_rule(ca.make_rule(1, 51), "101") == 1
        assert ca.apply_rule(ca.make_rule(1, 204), "010") == 1
        assert ca.apply_rule(ca.make_rule(1, 240), "011") == 0

    def test_accepts_sequences(self):
        assert ca.apply_rule(ca.make_rule(1, 51), [1, 0, 1]) == 1

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            ca.apply_rule(ca.make_rule(1, 51), "10")
        with pytest.raises(ValueError):
            ca.apply_rule(ca.make_rule(2, 7), "101")

    @given(st.integers(0, 255), st.integers(0, 7))
    def test_matches_rule_number_bits(self, number, pattern):
        rule = ca.make_rule(1, number)
        bits = [(pattern >> k) & 1 for k in (2, 1, 0)]
        assert ca.apply_rule(rule, bits) == (number >> pattern) & 1


class TestComplementRule:
    @pytest.mark.parametrize("a,b", [(236, 19), (15, 240), (51, 204), (85, 170)])
    def test_known_complement_pairs(self, a, b):
        assert ca.complement_rule(ca.make_rule(1, a)).number == b
        assert ca.complement_rule(ca.make_rule(1, b)).number == a

    def test_involution_all_elementary(self):
        for n in range(256):
            rule = ca.make_rule(1, n)
            assert ca.complement_rule(ca.complement_rule(rule)) == rule

    def test_flips_every_entry(self):
        rule = ca.make_rule(3, 0x0123456789ABCDEF0123456789ABCDEF)
        comp = ca.complement_rule(rule)
        assert np.array_equal(comp.table, 1 - rule.table)


class TestStep:
    def test_identity_rule(self):
        cfg = ca.parse_bits("10110")
        out = ca.step(cfg, ca.make_rule(1, 204), Boundary.CYCLIC)
        assert np.array_equal(out, cfg)
        out = ca.step(cfg, ca.make_rule(1, 204), Boundary.NULL)
        assert np.array_equal(out, cfg)

    def test_rule240_is_right_rotation(self):
        out = ca.step(ca.parse_bits("1000"), ca.make_rule(1, 240), Boundary.CYCLIC)
        assert ca.format_bits(out) == "0100"

    def test_hybrid_vector_null(self):
        out = ca.step(ca.parse_bits("0000"), vector(51, 51, 195, 153), Boundary.NULL)
        assert ca.format_bits(out) == "1111"

    def test_input_not_mutated(self):
        cfg = ca.parse_bits("1010")
        snapshot = cfg.copy()
        ca.step(cfg, ca.make_rule(1, 30), Boundary.CYCLIC)
        assert np.array_equal(cfg, snapshot)

    def test_vector_length_mismatch(self):
        with pytest.raises(ValueError):
            ca.step(ca.parse_bits("101"), vector(51, 51, 195, 153), Boundary.NULL)

    def test_mixed_radius_vector_rejected(self):
        with pytest.raises(ValueError):
            ca.step(
                ca.parse_bits("10"),
                [ca.make_rule(1, 51), ca.make_rule(2, 51)],
                Boundary.NULL,
            )

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 24),
        st.sampled_from([Boundary.NULL, Boundary.CYCLIC]),
        st.randoms(use_true_random=False),
    )
    def test_matches_naive_oracle(self, radius, n, boundary, rnd):
        limit = 1 << (1 << (2 * radius + 1))
        numbers = [rnd.randrange(limit) for _ in range(n)]
        cells = [rnd.randrange(2) for _ in range(n)]
        expected = naive_step(cells, numbers, radius, boundary.value)
        got = ca.step(np.array(cells, dtype=np.uint8),
                      [ca.make_rule(radius, m) for m in numbers], boundary)
        assert list(got) == expected


class TestIterate:
    def test_zero_steps_returns_input(self):
        cfg = ca.parse_bits("0110")
        assert np.array_equal(ca.iterate(cfg, ca.make_rule(1, 30), Boundary.NULL, 0), cfg)

    def test_two_steps_on_legacy_vector(self):
        out = ca.iterate(ca.parse_bits("0000"), vector(51, 51, 195, 153), Boundary.NULL, 2)
        assert ca.format_bits(out) == "0010"

    def test_cycle_of_length_four(self):
        out = ca.iterate(ca.parse_bits("0000"), vector(51, 51, 195, 153), Boundary.NULL, 4)
        assert ca.format_bits(out) == "0000"

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            ca.iterate(ca.parse_bits("0"), ca.make_rule(1, 0), Boundary.NULL, -1)


class TestClosedForms:
    # output of each reversible rule as a function of (left, center, right)
    FORMS = {
        15: lambda l, c, r: 1 - l,
        240: lambda l, c, r: l,
        51: lambda l, c, r: 1 - c,
        204: lambda l, c, r: c,
        85: lambda l, c, r: 1 - r,
        170: lambda l, c, r: r,
    }

    @pytest.mark.parametrize("number", sorted(FORMS))
    def test_all_eight_patterns(self, number):
        rule = ca.make_rule(1, number)
        for p in range(8):
            l, c, r = (p >> 2) & 1, (p >> 1) & 1, p & 1
            assert ca.apply_rule(rule, [l, c, r]) == self.FORMS[number](l, c, r)

    @pytest.mark.parametrize("number", sorted(FORMS))
    def test_random_configurations(self, number):
        rng = np.random.default_rng(1234 + number)
        rule = ca.make_rule(1, number)
        form = self.FORMS[number]
        for _ in range(20):
            cfg = rng.integers(0, 2, size=33, dtype=np.uint8)
            left = np.roll(cfg, 1)
            right = np.roll(cfg, -1)
            expected = np.array([form(l, c, r) for l, c, r in zip(left, cfg, right)])
            assert np.array_equal(ca.step(cfg, rule, Boundary.CYCLIC), expected)

    def test_240_then_170_is_identity(self):
        rng = np.random.default_rng(7)
        cfg = rng.integers(0, 2, size=17, dtype=np.uint8)
        shifted = ca.step(cfg, ca.make_rule(1, 240), Boundary.CYCLIC)
        assert np.array_equal(shifted, np.roll(cfg, 1))
        back = ca.step(shifted, ca.make_rule(1, 170), Boundary.CYCLIC)
        assert np.array_equal(back, cfg)


class TestReversibility:
    def test_identity_rule_is_reversible(self):
        assert ca.is_reversible_global(ca.make_rule(1, 204), Boundary.CYCLIC, 4)

    def test_shift_rule_is_reversible_on_ring(self):
        assert ca.is_reversible_global(ca.make_rule(1, 240), Boundary.CYCLIC, 4)

    def test_reversible_trio_vector_not_injective_under_null(self):
        rules = vector(204, 204, 240, 170)
        assert not ca.is_reversible_global(rules, Boundary.NULL, 4)
        # the collision witnessing it: 1011 and 1010 share the successor 1000
        a = ca.step(ca.parse_bits("1011"), rules, Boundary.NULL)
        b = ca.step(ca.parse_bits("1010"), rules, Boundary.NULL)
        assert ca.format_bits(a) == ca.format_bits(b) == "1000"

    def test_refuses_large_state_spaces(self):
        with pytest.raises(ValueError, match="20"):
            ca.is_reversible_global(ca.make_rule(1, 204), Boundary.CYCLIC, 21)

    def test_census_sizes_4_to_8(self):
        assert ca.enumerate_reversible_elementary(1, [4, 5, 6, 7, 8]) == REVERSIBLE_SET

    def test_census_has_six_members_including_51(self):
        found = ca.enumerate_reversible_elementary(1, [4, 5, 6])
        assert len(found) == 6
        assert 51 in found

    def test_census_requires_multiple_sizes(self):
        # rule 150 (three-way XOR) happens to be injective on rings whose
        # size is not a multiple of 3, so a single small size is not enough
        # to isolate the six.
        assert 150 in ca.enumerate_reversible_elementary(1, [4])
        assert 150 not in ca.enumerate_reversible_elementary(1, [4, 6])

    def test_census_rejects_radius_above_one(self):
        with pytest.raises(ValueError):
            ca.enumerate_reversible_elementary(2, [4])

    def test_census_rejects_oversized_rings(self):
        with pytest.raises(ValueError):
            ca.enumerate_reversible_elementary(1, [17])


class TestCycleStructure:
    def test_legacy_vector_four_cycles_of_four(self):
        report = ca.cycle_structure(vector(51, 51, 195, 153), Boundary.NULL, 4)
        assert report.cycle_lengths() == [4, 4, 4, 4]
        assert report.transient_states == []
        covered = sorted(s for cyc in report.cycles for s in cyc)
        assert covered == list(range(16))

    def test_identity_rule_fixed_points(self):
        report = ca.cycle_structure(ca.make_rule(1, 204), Boundary.CYCLIC, 3)
        assert report.cycle_lengths() == [1] * 8

    def test_complement_rule_pairs_states(self):
        report = ca.cycle_structure(ca.make_rule(1, 51), Boundary.CYCLIC, 3)
        assert sorted(report.cycle_lengths()) == [2, 2, 2, 2]
        for cyc in report.cycles:
            a, b = cyc
            assert a ^ b == 0b111  # complement pairs

    def test_cycles_follow_the_step_relation(self):
        rules = vector(51, 51, 195, 153)
        report = ca.cycle_structure(rules, Boundary.NULL, 4)
        for cyc in report.cycles:
            for i, code in enumerate(cyc):
                nxt = ca.step(ca.int_to_state(code, 4), rules, Boundary.NULL)
                assert ca.state_to_int(nxt) == cyc[(i + 1) % len(cyc)]

    def test_non_injective_map_has_transients(self):
        report = ca.cycle_structure(vector(204, 204, 240, 170), Boundary.NULL, 4)
        assert report.transient_states
        covered = sorted(
            [s for cyc in report.cycles for s in cyc] + report.transient_states
        )
        assert covered == list(range(16))

    def test_refuses_large_state_spaces(self):
        with pytest.raises(ValueError):
            ca.cycle_structure(ca.make_rule(1, 30), Boundary.CYCLIC, 24)


class TestTextHelpers:
    def test_bits_round_trip(self):
        assert ca.format_bits(ca.parse_bits("100110")) == "100110"

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            ca.parse_bits("10a1")
        with pytest.raises(ValueError):
            ca.parse_bits("")

    def test_state_int_round_trip(self):
        cfg = ca.parse_bits("1011")
        assert ca.state_to_int(cfg) == 0b1011
        assert np.array_equal(ca.int_to_state(0b1011, 4), cfg)
        assert ca.format_state_int(3, 5) == "00011"

    def test_parse_rule_vector(self):
        rules = ca.parse_rule_vector("51,51,195,153")
        assert [r.number for r in rules] == [51, 51, 195, 153]
        with pytest.raises(ValueError):
            ca.parse_rule_vector("")
