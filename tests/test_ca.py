import gc
import hashlib
import itertools
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpca import ca, pca
from rpca.ca import Boundary
from rpca.second_order import SecondOrderState, so_iterate_forward

from helpers import child_peak_mib, naive_cycle_walk, naive_so_run, naive_step

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

    @pytest.mark.parametrize("table", [[0] * 7, [0] * 32, [[0] * 8]])
    def test_rejects_a_table_of_the_wrong_shape(self, table):
        with pytest.raises(ValueError, match="table must have 8 entries"):
            ca.rule_from_table(1, table)

    @pytest.mark.parametrize("radius", [0, 4])
    def test_rejects_radius_out_of_range(self, radius):
        # a table of the right length for the radius, so only the radius is wrong
        with pytest.raises(ValueError, match=r"radius must be in 1\.\.3"):
            ca.rule_from_table(radius, [0] * (1 << (2 * radius + 1)))


class TestRuleIdentity:
    def test_same_rule_by_number_and_by_table(self):
        by_number = ca.make_rule(1, 30)
        by_table = ca.rule_from_table(1, by_number.table.copy())
        assert by_number == by_table
        assert hash(by_number) == hash(by_table)
        assert len({by_number, by_table}) == 1

    def test_repr_omits_the_table(self):
        assert repr(ca.make_rule(1, 30)) == "Rule(radius=1, number=30)"

    def test_not_equal_to_its_number(self):
        assert ca.make_rule(1, 30) != 30

    def test_radius_and_number_both_count(self):
        assert ca.make_rule(1, 30) != ca.make_rule(2, 30)
        assert ca.make_rule(1, 30) != ca.make_rule(1, 31)


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

    @pytest.mark.parametrize("bad,dtype", [(256, None), (2, None), (3, None), (-1, None),
                                           (0.5, None), (2, np.uint8), (255, np.uint8)])
    @pytest.mark.parametrize("rules", [(30,), (51, 51, 195, 153)], ids=["uniform", "vector"])
    def test_cell_outside_zero_one_names_its_index(self, bad, dtype, rules):
        # a uint8 cast would wrap 256 to 0, and a clipped gather would read 2 as a pattern
        cfg, rules = np.array([0, 1, bad, 0], dtype=dtype), vector(*rules)
        for call in (lambda: ca.step(cfg, rules, Boundary.CYCLIC),
                     lambda: ca.iterate(cfg, rules, Boundary.NULL, 3),
                     lambda: ca.iterate(cfg, rules, Boundary.NULL, 0)):
            with pytest.raises(ValueError, match=re.escape(f"cell 2 must be 0 or 1, got {bad}")):
                call()
        batch = np.zeros((3, 4), dtype=cfg.dtype)
        batch[1] = cfg
        with pytest.raises(ValueError, match=re.escape(f"cell (1, 2) must be 0 or 1, got {bad}")):
            ca.step_many(batch, rules, Boundary.CYCLIC)

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_every_width_around_the_radius(self, radius, boundary):
        # widths 1..2r+2: rings narrower than, as wide as and wider than the radius
        rng = np.random.default_rng(radius)
        for n in range(1, 2 * radius + 3):
            configs = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.uint8)
            numbers = [int.from_bytes(rng.bytes(1 << (2 * radius - 2)), "little")
                       for _ in range(n)]
            for nums in (numbers, numbers[:1]):  # a per-cell vector and a uniform rule
                rules = vector(*nums, radius=radius)
                expected = np.array([naive_step(c, nums, radius, boundary.value)
                                     for c in configs.tolist()], dtype=np.uint8)
                wide = np.zeros((len(configs), 2 * n), np.uint8)
                wide[:, ::2] = configs
                for batch in (configs, np.asfortranarray(configs), wide[:, ::2]):
                    got = ca.step_many(batch, rules, boundary)
                    assert np.array_equal(got, expected), (n, len(nums))
                got = ca.step_many(configs.reshape(2, -1, n), rules, boundary)
                assert np.array_equal(got, expected.reshape(2, -1, n)), (n, len(nums))

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("shape", [(), (0,), (3, 0)])
    def test_no_cells_rejected(self, shape, boundary):
        # a 0-d input and a cyclic empty row raised a bare IndexError; a null one stepped
        states = np.zeros(shape, np.uint8)
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            ca.step_many(states, ca.make_rule(1, 30), boundary)

    def test_boundary_by_member_or_value(self):
        cfg, rule = ca.parse_bits("1000"), ca.make_rule(1, 240)
        for cyclic in (Boundary.CYCLIC, "cyclic"):
            assert ca.format_bits(ca.step(cfg[::-1], rule, cyclic)) == "1000"
        for null in (Boundary.NULL, "null"):
            assert ca.format_bits(ca.step(cfg[::-1], rule, null)) == "0000"
        with pytest.raises(ValueError, match="torus"):
            ca.step(cfg, rule, "torus")

    def test_long_vector_offsets_pass_uint16(self):
        # 600 cells x 128 entries: the flat table's last offset is above 2^16
        rng = np.random.default_rng(600)
        numbers = [int.from_bytes(rng.bytes(16), "little") for _ in range(600)]
        cells = rng.integers(0, 2, 600)
        rules = vector(*numbers, radius=3)
        for boundary in Boundary:
            got = ca.step(cells, rules, boundary)
            assert got.tolist() == naive_step(cells.tolist(), numbers, 3, boundary.value)

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

    def test_zero_steps_checks_rules_and_boundary(self):
        # with no step to take, the input used to come back unchecked
        cfg = ca.parse_bits("101")
        with pytest.raises(ValueError, match="rule vector has 4 entries; need 1 or 3"):
            ca.iterate(cfg, vector(51, 51, 195, 153), Boundary.NULL, 0)
        with pytest.raises(ValueError, match="torus"):
            ca.iterate(cfg, ca.make_rule(1, 30), "torus", 0)


def bit_rows(count, cells):
    """Strategy: `count` rows of `cells` 0/1 cells, as a read-only uint8 array."""
    def frozen(rows):
        array = np.array(rows, np.uint8).reshape(count, cells)
        array.setflags(write=False)
        return array
    row = st.lists(st.integers(0, 1), min_size=cells, max_size=cells)
    return st.lists(row, min_size=count, max_size=count).map(frozen)


class TestStepperBuffers:
    """A built step reuses its buffers, yet every step returns an array of its own."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3), st.sampled_from([(), (1,), (3,), (2, 3)]),
           st.sampled_from(list(Boundary)), st.booleans(), st.integers(1, 6), st.data())
    def test_each_output_keeps_its_value(self, radius, lead, boundary, uniform, steps, data):
        # widths 1..2r+2, so a ring narrower than the radius wraps more than once
        n = data.draw(st.integers(1, 2 * radius + 2), label="cells")
        top = (1 << (1 << (2 * radius + 1))) - 1
        numbers = data.draw(st.lists(st.integers(0, top), min_size=1 if uniform else n,
                                     max_size=1 if uniform else n), label="rules")
        states = data.draw(bit_rows(int(np.prod(lead)), n), label="states").reshape(lead + (n,))
        step = ca._stepper(vector(*numbers, radius=radius), boundary, states.shape)
        outputs = [states]
        for _ in range(steps):
            outputs.append(step(outputs[-1]))
            outputs[-1].setflags(write=False)
        rows = states.reshape(-1, n).tolist()
        for t, out in enumerate(outputs[1:], 1):
            rows = [naive_step(row, numbers, radius, boundary.value) for row in rows]
            assert out.shape == states.shape and out.reshape(-1, n).tolist() == rows, t
            assert not any(np.shares_memory(out, other) for other in outputs[:t]), t

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.sampled_from(list(Boundary)), st.integers(1, 5), st.data())
    def test_second_order_pair_keeps_both_halves(self, radius, boundary, steps, data):
        n = data.draw(st.integers(1, 2 * radius + 2), label="cells")
        number = data.draw(st.integers(0, (1 << (1 << (2 * radius + 1))) - 1), label="rule")
        prev, curr = data.draw(bit_rows(3, n), label="prev"), data.draw(bit_rows(3, n), label="curr")
        out = so_iterate_forward(SecondOrderState(prev, curr), ca.make_rule(radius, number),
                                 boundary, steps)
        for row in range(3):
            want_prev, want_curr, _ = naive_so_run(prev[row].tolist(), curr[row].tolist(),
                                                   number, radius, boundary.value, steps)
            assert (out.prev[row].tolist(), out.curr[row].tolist()) == (want_prev, want_curr)
        assert not np.shares_memory(out.curr, out.prev)
        assert not any(np.shares_memory(out.curr, half) for half in (prev, curr))

    def test_two_threads_stepping_at_once_match_serial_runs(self):
        # each call builds its own step; buffers shared between calls would mix the threads.
        # 2^16 cells keep numpy's loops long enough to run without the GIL, so the walks overlap
        rng = np.random.default_rng(35)
        walks = [rng.integers(0, 2, 1 << 16).astype(np.uint8) for _ in range(2)]
        ring = vector(*[240] * 12)  # a per-cell vector of the right shift: period 12
        starts = [ca.parse_bits("100000000000"), ca.parse_bits("110100000000")]

        def work(k):
            return [(ca.iterate(walks[k], ca.make_rule(1, 30), Boundary.CYCLIC, 7).tolist(),
                     pca.cycle_encipher(starts[k], ring, Boundary.CYCLIC).tolist())
                    for _ in range(200)]

        serial, threaded = [work(k) for k in range(2)], [None, None]
        barrier = threading.Barrier(2, timeout=60)

        def run(k):
            barrier.wait()
            threaded[k] = work(k)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert threaded == serial
        for k in range(2):
            walk = walks[k]
            for _ in range(7):  # rule 30: left XOR (center OR right)
                walk = np.roll(walk, 1) ^ (walk | np.roll(walk, -1))
            assert serial[k][0] == (walk.tolist(), np.roll(starts[k], 6).tolist())


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

    def test_census_rejects_an_empty_size_list(self):
        with pytest.raises(ValueError, match="cell_sizes must be non-empty"):
            ca.enumerate_reversible_elementary(1, [])

    def test_census_rejects_oversized_rings(self):
        with pytest.raises(ValueError):
            ca.enumerate_reversible_elementary(1, [17])


# (radius, rule numbers): uniform rules of radius 1, 2 and 3, and a per-cell
# vector whose numbers repeat across the cells
GLOBAL_MAP_RULES = [
    (1, (30,)),
    (2, (0x6E1D3A95,)),
    (3, (0x9E3779B97F4A7C15F39CC0605CEDC834,)),
    (1, (51, 195, 153, 30, 90, 150, 204)),
    # per-cell vectors at radius 2 and 3: at 12 cells the flat table's offsets pass 255
    (2, (0x6E1D3A95, 0x96696996, 0x0F0F0F0F, 0xFFFF0000, 0x12345678)),
    (3, (0x9E3779B97F4A7C15F39CC0605CEDC834, 0x0123456789ABCDEF0123456789ABCDEF,
         0xF0F0F0F0F0F0F0F0F0F0F0F0F0F0F0F0)),
]


def naive_successor(code, cells, numbers, radius, boundary):
    cfg = [(code >> (cells - 1 - i)) & 1 for i in range(cells)]
    out = 0
    for bit in naive_step(cfg, numbers, radius, boundary):
        out = (out << 1) | bit
    return out


def numbers_for(numbers, cells):
    return numbers if len(numbers) == 1 else (numbers * cells)[:cells]


class TestWindowTable:
    @pytest.mark.parametrize("radius", [1, 2, 3])
    @pytest.mark.parametrize("c", range(1, 9))  # global_map's last run may be any length
    @pytest.mark.parametrize("mixed", [False, True], ids=["uniform", "mixed"])
    def test_every_window_matches_apply_rule(self, radius, c, mixed):
        rng = np.random.default_rng([radius, c, mixed])
        numbers = [int.from_bytes(rng.bytes(1 << 2 * radius - 2), "big")
                   for _ in range(c if mixed else 1)]
        rules = vector(*(numbers if mixed else numbers * c), radius=radius)
        width = c + 2 * radius
        table = ca._window_table(rules)
        assert table.dtype == np.uint8 and table.shape == (1 << width,)
        for value, got in enumerate(table.tolist()):
            bits = format(value, f"0{width}b")
            want = 0
            for k, rule in enumerate(rules):  # cell k and its output: k-th from the top
                want = want << 1 | ca.apply_rule(rule, bits[k : k + 2 * radius + 1])
            assert got == want, (value, bits)


class TestGlobalMap:
    @pytest.mark.parametrize("boundary", ["null", "cyclic"])
    @pytest.mark.parametrize("radius,numbers", GLOBAL_MAP_RULES, ids=["30", "r2", "r3", "vector", "r2-vector", "r3-vector"])
    def test_matches_naive_step_on_every_state(self, monkeypatch, radius, numbers, boundary):
        monkeypatch.setattr(ca, "_CODE_BLOCK", 7)  # blocks end mid-range
        for cells in range(1, 13):
            nums = numbers_for(numbers, cells)
            succ = ca.global_map(vector(*nums, radius=radius), Boundary(boundary), cells)
            assert succ.dtype == np.int32
            assert succ.tolist() == [
                naive_successor(code, cells, nums, radius, boundary)
                for code in range(1 << cells)
            ]

    @pytest.mark.parametrize("radius,numbers,boundary", [
        (1, (30,), "cyclic"),
        (3, (0x9E3779B97F4A7C15F39CC0605CEDC834,), "null"),
        (1, (51, 51, 195, 153), "null"),
    ], ids=["30", "r3", "vector"])
    def test_twenty_cells_on_a_sample(self, radius, numbers, boundary):
        nums = numbers_for(numbers, 20)
        succ = ca.global_map(vector(*nums, radius=radius), Boundary(boundary), 20)
        assert succ.dtype == np.int32 and succ.shape == (1 << 20,)
        rng = np.random.default_rng(20)
        codes = [0, 65535, 65536, (1 << 20) - 1, *rng.integers(0, 1 << 20, 60).tolist()]
        for code in codes:
            assert succ[code] == naive_successor(code, 20, nums, radius, boundary)

    @pytest.mark.parametrize("cells", [13, 16, 17])  # runs of 8 output cells; 17 ends with 1
    @pytest.mark.parametrize("boundary", ["null", "cyclic"])
    @pytest.mark.parametrize("radius,numbers", GLOBAL_MAP_RULES, ids=["30", "r2", "r3", "vector", "r2-vector", "r3-vector"])
    def test_matches_naive_step_on_sampled_codes(self, radius, numbers, boundary, cells):
        nums = numbers_for(numbers, cells)
        succ = ca.global_map(vector(*nums, radius=radius), Boundary(boundary), cells)
        assert succ.dtype == np.int32 and succ.shape == (1 << cells,)
        top = 1 << cells
        # one set cell, and a block of 2r + 2 set cells, rotated to every place: their
        # windows straddle each run edge, and on a ring the wrap
        block = (1 << 2 * radius + 2) - 1
        codes = [1 << i for i in range(cells)]
        codes += [(block >> i | block << cells - i) % top for i in range(cells)]
        rng = np.random.default_rng([cells, radius, len(numbers)])
        codes += [0, top - 1, *rng.integers(0, top, 40).tolist()]
        for code in codes:
            assert succ[code] == naive_successor(code, cells, nums, radius, boundary), code

    def test_twenty_cells_trace_little_memory(self):
        tracemalloc.start()
        try:
            ca.global_map(ca.make_rule(1, 30), Boundary.CYCLIC, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20  # the answer alone is 4 MiB


CRAFTED_MAPS = ["self-loops", "one cycle", "chain", "permutation", "random", "onto a tenth"]

# sha256 of repr((cycles, transient_states)) of naive_cycle_walk over the 20-cell map
TWENTY_CELL_REPORTS = [
    ((51, 51, 195, 153), "null", "4053a0474253637ae75b882106297bac774e1aac35d92c2aa9698df2ad73c552"),
    ((30,), "cyclic", "89279d3f1417b587ddad7dd588e0c92b5e2a24c508f0db277dca91f4f3ce247b"),
]


def crafted_map(kind, n, rng):
    """Successor codes of one of CRAFTED_MAPS over n states, under shuffled labels."""
    labels = rng.permutation(n)
    succ = np.empty(n, dtype=np.int32)
    if kind == "self-loops":
        succ[:] = np.arange(n)
    elif kind == "one cycle":
        succ[labels] = np.roll(labels, -1)
    elif kind == "chain":  # labels[0] lies n - 1 steps before the fixed point labels[-1]
        succ[labels] = np.append(labels[1:], labels[-1])
    elif kind == "permutation":
        succ[:] = labels
    elif kind == "random":
        succ[:] = rng.integers(0, n, n)
    else:
        succ[:] = rng.choice(labels[: max(1, n // 10)], n)
    return succ


def functional_graph(n, rng):
    """Successor codes over n states under shuffled labels: cycles of mixed lengths
    over some of them, and trees of random depth feeding the rest into those."""
    labels = rng.permutation(n)
    k = int(rng.choice([1, rng.integers(1, n + 1), n]))  # cycle states
    succ = np.empty(n, dtype=np.int32)
    cuts = np.sort(rng.choice(np.arange(1, k), int(rng.integers(0, k)), replace=False))
    for cycle in np.split(labels[:k], cuts):
        succ[cycle] = np.roll(cycle, -1)
    # tree state i feeds into one of the `reach` states labelled just before it
    i, reach = np.arange(k, n), int(rng.integers(1, n + 1))
    low = np.maximum(0, i - reach)
    succ[labels[k:]] = labels[low + (rng.random(i.size) * (i - low)).astype(np.intp)]
    return succ


class TestCycleStructure:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 257, 4096])
    @pytest.mark.parametrize("kind", CRAFTED_MAPS)
    def test_matches_the_walk_on_crafted_maps(self, monkeypatch, kind, n):
        rng = np.random.default_rng([n, CRAFTED_MAPS.index(kind)])
        for _ in range(3):
            succ = crafted_map(kind, n, rng)
            monkeypatch.setattr(ca, "global_map", lambda rules, boundary, cells: succ.copy())
            report = ca.cycle_structure(ca.make_rule(1, 30), Boundary.CYCLIC, 12)
            cycles, transients = naive_cycle_walk(succ)
            assert report.cycles == cycles
            assert report.transient_states == transients

    # block edges of ca._TAKE_BLOCK and of a 2^16-entry index
    @given(n=st.integers(1, 5000) | st.sampled_from([2**14 - 1, 2**14, 2**14 + 1,
                                                     2**16 - 1, 2**16, 2**16 + 1]),
           seed=st.integers(0, 2**32 - 1))
    @example(n=2**14 + 1, seed=0)
    @example(n=2**16 + 1, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_matches_the_walk_on_random_functional_graphs(self, n, seed):
        succ = functional_graph(n, np.random.default_rng(seed))
        succ.flags.writeable = False  # the census must not write into the map it is handed
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ca, "global_map", lambda rules, boundary, cells: succ)
            report = ca.cycle_structure(ca.make_rule(1, 30), Boundary.CYCLIC, 12)
        cycles, transients = naive_cycle_walk(succ)
        assert report.cycles == cycles
        assert report.transient_states == transients

    @pytest.mark.parametrize("n", [1, 10, 4096])
    @pytest.mark.parametrize("kind", CRAFTED_MAPS)
    def test_cycle_lengths_are_plain_ints_of_the_walk(self, monkeypatch, kind, n):
        succ = crafted_map(kind, n, np.random.default_rng([n, CRAFTED_MAPS.index(kind)]))
        monkeypatch.setattr(ca, "global_map", lambda rules, boundary, cells: succ.copy())
        lengths = ca.cycle_structure(ca.make_rule(1, 30), Boundary.CYCLIC, 12).cycle_lengths()
        assert lengths == [len(cycle) for cycle in naive_cycle_walk(succ)[0]]
        assert all(type(length) is int for length in lengths)

    def test_order_and_lengths_are_read_only(self):
        report = ca.cycle_structure(vector(204, 204, 240, 170), Boundary.NULL, 4)
        assert report.order.dtype == report.lengths.dtype == np.int32
        for array in (report.order, report.lengths):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_reports_compare_by_their_census(self):
        # the generated dataclass __eq__ would call bool() on the arrays and raise
        rules = vector(51, 51, 195, 153)
        report = ca.cycle_structure(rules, Boundary.NULL, 4)
        assert report == ca.cycle_structure(rules, Boundary.NULL, 4)
        assert report != ca.cycle_structure(rules, Boundary.CYCLIC, 4)
        assert report != ca.cycle_structure(ca.make_rule(1, 51), Boundary.NULL, 4)
        assert report != ca.cycle_structure(vector(51, 51, 195, 153, 51), Boundary.NULL, 5)
        assert report != (report.cells, report.cycles, report.transient_states)

    @pytest.mark.parametrize("n,size", [
        (10, 4), (10, 5), (10, 9), (257, 127), (257, 128), (257, 256),
        (4096, 2047), (4096, 2048), (4096, 4095),
    ])
    def test_matches_the_walk_when_size_states_cycle(self, monkeypatch, n, size):
        # the doubling runs over the renumbered cycle states; n - 1 leaves one transient
        rng = np.random.default_rng([n, size])
        for _ in range(3):
            labels = rng.permutation(n)
            succ = np.empty(n, dtype=np.int32)
            succ[labels[:size]] = labels[:size][rng.permutation(size)]  # every one on a cycle
            succ[labels[size:]] = labels[rng.integers(0, np.arange(size, n))]  # trees into them
            monkeypatch.setattr(ca, "global_map", lambda rules, boundary, cells: succ.copy())
            report = ca.cycle_structure(ca.make_rule(1, 30), Boundary.CYCLIC, 12)
            cycles, transients = naive_cycle_walk(succ)
            assert sum(map(len, cycles)) == size
            assert report.cycles == cycles
            assert report.transient_states == transients

    @pytest.mark.parametrize("numbers,boundary,digest", TWENTY_CELL_REPORTS,
                             ids=["vector-null", "30-cyclic"])
    def test_twenty_cell_report_is_pinned(self, numbers, boundary, digest):
        report = ca.cycle_structure(vector(*numbers_for(numbers, 20)), Boundary(boundary), 20)
        text = repr((report.cycles, report.transient_states))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("numbers,boundary", [case[:2] for case in TWENTY_CELL_REPORTS],
                             ids=["vector-null", "30-cyclic"])
    def test_twenty_cells_trace_under_80_mib(self, numbers, boundary):
        rules = vector(*numbers_for(numbers, 20))
        tracemalloc.start()
        try:
            report = ca.cycle_structure(rules, Boundary(boundary), 20)
            report.cycles, report.transient_states
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80 * 2**20  # the lists alone are 61 and 44 MiB

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_lists_are_built_with_the_collector_paused(self, enabled):
        collections = []
        hook = lambda phase, info: collections.append((phase, info["generation"]))  # noqa: E731
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        gc.collect()
        gc.callbacks.append(hook)
        try:
            ca.cycle_structure(vector(*numbers_for((51, 51, 195, 153), 16)), Boundary.NULL, 16)
            assert gc.isenabled() is enabled
        finally:
            gc.callbacks.remove(hook)
            (gc.enable if was else gc.disable)()
        assert collections == []

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("attr,numbers", [("cycles", (51, 51, 195, 153)),
                                              ("transient_states", (204, 204, 240, 170))])
    def test_lists_are_built_on_first_read_with_the_collector_paused(self, enabled, attr, numbers):
        # 16,384 cycles of 4, or 65,280 transients. The collection that the paused
        # allocations owe may start as soon as the build returns, so only the
        # collections that start while the list-building function's frame is live count.
        report = ca.cycle_structure(vector(*numbers_for(numbers, 16)), Boundary.NULL, 16)
        assert attr not in vars(report)
        build = vars(ca.CycleReport)[attr].func.__wrapped__.__code__
        inside = []

        def hook(phase, info):
            frame = sys._getframe()
            while frame is not None and frame.f_code is not build:
                frame = frame.f_back
            inside.append(frame is not None)

        was, threshold = gc.isenabled(), gc.get_threshold()
        (gc.enable if enabled else gc.disable)()
        gc.collect()
        gc.set_threshold(1)  # a running collector would start one every other list
        gc.callbacks.append(hook)
        try:
            built = getattr(report, attr)
            assert gc.isenabled() is enabled
        finally:
            gc.callbacks.remove(hook)
            gc.set_threshold(*threshold)
            (gc.enable if was else gc.disable)()
        assert not any(inside)
        assert getattr(report, attr) is built  # kept, not rebuilt

    @pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
    def test_twenty_cell_census_rss(self):
        # tracemalloc misses np.take's intp copy of its index: with 2^16-code blocks a
        # census child rose 101.6 -> 116.3 MiB while its traced peak stayed the same.
        # Measured here: a child that only imports rpca peaks at 31.5 MiB and one that
        # runs this census at 101.6 MiB, 70.1 MiB more; allow about 5%. The lists are
        # built on first read, so the child reads them (71.4 MiB more).
        census = ("rules = [ca.make_rule(1, n) for n in (51, 51, 195, 153) * 5]\n"
                  "report = ca.cycle_structure(rules, ca.Boundary.NULL, 20)\n"
                  "report.cycles, report.transient_states")
        peak, base = child_peak_mib(census), child_peak_mib("")
        assert peak - base < 1.05 * 70.1, (
            f"census child peaked at {peak:.1f} MiB and import-only child at {base:.1f} MiB: "
            f"{peak - base:.1f} MiB more, against a bound of {1.05 * 70.1:.1f} MiB")

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

    @pytest.mark.parametrize("boundary", ["null", "cyclic"])
    @pytest.mark.parametrize("cells", range(4, 11))
    @pytest.mark.parametrize("numbers", [(30,), (51, 51, 195, 153), (204, 204, 240, 170)])
    def test_whole_report_matches_a_naive_walk(self, numbers, cells, boundary):
        numbers = numbers_for(numbers, cells)
        report = ca.cycle_structure(vector(*numbers), Boundary(boundary), cells)
        cycles, transients = naive_cycle_report(numbers, cells, boundary)
        assert report.cells == cells
        assert report.cycles == cycles
        assert report.transient_states == transients

    @pytest.mark.parametrize("boundary", ["null", "cyclic"])
    @pytest.mark.parametrize("numbers", [(30,), (51, 51, 195, 153), (204, 204, 240, 170)])
    def test_lists_built_a_few_cycles_at_a_time_match_a_naive_walk(
        self, numbers, boundary, monkeypatch
    ):
        monkeypatch.setattr(ca, "_LIST_BLOCK", 3)  # three cycles per block, so many blocks
        numbers = numbers_for(numbers, 10)
        report = ca.cycle_structure(vector(*numbers), Boundary(boundary), 10)
        assert (report.cycles, report.transient_states) == naive_cycle_report(numbers, 10, boundary)


def naive_cycle_report(numbers, cells, boundary):
    """Cycles in order of the first start whose orbit reaches them, each listed
    from the state where that orbit enters it; then every other state, ascending."""
    nxt = [naive_successor(code, cells, list(numbers), 1, boundary) for code in range(1 << cells)]
    on_cycle = set(range(1 << cells))
    while {nxt[s] for s in on_cycle} != on_cycle:  # shrink to the eventual image
        on_cycle = {nxt[s] for s in on_cycle}
    cycles, listed = [], set()
    for code in range(1 << cells):
        v = code
        while v not in on_cycle:
            v = nxt[v]
        if v not in listed:
            cycle = [v]
            while nxt[cycle[-1]] != v:
                cycle.append(nxt[cycle[-1]])
            cycles.append(cycle)
            listed.update(cycle)
    return cycles, [code for code in range(1 << cells) if code not in on_cycle]


class TestTextHelpers:
    def test_bits_round_trip(self):
        assert ca.format_bits(ca.parse_bits("100110")) == "100110"
        assert ca.format_bits(ca.parse_bits("1011")[::-1]) == "1101"
        for cfg in ([1, 0, 1, 1], np.array([1, 0, 1, 1], np.int64), np.array([1, 0, 1, 1], bool)):
            assert ca.format_bits(cfg) == "1011"

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            ca.parse_bits("10a1")
        with pytest.raises(ValueError):
            ca.parse_bits("")

    @pytest.mark.parametrize("text,at", [("300", 0), ("51,300", 1), ("51, 51, 195, 1000", 3)])
    def test_rule_vector_names_an_out_of_range_entry(self, text, at):
        with pytest.raises(ValueError, match=rf"^rule vector entry {at}: rule_number out of range"):
            ca.parse_rule_vector(text)

    def test_state_int_round_trip(self):
        cfg = ca.parse_bits("1011")
        assert ca.state_to_int(cfg) == 0b1011
        assert np.array_equal(ca.int_to_state(0b1011, 4), cfg)

    @pytest.mark.parametrize("bad", [2, 256, -1])
    def test_state_to_int_rejects_a_cell_outside_zero_one(self, bad):
        with pytest.raises(ValueError, match=f"cell 1 must be 0 or 1, got {bad}"):
            ca.state_to_int(np.array([1, bad, 0]))

    @pytest.mark.parametrize("cells", [1, 8, 63, 64, 65, 128])
    def test_state_int_round_trip_at_any_width(self, cells):
        for code in (0, 1, 1 << (cells - 1), (1 << cells) - 1):
            cfg = ca.int_to_state(code, cells)
            assert ca.state_to_int(cfg) == code
            assert np.array_equal(ca.int_to_state(ca.state_to_int(cfg), cells), cfg)

    @pytest.mark.parametrize("code,cells", [(16, 4), (-1, 4), (2, 1), (1 << 128, 128)],
                             ids=["above", "negative", "one-cell", "wide"])
    def test_int_to_state_rejects_codes_out_of_range(self, code, cells):
        with pytest.raises(ValueError, match="out of range"):
            ca.int_to_state(code, cells)

    @pytest.mark.parametrize("cells,bad", [([2, 0, 1], 2), ([0, 1, 0, -1], -1), ([1, 256], 256)])
    def test_format_bits_rejects_a_cell_outside_zero_one(self, cells, bad):
        # 2 and -1 rendered as "1", and 256 as "0"
        at = cells.index(bad)
        with pytest.raises(ValueError, match=re.escape(f"cell {at} must be 0 or 1, got {bad}")):
            ca.format_bits(np.array(cells))

    @pytest.mark.parametrize("call", [ca.format_bits, ca.state_to_int])
    @pytest.mark.parametrize("config", [[[1, 0], [0, 1]], 1, [[1, 0, 1]]])
    def test_one_configuration_only(self, call, config):
        # state_to_int read [[1, 0], [0, 1]] as 9, and format_bits as "11"
        with pytest.raises(ValueError, match=re.escape(f"shape {np.shape(config)}")):
            call(np.array(config))

    def test_parse_rule_vector(self):
        rules = ca.parse_rule_vector("51,51,195,153")
        assert [r.number for r in rules] == [51, 51, 195, 153]
        assert {r.radius for r in rules} == {1}
        with pytest.raises(ValueError):
            ca.parse_rule_vector("")

    @pytest.mark.parametrize("text,at,entry", [("1x", 0, "1x"), ("51, 51,-5,153", 2, "-5")])
    def test_parse_rule_vector_names_a_bad_entry(self, text, at, entry):
        with pytest.raises(ValueError, match=f"rule vector entry {at} must be a decimal .* got '{entry}'"):
            ca.parse_rule_vector(text)
