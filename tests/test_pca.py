import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpca import ca, pca
from rpca.ca import Boundary
from rpca.pca import (
    TABLE_51_195_153,
    TABLE_204_240_170,
    ControlProgram,
    SelectionTable,
    UnsupportedOrbitError,
    cycle_decipher,
    cycle_encipher,
    pca_step,
    select_rule,
)

from helpers import naive_step

LEGACY_VECTOR = [ca.make_rule(1, n) for n in (51, 51, 195, 153)]

# control pairs inducing each published rule vector
CONTROLS_51_51_195_153 = np.array([(0, 0), (0, 0), (1, 0), (1, 1)], dtype=np.uint8)
CONTROLS_204_204_240_170 = np.array([(0, 0), (0, 0), (1, 0), (1, 1)], dtype=np.uint8)


class TestSelectionTables:
    def test_legacy_table_rows(self):
        assert select_rule(TABLE_51_195_153, 0, 0) == 51
        assert select_rule(TABLE_51_195_153, 0, 1) == 51
        assert select_rule(TABLE_51_195_153, 1, 0) == 195
        assert select_rule(TABLE_51_195_153, 1, 1) == 153

    def test_reversible_table_rows(self):
        assert select_rule(TABLE_204_240_170, 0, 0) == 204
        assert select_rule(TABLE_204_240_170, 0, 1) == 204
        assert select_rule(TABLE_204_240_170, 1, 0) == 240
        assert select_rule(TABLE_204_240_170, 1, 1) == 170

    @pytest.mark.parametrize("pair", [(2, 0), (0, -1), (0.5, 0), (1, 256)])
    def test_select_rule_rejects_a_pair_that_is_not_two_bits(self, pair):
        with pytest.raises(ValueError, match=re.escape(repr(pair))):
            select_rule(TABLE_51_195_153, *pair)

    @pytest.mark.parametrize("pair", [(2, 0), (0, -1), (0.5, 0), (1, 256)])
    def test_table_rule_rejects_a_pair_that_is_not_two_bits(self, pair):
        with pytest.raises(ValueError, match=re.escape(repr(pair))):
            TABLE_204_240_170.rule(*pair)

    def test_tables_are_read_only(self):
        # this assignment used to succeed and broke every later lookup in the process
        with pytest.raises(TypeError):
            TABLE_51_195_153.rules[(1, 1)] = 300
        rules = {(0, 0): 51, (0, 1): 51, (1, 0): 195, (1, 1): 153}
        table = SelectionTable(radius=1, rules=rules)
        rules[(1, 1)] = 300  # the caller's dict is copied, not kept
        assert select_rule(table, 1, 1) == 153 and table.rule(1, 1).number == 153

    def test_table_builds_its_rules_once(self, monkeypatch):
        table = SelectionTable(radius=1, rules=dict(TABLE_204_240_170.rules))
        monkeypatch.setattr(ca, "make_rule", None)  # any later build would fail
        rules = pca.induced_rule_vector(CONTROLS_204_204_240_170, table)
        assert [r.number for r in rules] == [204, 204, 240, 170]
        assert table.rule(1, 0).number == 240

    @pytest.mark.parametrize("table", [TABLE_51_195_153, TABLE_204_240_170])
    def test_table_pickles_and_copies(self, table):
        for twin in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
            assert twin == table
            assert [twin.rule(a, b) for a, b in table.rules] == [
                table.rule(a, b) for a, b in table.rules]

    def test_tables_hash_as_they_compare(self):
        # hashing used to raise TypeError, since the rules mapping is a mappingproxy
        twin = SelectionTable(radius=1, rules=dict(TABLE_51_195_153.rules))
        assert twin == TABLE_51_195_153 and hash(twin) == hash(TABLE_51_195_153)
        names = {TABLE_51_195_153: "51/195/153", TABLE_204_240_170: "204/240/170"}
        assert names[twin] == "51/195/153" and len(names) == 2

    def test_incomplete_table_rejected(self):
        with pytest.raises(ValueError):
            SelectionTable(radius=1, rules={(0, 0): 51})

    EXTRA_KEY = re.escape("selection table keys must be (0, 0)..(1, 1), "
                          "got [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]")

    @pytest.mark.parametrize("radius,extra,message", [
        (9, {(2, 2): 51}, EXTRA_KEY),
        (1, {(2, 2): 51}, EXTRA_KEY),
        (9, {}, "radius must be in 1..3, got 9"),
        (0, {}, "radius must be in 1..3, got 0"),
        (1, {(1, 1): 300}, re.escape("must be less than 2**8 = 256, got 300")),
    ])
    def test_bad_table_rejected_at_construction(self, radius, extra, message):
        # these used to build, and a bad rule number failed only at its first lookup
        rules = {**TABLE_51_195_153.rules, **extra}
        with pytest.raises(ValueError, match=message):
            SelectionTable(radius=radius, rules=rules)


class TestPcaStep:
    def test_induces_published_reversible_vector(self):
        out = pca_step(
            ca.parse_bits("1011"), CONTROLS_204_204_240_170, TABLE_204_240_170, Boundary.NULL
        )
        assert ca.format_bits(out) == "1000"

    def test_all_zero_controls_are_identity(self):
        rng = np.random.default_rng(3)
        cfg = rng.integers(0, 2, 9, dtype=np.uint8)
        controls = np.zeros((9, 2), dtype=np.uint8)
        out = pca_step(cfg, controls, TABLE_204_240_170, Boundary.CYCLIC)
        assert np.array_equal(out, cfg)

    def test_induces_legacy_vector(self):
        out = pca_step(
            ca.parse_bits("0000"), CONTROLS_51_51_195_153, TABLE_51_195_153, Boundary.NULL
        )
        assert ca.format_bits(out) == "1111"

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pca_step(ca.parse_bits("101"), CONTROLS_51_51_195_153, TABLE_51_195_153, Boundary.NULL)

    @pytest.mark.parametrize("shape", [(4,), (4, 3), (2, 4, 2)])
    def test_induced_vector_rejects_controls_of_the_wrong_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"(cells, 2), got {shape}")):
            pca.induced_rule_vector(np.zeros(shape, np.uint8), TABLE_51_195_153)

    def test_zero_dimensional_state_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(\)"):
            pca_step(np.uint8(1), CONTROLS_51_51_195_153[:1], TABLE_51_195_153, Boundary.NULL)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 16), st.sampled_from([Boundary.NULL, Boundary.CYCLIC]),
           st.randoms(use_true_random=False))
    def test_equals_step_with_induced_vector(self, n, boundary, rnd):
        controls = np.array(
            [(rnd.randrange(2), rnd.randrange(2)) for _ in range(n)], dtype=np.uint8
        )
        cfg = np.array([rnd.randrange(2) for _ in range(n)], dtype=np.uint8)
        induced = pca.induced_rule_vector(controls, TABLE_204_240_170)
        assert np.array_equal(
            pca_step(cfg, controls, TABLE_204_240_170, boundary),
            ca.step(cfg, induced, boundary),
        )

    def test_control_change_is_local(self):
        controls = CONTROLS_204_204_240_170.copy()
        before = pca.induced_rule_vector(controls, TABLE_204_240_170)
        controls[1] = (1, 1)
        after = pca.induced_rule_vector(controls, TABLE_204_240_170)
        changed = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
        assert changed == [1]


class TestControlProgram:
    def test_constant_program(self):
        prog = ControlProgram(CONTROLS_51_51_195_153)
        assert prog.cells == 4
        assert np.array_equal(prog.at(0), prog.at(5))

    def test_stepwise_program(self):
        sig = np.stack([CONTROLS_204_204_240_170, np.zeros((4, 2), np.uint8)])
        prog = ControlProgram(sig)
        cfg = ca.parse_bits("1011")
        # step 0 applies the reversible vector, step 1 the identity
        out = pca.pca_run(cfg, prog, TABLE_204_240_170, Boundary.NULL, 2)
        assert ca.format_bits(out) == "1000"

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            ControlProgram(np.zeros((4, 3), np.uint8))

    @pytest.mark.parametrize("shape", [(0, 4, 2), (3, 0, 2), (0, 2)])
    def test_empty_program_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            ControlProgram(np.zeros(shape, np.uint8))

    @pytest.mark.parametrize("table", [TABLE_51_195_153, TABLE_204_240_170])
    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_run_matches_naive_oracle(self, table, boundary):
        # periods that do not divide the step count, fewer steps than rows, and a constant program
        rng = np.random.default_rng(19)
        for period, steps in ((2, 5), (3, 7), (4, 10), (5, 3), (None, 4)):
            shape = (6, 2) if period is None else (period, 6, 2)
            program = ControlProgram(rng.integers(0, 2, shape, dtype=np.uint8))
            cells = rng.integers(0, 2, 6, dtype=np.uint8)
            expected = cells.tolist()
            for t in range(steps):
                numbers = [select_rule(table, *pair) for pair in program.at(t).tolist()]
                expected = naive_step(expected, numbers, 1, boundary.value)
            got = pca.pca_run(cells, program, table, boundary, steps)
            assert got.tolist() == expected, (period, steps)

    def test_run_builds_each_row_step_once(self, monkeypatch):
        builds, calls, stepper = [], [], ca._stepper

        def counting_stepper(*args):
            builds.append(args)
            step = stepper(*args)

            def counting_step(states):
                calls.append(states)
                return step(states)
            return counting_step

        monkeypatch.setattr(ca, "_stepper", counting_stepper)
        cfg = ca.parse_bits("1011")
        rows = ControlProgram(np.stack([CONTROLS_204_204_240_170, np.zeros((4, 2), np.uint8),
                                        CONTROLS_51_51_195_153]))
        constant = ControlProgram(CONTROLS_204_204_240_170)
        runs = [(rows, 7, 3), (rows, 2, 2), (constant, 200, 1),
                (rows, 0, 1)]  # steps=0 builds row 0 to check the arguments
        for program, steps, built in runs:
            pca.pca_run(cfg, program, TABLE_204_240_170, Boundary.CYCLIC, steps)
            assert (len(builds), len(calls)) == (built, steps), (program.signals.ndim, steps)
            builds.clear()
            calls.clear()
        pca_step(cfg, CONTROLS_204_204_240_170, TABLE_204_240_170, Boundary.NULL)
        assert (len(builds), len(calls)) == (1, 1)

    def test_signals_stay_as_checked(self):
        given = np.array(CONTROLS_204_204_240_170)
        prog = ControlProgram(given)
        cfg = ca.parse_bits("1011")
        before = pca.pca_run(cfg, prog, TABLE_204_240_170, Boundary.CYCLIC, 3)
        with pytest.raises(ValueError, match="read-only"):
            prog.signals[1, 0] = 7
        given[1, 0] = 1  # the caller's array is not the program's, and stays writable
        assert np.array_equal(prog.signals, CONTROLS_204_204_240_170)
        assert np.array_equal(pca.pca_run(cfg, prog, TABLE_204_240_170, Boundary.CYCLIC, 3),
                              before)

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_program_steps_under_its_first_row(self, boundary):
        rng = np.random.default_rng(36)
        prog = ControlProgram(rng.integers(0, 2, (3, 4, 2), dtype=np.uint8))
        assert len({prog.at(t).tobytes() for t in range(3)}) > 1  # the rows vary
        for table in (TABLE_51_195_153, TABLE_204_240_170):
            assert (pca.induced_rule_vector(prog, table)
                    == pca.induced_rule_vector(prog.at(0), table))
            for code in range(16):
                cfg = ca.int_to_state(code, 4)
                assert np.array_equal(pca_step(cfg, prog, table, boundary),
                                      pca.pca_run(cfg, prog, table, boundary, 1))

    def test_zero_steps_checks_arguments(self):
        # with no step to take, all three used to come back unchecked
        program = ControlProgram(CONTROLS_51_51_195_153)

        def run(cfg, boundary=Boundary.NULL):
            return pca.pca_run(cfg, program, TABLE_51_195_153, boundary, 0)

        with pytest.raises(ValueError, match=r"shape \(2, 4\)"):
            run(np.zeros((2, 4), np.uint8))
        with pytest.raises(ValueError, match="controls width 4 != cell count 3"):
            run(ca.parse_bits("101"))
        with pytest.raises(ValueError, match="bogus"):
            run(ca.parse_bits("1011"), "bogus")
        assert ca.format_bits(run(ca.parse_bits("1011"))) == "1011"

    def test_negative_step_count_rejected(self):
        prog = ControlProgram(CONTROLS_51_51_195_153)
        with pytest.raises(ValueError, match="steps must be >= 0, got -3"):
            pca.pca_run(ca.parse_bits("1011"), prog, TABLE_51_195_153, Boundary.NULL, -3)


class TestControlValues:
    @pytest.mark.parametrize("bad", [2, 255, -1])
    def test_non_bit_control_names_its_cell(self, bad):
        controls = np.array([[0, 1], [1, 1], [bad, 0], [0, 0]])
        pattern = rf"cell 2 must be 0 or 1, got \[{bad}, 0\]"
        with pytest.raises(ValueError, match=pattern):
            pca.induced_rule_vector(controls, TABLE_51_195_153)
        with pytest.raises(ValueError, match=pattern):
            pca.pca_step(ca.parse_bits("1011"), controls, TABLE_51_195_153, Boundary.NULL)

    @pytest.mark.parametrize("bad", [2, 256, -1, 0.5])
    def test_non_bit_program_rejected_before_the_cast(self, bad):
        # a uint8 cast would wrap 256 to 0 and truncate 0.5 to 0, both valid controls
        sig = np.zeros((2, 4, 2))
        sig[1, 3, 1] = bad
        with pytest.raises(ValueError, match=rf"step 1, cell 3 must be 0 or 1, got \[0.0, {bad}"):
            ControlProgram(sig)
        with pytest.raises(ValueError, match=rf"cell 3 must be 0 or 1, got \[0.0, {bad}"):
            ControlProgram(sig[1])


class TestCycleCipher:
    def test_encipher_walks_half_the_orbit(self):
        out = cycle_encipher(ca.parse_bits("0000"), LEGACY_VECTOR, Boundary.NULL)
        assert ca.format_bits(out) == "0010"
        out = cycle_encipher(ca.parse_bits("1111"), LEGACY_VECTOR, Boundary.NULL)
        assert ca.format_bits(out) == "1101"

    def test_decipher_completes_the_orbit(self):
        out = cycle_decipher(ca.parse_bits("0010"), LEGACY_VECTOR, Boundary.NULL)
        assert ca.format_bits(out) == "0000"
        out = cycle_decipher(ca.parse_bits("1101"), LEGACY_VECTOR, Boundary.NULL)
        assert ca.format_bits(out) == "1111"

    def test_round_trip_on_all_sixteen_states(self):
        for code in range(16):
            cfg = ca.int_to_state(code, 4)
            enc = cycle_encipher(cfg, LEGACY_VECTOR, Boundary.NULL)
            dec = cycle_decipher(enc, LEGACY_VECTOR, Boundary.NULL)
            assert np.array_equal(dec, cfg)
            assert not np.array_equal(enc, cfg)  # every orbit here has length 4

    def test_round_trip_steps_each_orbit_once(self, monkeypatch):
        builds, calls, stepper = [], [], ca._stepper

        def counting_stepper(*args):
            builds.append(args)
            step = stepper(*args)

            def counting_step(states):
                calls.append(states)
                return step(states)
            return counting_step

        monkeypatch.setattr(ca, "_stepper", counting_stepper)
        cfg = ca.parse_bits("0000")
        enc = cycle_encipher(cfg, LEGACY_VECTOR, Boundary.NULL)
        assert len(builds) == 1  # the walk builds its step once
        assert np.array_equal(cycle_decipher(enc, LEGACY_VECTOR, Boundary.NULL), cfg)
        assert len(builds) == 2
        assert len(calls) == 2 * 4  # one walk of the length-4 orbit per call

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_walks_match_naive_oracle(self, radius, boundary):
        # iterate and the half-turn walk build their step once; widths 1..2r+2 wrap the
        # ring once or more, under a per-cell vector and a uniform rule
        rng = np.random.default_rng(radius)
        even = 0
        for n in range(1, 2 * radius + 3):
            numbers = [int.from_bytes(rng.bytes(1 << (2 * radius - 2)), "little")
                       for _ in range(n)]
            for nums in (numbers, numbers[:1]):
                rules = [ca.make_rule(radius, m) for m in nums]
                states = [ca.int_to_state(code, n).tolist() for code in range(1 << n)]
                succ = [ca.state_to_int(np.array(naive_step(c, nums, radius, boundary.value),
                                                 np.uint8)) for c in states]
                for code, cells in enumerate(states):
                    k, far = code % 7, code
                    for _ in range(k):
                        far = succ[far]
                    got = ca.iterate(np.array(cells, np.uint8), rules, boundary, k)
                    assert ca.state_to_int(got) == far, (n, len(nums), code, k)
                    orbit = [code]
                    while succ[orbit[-1]] not in orbit:
                        orbit.append(succ[orbit[-1]])
                    if succ[orbit[-1]] != code or len(orbit) % 2:
                        with pytest.raises(UnsupportedOrbitError):
                            cycle_encipher(np.array(cells, np.uint8), rules, boundary)
                        continue
                    even += 1
                    got = cycle_encipher(np.array(cells, np.uint8), rules, boundary)
                    assert ca.state_to_int(got) == orbit[len(orbit) // 2], (n, len(nums), code)
        assert even

    def test_transient_state_rejected(self):
        rules = [ca.make_rule(1, n) for n in (204, 204, 240, 170)]
        with pytest.raises(UnsupportedOrbitError):
            cycle_encipher(ca.parse_bits("1011"), rules, Boundary.NULL)

    def test_odd_cycle_rejected(self):
        # 1000 is a fixed point of <204,204,240,170> under null boundary
        rules = [ca.make_rule(1, n) for n in (204, 204, 240, 170)]
        with pytest.raises(UnsupportedOrbitError, match="odd"):
            cycle_encipher(ca.parse_bits("1000"), rules, Boundary.NULL)

    def test_period_two_orbit(self):
        rule = ca.make_rule(1, 51)  # pairs every state with its complement
        cfg = ca.parse_bits("0110")
        enc = cycle_encipher(cfg, rule, Boundary.CYCLIC)
        assert ca.format_bits(enc) == "1001"
        assert np.array_equal(cycle_decipher(enc, rule, Boundary.CYCLIC), cfg)

    def test_oversized_configuration_refused(self):
        with pytest.raises(ValueError, match="20"):
            cycle_encipher(np.zeros(24, np.uint8), LEGACY_VECTOR[:1], Boundary.CYCLIC)

    @pytest.mark.parametrize("bad", [256, 2, -1])
    def test_cell_outside_zero_one_rejected(self, bad):
        # a uint8 cast would wrap 256 to 0 and walk a different orbit
        state = np.array([0, 1, bad, 0])
        for call in (lambda: cycle_encipher(state, LEGACY_VECTOR, Boundary.NULL),
                     lambda: cycle_decipher(state, LEGACY_VECTOR, Boundary.NULL),
                     lambda: pca.pca_step(state, np.zeros((4, 2)), TABLE_51_195_153,
                                          Boundary.NULL),
                     lambda: pca.pca_run(state, ControlProgram(np.zeros((4, 2))),
                                         TABLE_51_195_153, Boundary.NULL, 0)):
            with pytest.raises(ValueError, match=f"cell 2 must be 0 or 1, got {bad}"):
                call()

    @pytest.mark.parametrize("walk", [cycle_encipher, cycle_decipher])
    def test_zero_dimensional_state_rejected(self, walk):
        with pytest.raises(ValueError, match=r"shape \(\)"):
            walk(np.uint8(1), LEGACY_VECTOR[:1], Boundary.CYCLIC)
