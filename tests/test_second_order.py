import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpca import ca, second_order
from rpca.ca import Boundary
from rpca.second_order import (
    SecondOrderState,
    packed_rule_table,
    so_iterate_backward,
    so_iterate_forward,
    so_iterate_packed,
    so_step,
)

from helpers import bits_of_bytes, bytes_of_bits, naive_so_run, naive_so_step


def state(prev, curr):
    return SecondOrderState(ca.parse_bits(prev), ca.parse_bits(curr))


def as_text(s):
    return ca.format_bits(s.prev), ca.format_bits(s.curr)


RULE_204 = ca.make_rule(1, 204)


class TestSoStep:
    def test_zero_prev_selects_complement(self):
        out = so_step(state("0000", "1010"), RULE_204, Boundary.CYCLIC)
        assert as_text(out) == ("1010", "0101")

    def test_all_one_prev_selects_given_rule(self):
        for curr in ("0000", "1010", "1111", "0110"):
            out = so_step(state("1111", curr), RULE_204, Boundary.CYCLIC)
            assert as_text(out) == (curr, curr)

    def test_reverse_direction_of_first_example(self):
        out = so_step(state("0101", "1010"), RULE_204, Boundary.CYCLIC)
        assert as_text(out) == ("1010", "0000")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            so_step(SecondOrderState(ca.parse_bits("101"), ca.parse_bits("1010")),
                    RULE_204, Boundary.CYCLIC)

    @pytest.mark.parametrize("bad", [2, 256, -1])
    @pytest.mark.parametrize("half", ["prev", "curr"])
    def test_cell_outside_zero_one_rejected_in_either_half(self, half, bad):
        # a previous cell of 2 came back as 2; a current one raised a bare IndexError
        pair = {"prev": ca.parse_bits("0110"), "curr": ca.parse_bits("1010")}
        pair[half] = np.array([0, 1, bad, 0])
        pair = SecondOrderState(**pair)
        for call in (lambda: so_step(pair, RULE_204, Boundary.CYCLIC),
                     lambda: so_iterate_forward(pair, RULE_204, Boundary.NULL, 3),
                     lambda: so_iterate_backward(pair, RULE_204, Boundary.NULL, 3)):
            with pytest.raises(ValueError, match=f"cell 2 must be 0 or 1, got {bad}"):
                call()

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 20),
        st.sampled_from([Boundary.NULL, Boundary.CYCLIC]),
        st.randoms(use_true_random=False),
    )
    def test_matches_selection_oracle(self, radius, n, boundary, rnd):
        # the XNOR formulation must agree with literal rule/complement selection
        number = rnd.randrange(1 << (1 << (2 * radius + 1)))
        prev = [rnd.randrange(2) for _ in range(n)]
        curr = [rnd.randrange(2) for _ in range(n)]
        _, expected = naive_so_step(prev, curr, number, radius, boundary.value)
        out = so_step(
            SecondOrderState(np.array(prev, np.uint8), np.array(curr, np.uint8)),
            ca.make_rule(radius, number),
            boundary,
        )
        assert list(out.curr) == expected
        assert list(out.prev) == curr

    def test_xnor_identity(self):
        rng = np.random.default_rng(5)
        rule = ca.make_rule(2, 0xDEADBEEF)
        prev = rng.integers(0, 2, 40, dtype=np.uint8)
        curr = rng.integers(0, 2, 40, dtype=np.uint8)
        out = so_step(SecondOrderState(prev, curr), rule, Boundary.CYCLIC)
        plain = ca.step(curr, rule, Boundary.CYCLIC)
        assert np.array_equal(out.curr, 1 - (plain ^ prev))


class TestIterateForward:
    def test_one_step_equals_so_step(self):
        s = state("0011", "0101")
        a = so_iterate_forward(s, RULE_204, Boundary.CYCLIC, 1)
        b = so_step(s, RULE_204, Boundary.CYCLIC)
        assert as_text(a) == as_text(b)

    def test_two_steps_from_pinned_start(self):
        # frozen from the straight-line oracle: two updates of (0000, 1010)
        prev, curr, _ = naive_so_run([0, 0, 0, 0], [1, 0, 1, 0], 204, 1, "cyclic", 2)
        assert (prev, curr) == ([0, 1, 0, 1], [0, 0, 0, 0])
        out = so_iterate_forward(state("0000", "1010"), RULE_204, Boundary.CYCLIC, 2)
        assert as_text(out) == ("0101", "0000")

    def test_rule204_orbit_from_equal_pair_has_period_three(self):
        # (x, x) -> (x, 1) -> (1, x) -> (x, x) under the identity rule
        s = state("0110", "0110")
        seq = [s]
        for _ in range(3):
            seq.append(so_step(seq[-1], RULE_204, Boundary.CYCLIC))
        assert as_text(seq[1]) == ("0110", "1111")
        assert as_text(seq[2]) == ("1111", "0110")
        assert as_text(seq[3]) == as_text(seq[0])

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            so_iterate_forward(state("0", "0"), RULE_204, Boundary.CYCLIC, 0)


class TestIterateBackward:
    def test_single_step_reverses_so_step_example(self):
        out = so_iterate_backward(state("1010", "0101"), RULE_204, Boundary.CYCLIC, 1)
        assert as_text(out) == ("0000", "1010")

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3),
        st.sampled_from([4, 8, 64, 128]),
        st.integers(1, 64),
        st.sampled_from([Boundary.NULL, Boundary.CYCLIC]),
        st.randoms(use_true_random=False),
    )
    def test_round_trip_identity(self, radius, n, steps, boundary, rnd):
        number = rnd.randrange(1 << (1 << (2 * radius + 1)))
        rule = ca.make_rule(radius, number)
        rng = np.random.default_rng(rnd.randrange(2**32))
        s = SecondOrderState(
            rng.integers(0, 2, n, dtype=np.uint8),
            rng.integers(0, 2, n, dtype=np.uint8),
        )
        fwd = so_iterate_forward(s, rule, boundary, steps)
        back = so_iterate_backward(fwd, rule, boundary, steps)
        assert np.array_equal(back.prev, s.prev)
        assert np.array_equal(back.curr, s.curr)

    def test_three_step_round_trip_on_64_cells(self):
        rng = np.random.default_rng(99)
        rule = ca.make_rule(3, int.from_bytes(rng.bytes(16), "big"))
        s = SecondOrderState(
            rng.integers(0, 2, 64, dtype=np.uint8),
            rng.integers(0, 2, 64, dtype=np.uint8),
        )
        fwd = so_iterate_forward(s, rule, Boundary.CYCLIC, 3)
        back = so_iterate_backward(fwd, rule, Boundary.CYCLIC, 3)
        assert np.array_equal(back.prev, s.prev)
        assert np.array_equal(back.curr, s.curr)


class TestBatching:
    def test_batched_rows_match_individual_runs(self):
        rng = np.random.default_rng(17)
        rule = ca.make_rule(3, int.from_bytes(rng.bytes(16), "big"))
        prev = rng.integers(0, 2, (5, 32), dtype=np.uint8)
        curr = rng.integers(0, 2, (5, 32), dtype=np.uint8)
        batch = so_iterate_forward(SecondOrderState(prev, curr), rule, Boundary.CYCLIC, 6)
        for k in range(5):
            single = so_iterate_forward(
                SecondOrderState(prev[k], curr[k]), rule, Boundary.CYCLIC, 6
            )
            assert np.array_equal(batch.prev[k], single.prev)
            assert np.array_equal(batch.curr[k], single.curr)


def random_rule(radius, rnd):
    return ca.make_rule(radius, rnd.randrange(1 << (1 << (2 * radius + 1))))


class TestIteratePacked:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3),
        st.sampled_from([1, 2, 3, 8, 16, 32]),
        st.sampled_from([(), (1,), (3,), (2, 3)]),
        st.integers(1, 64),
        st.sampled_from(["C", "F", "strided", "readonly", "transposed"]),
        st.randoms(use_true_random=False),
    )
    def test_matches_per_cell_iteration(self, radius, n_bytes, batch, steps, layout, rnd):
        rule = random_rule(radius, rnd)
        rng = np.random.default_rng(rnd.randrange(2**32))
        prev, curr = rng.integers(0, 256, (2,) + batch + (2 * n_bytes,), dtype=np.uint8)
        if layout == "strided":
            prev, curr = prev[..., ::2], curr[..., ::2]
        elif layout == "readonly":  # np.frombuffer rows, as the cipher passes its rids
            prev, curr = (
                np.frombuffer(x[..., :n_bytes].tobytes(), np.uint8).reshape(batch + (n_bytes,))
                for x in (prev, curr)
            )
        elif layout == "transposed":  # C-ordered byte-position rows passed as .T, like y.T
            prev, curr = (np.ascontiguousarray(x[..., :n_bytes].T).T for x in (prev, curr))
        else:
            prev = np.array(prev[..., :n_bytes], order=layout)
            curr = np.array(curr[..., :n_bytes], order=layout)
        before = prev.copy(), curr.copy()
        p, c = so_iterate_packed(prev, curr, packed_rule_table(rule), steps)
        assert np.array_equal(prev, before[0]) and np.array_equal(curr, before[1])
        cells = SecondOrderState(np.unpackbits(prev, axis=-1), np.unpackbits(curr, axis=-1))
        ref = so_iterate_forward(cells, rule, Boundary.CYCLIC, steps)
        assert np.array_equal(p, np.packbits(ref.prev, axis=-1))
        assert np.array_equal(c, np.packbits(ref.curr, axis=-1))

    @pytest.mark.parametrize("steps", [1, 2, 5])
    @pytest.mark.parametrize("n_bytes", [1, 2, 3, 8, 16])
    def test_blocks_across_chunk_edges_match_per_cell_iteration(self, monkeypatch, n_bytes, steps):
        # With _CHUNK = 7 the kernel steps max(1, 7 // n_bytes) configurations
        # per block, so these batches end just below, at and just above a
        # block edge; the default chunk needs far more bytes than any other
        # test here passes.
        monkeypatch.setattr(second_order, "_CHUNK", 7)
        width = max(1, 7 // n_bytes)
        rng = np.random.default_rng(n_bytes)
        for radius in (1, 2, 3):
            rule = random_rule(radius, random.Random(n_bytes))
            table = packed_rule_table(rule)
            for m in (width - 1, width, width + 1, 3 * width - 1, 3 * width, 3 * width + 1):
                if m == 0:
                    continue
                prev, curr = rng.integers(0, 256, (2, n_bytes, m), dtype=np.uint8)
                p, c = so_iterate_packed(prev.T, curr.T, table, steps)
                cells = SecondOrderState(*(np.unpackbits(x.T, axis=-1) for x in (prev, curr)))
                ref = so_iterate_forward(cells, rule, Boundary.CYCLIC, steps)
                assert np.array_equal(p, np.packbits(ref.prev, axis=-1)), m
                assert np.array_equal(c, np.packbits(ref.curr, axis=-1)), m

    @pytest.mark.parametrize("steps", [1, 32])
    @pytest.mark.parametrize("m", [1, 4097])
    def test_aliased_inputs_step_as_a_copy_and_stay_unwritten(self, m, steps):
        # 4,097 rows of 16 bytes take three blocks at the default _CHUNK, the last one row
        table = packed_rule_table(random_rule(3, random.Random(m)))
        a = np.random.default_rng(m).integers(0, 256, (m, 16), dtype=np.uint8)
        before = a.copy()
        got = so_iterate_packed(a, a, table, steps)
        want = so_iterate_packed(a, a.copy(), table, steps)
        assert np.array_equal(a, before)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3),
        st.sampled_from([1, 2, 3, 16]),
        st.integers(1, 64),
        st.randoms(use_true_random=False),
    )
    def test_swapped_pair_undoes_the_forward_run(self, radius, n_bytes, steps, rnd):
        table = packed_rule_table(random_rule(radius, rnd))
        rng = np.random.default_rng(rnd.randrange(2**32))
        prev = rng.integers(0, 256, (4, n_bytes), dtype=np.uint8)
        curr = rng.integers(0, 256, (4, n_bytes), dtype=np.uint8)
        p, c = so_iterate_packed(prev, curr, table, steps)
        back_prev, back_curr = so_iterate_packed(c, p, table, steps)
        assert np.array_equal(back_prev, curr)
        assert np.array_equal(back_curr, prev)

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_every_table_entry_matches_the_oracle(self, radius):
        # with prev all 0 the new byte is the table entry itself; the middle
        # 8 cells of a window have their whole neighborhood inside it. The
        # kernel reads window (left r bits, byte, right r bits) at
        # left << (16 - r) | byte << r | right, and the entry is the new
        # byte, shifted up by the radius as the kernel holds its bytes
        rule = random_rule(radius, random.Random(radius))
        table = packed_rule_table(rule)
        width = 8 + 2 * radius
        assert table.shape == (1 << radius, 1 << (16 - radius)) and table.dtype == np.uint16
        assert not table.flags.writeable
        flat = table.reshape(-1)
        for window in range(1 << width):
            cells = bits_of_bytes(window.to_bytes(3, "big"))[24 - width :]
            _, new = naive_so_step([0] * width, cells, rule.number, radius, "null")
            index = (window >> (8 + radius)) << (16 - radius) | window & ((1 << (8 + radius)) - 1)
            assert flat[index] == bytes_of_bits(new[radius : radius + 8])[0] << radius, window

    @pytest.mark.parametrize("n_bytes", [1, 2, 16])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_gap_entries_are_zero_and_never_read(self, radius, n_bytes):
        # a window's 8 - 2r bits between the byte and the left field are 0,
        # so the columns from 2^(8+r) on are never gathered
        rule = random_rule(radius, random.Random(10 * radius + n_bytes))
        table = packed_rule_table(rule)
        used = 1 << (8 + radius)
        assert not table[:, used:].any()
        poisoned = table.copy()
        poisoned[:, used:] = 0xFFFF
        rng = np.random.default_rng(n_bytes)
        prev, curr = rng.integers(0, 256, (2, 5, n_bytes), dtype=np.uint8)
        for steps in (1, 2, 7):
            got = so_iterate_packed(prev, curr, poisoned, steps)
            want = so_iterate_packed(prev, curr, table, steps)
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), steps

    def test_zero_steps_rejected(self):
        table = packed_rule_table(RULE_204)
        with pytest.raises(ValueError, match="steps must be >= 1"):
            so_iterate_packed(np.zeros(2, np.uint8), np.zeros(2, np.uint8), table, 0)

    @pytest.mark.parametrize("bad,dtype", [(256, np.int64), (-1, np.int64), (300, np.uint16),
                                           (-1, np.int8)])
    @pytest.mark.parametrize("half", ["prev", "curr"])
    def test_byte_outside_0_255_rejected_in_either_half(self, half, bad, dtype):
        # a uint8 cast stepped 256 as 0 and -1 as 255
        pair = {"prev": np.zeros((2, 3), dtype), "curr": np.zeros((2, 3), dtype)}
        pair[half][1, 2] = bad
        table = packed_rule_table(RULE_204)
        for at, rows in (("(1, 2)", slice(None)), ("2", 1)):  # a batch, then one row
            message = re.escape(f"byte {at} must be in 0..255, got {bad}")
            with pytest.raises(ValueError, match=message):
                so_iterate_packed(pair["prev"][rows], pair["curr"][rows], table, 1)

    @pytest.mark.parametrize("half", ["prev", "curr"])
    def test_non_integer_byte_rejected_in_either_half(self, half):
        # a uint8 cast stepped [[1.5, 2.7]] as [[1, 2]]
        pair = {"prev": np.zeros((1, 2)), "curr": np.zeros((1, 2))}
        pair[half][0] = [1.5, 2.7]
        with pytest.raises(ValueError, match=re.escape("byte (0, 0) must be in 0..255, got 1.5")):
            so_iterate_packed(pair["prev"], pair["curr"], packed_rule_table(RULE_204), 1)

    @pytest.mark.parametrize("form", ["flat", "uint8", "short", "long", "transposed"])
    def test_table_not_in_the_kernel_form_rejected(self, form):
        # the old flat 2^(8+2r) form has no room for the windows' left field,
        # take(out=uint16) would cast uint8 entries unshifted, and a wrong
        # shape would be read as another radius
        table = packed_rule_table(RULE_204)
        table = {"flat": table[:, : 1 << 9].ravel(), "uint8": (table >> 1).astype(np.uint8),
                 "short": table[:1], "long": np.concatenate([table, table]),
                 "transposed": table.T}[form]
        message = f"not a packed rule table: {table.dtype} shape {table.shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            so_iterate_packed(np.zeros(2, np.uint8), np.ones(2, np.uint8), table, 1)

    def test_integer_rows_in_range_step_as_bytes(self):
        table = packed_rule_table(ca.make_rule(2, 0x9A3C5F01))
        rng = np.random.default_rng(7)
        prev, curr = rng.integers(0, 256, (2, 5, 4))
        want = so_iterate_packed(prev.astype(np.uint8), curr.astype(np.uint8), table, 3)
        got = so_iterate_packed(prev, curr, table, 3)
        assert all(np.array_equal(g, w) and g.dtype == np.uint8 for g, w in zip(got, want))

    def test_shape_mismatch_rejected(self):
        table = packed_rule_table(RULE_204)
        with pytest.raises(ValueError, match="shapes differ"):
            so_iterate_packed(np.zeros(2, np.uint8), np.zeros(3, np.uint8), table, 1)
