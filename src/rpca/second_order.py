"""Second-order cellular automata: reversible by construction.

The update of a cell reads its current neighborhood plus its own state one
step further back. A cell whose previous state was 1 applies the given rule;
a cell whose previous state was 0 applies the complement rule. Expanded, the
new value is rule(neighborhood) XNOR previous, which makes every rule (not
just the six reversible elementary ones) invertible: running the same rule on
the swapped configuration pair walks the trajectory backwards.

Two representations share that rule. The per-cell functions (so_step,
so_iterate_*) take one uint8 per cell and serve any width, either boundary
and any radius. so_iterate_packed steps cyclic rows of packed bytes, cell 0
being the MSB of byte 0 as np.unpackbits orders it: with radius r each output
byte depends on an (8+2r)-bit window (the low r bits of the byte to its left,
the byte, the high r bits of the byte to its right), so one step is a single
gather from the rule's packed_rule_table, whose entries already hold the
XNOR's complement, then an XOR with the previous row. Byte positions are
rows, and the kernel holds each byte r bits up in uint16, as the table holds
its entries: a window is then left << (16 - 2r) | byte | right >> 8, whose
uint16 wrap drops all but the left byte's low r bits. A step is seven numpy
calls on operands built once per block, so a few blocks cost little more
than the calls themselves.
"""
from __future__ import annotations

from itertools import cycle, islice
from typing import NamedTuple

import numpy as np

from .ca import MAX_RADIUS, Boundary, Rule, _stepper, _window_table, as_cells, as_count


class SecondOrderState(NamedTuple):
    """Ordered pair of configurations (q_{t-1}, q_t); shapes (..., n)."""

    prev: np.ndarray
    curr: np.ndarray


def so_step(state: SecondOrderState, rule: Rule, boundary: Boundary) -> SecondOrderState:
    """One second-order update; supports batches along leading axes."""
    return so_iterate_forward(state, rule, boundary, 1)


def so_iterate_forward(
    state: SecondOrderState, rule: Rule, boundary: Boundary, steps: int
) -> SecondOrderState:
    """Apply `steps` second-order updates (steps >= 1)."""
    steps = as_count(steps, "steps", 1)
    prev, curr = (as_cells(half) for half in state)
    if prev.shape != curr.shape:
        raise ValueError(f"prev/curr shapes differ: {prev.shape} vs {curr.shape}")
    step = _stepper(rule, boundary, curr.shape)
    for _ in range(steps):
        new = step(curr)  # fresh array, safe to update in place
        np.equal(new, prev, out=new)  # rule output XNOR previous state
        prev, curr = curr, new
    return SecondOrderState(prev, curr)


def so_iterate_backward(
    state: SecondOrderState, rule: Rule, boundary: Boundary, steps: int
) -> SecondOrderState:
    """Undo `steps` forward updates: forward-iterate the swapped pair, swap back."""
    back = so_iterate_forward(SecondOrderState(state.curr, state.prev), rule, boundary, steps)
    return SecondOrderState(back.curr, back.prev)


def packed_rule_table(rule: Rule) -> np.ndarray:
    """Read-only uint16 (2^r, 2^(16-r)) table in so_iterate_packed's form:
    window value -> NOT of the 8 rule outputs, shifted up by r as the kernel
    holds its bytes. Row: the left byte's low r bits. Column: byte << r | the
    right byte's high r bits. Columns from 2^(8+r) on set one of the 8 - 2r gap
    bits between the byte and the left field, which a window never sets; they
    hold 0 and are never read.

    Built from the 2^(4+2r)-entry ca._window_table of 4 cells, complemented: the
    high nibble of a window's byte reads the window's top 4+2r bits, the low
    nibble its bottom 4+2r bits, and the two share the middle 2r bits. So each
    high-nibble entry is repeated over the window's low 4 bits and ORed with
    the low-nibble entry of its bottom 4+2r bits.
    """
    r = rule.radius
    nibble = (_window_table([rule] * 4) ^ 0xF).astype(np.uint16) << r
    table = np.zeros((1 << r, 1 << (16 - r)), np.uint16)
    used = table[:, : 1 << (8 + r)].reshape(1 << r, 16 >> r, -1)
    np.bitwise_or(np.repeat(nibble << 4, 16).reshape(used.shape), nibble, out=used)
    table.setflags(write=False)
    return table


# Window indices per block in so_iterate_packed: about 18 bytes each, so a
# block's state and scratch (about 0.6 MB) stay in a 2 MiB L2 for all its steps.
_CHUNK = 32768
_SHIFTS = [np.array(k, np.uint16) for k in range(15)]  # 0-d: cheaper than ints


def so_iterate_packed(
    prev: np.ndarray, curr: np.ndarray, table: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Apply `steps` cyclic updates (steps >= 1) to rows of packed bytes.

    `prev` and `curr` are (..., n_bytes) uint8 arrays and `table` comes from
    packed_rule_table, whose shape fixes the radius. Returns the new
    (prev, curr). Calling it on the swapped pair (curr, prev) runs the
    trajectory backwards, returning the earlier pair swapped.

    Row j + 1 of an (n_bytes + 2, w) uint16 buffer holds byte j of w
    configurations, shifted up by r, and rows 0 and n_bytes + 1 mirror the
    cyclic wrap. The cipher passes block-major (m, n_bytes) rows, which each
    block's load transposes. Each block builds, for each buffer, the views a
    step reads and writes while that buffer holds the newer configuration, and
    the ufuncs and the table's take are bound once per call, so a step is
    seven calls with no view or keyword to build.
    """
    steps = as_count(steps, "steps", 1)
    prev, curr = np.asarray(prev), np.asarray(curr)
    if prev.shape != curr.shape or not prev.ndim or not prev.shape[-1]:
        raise ValueError(f"prev/curr shapes differ or hold no bytes: {prev.shape} vs {curr.shape}")
    for half in (prev, curr):  # a uint8 cast would wrap 256 to 0 and -1 to 255, and cut 1.5 to 1
        if half.dtype != np.uint8:
            if len(bad := np.argwhere((half < 0) | (half > 255) | (half % 1 != 0))):
                at = tuple(bad[0].tolist())
                raise ValueError(f"byte {at[0] if len(at) == 1 else at} must be in 0..255, "
                                 f"got {half[at]}")
    prev, curr = prev.astype(np.uint8, copy=False), curr.astype(np.uint8, copy=False)
    radius = (table.shape[0] if table.ndim == 2 else 0).bit_length() - 1
    if (not 1 <= radius <= MAX_RADIUS or table.shape != (1 << radius, 1 << (16 - radius))
            or table.dtype != np.uint16):
        raise ValueError(f"not a packed rule table: {table.dtype} shape {table.shape}")
    r, up, eight = _SHIFTS[radius], _SHIFTS[16 - 2 * radius], _SHIFTS[8]
    shl, shr, bor, bxor = np.left_shift, np.right_shift, np.bitwise_or, np.bitwise_xor
    copyto, take = np.copyto, table.reshape(-1).take
    n, m = prev.shape[-1], prev.size // prev.shape[-1]
    rows = prev.reshape(m, n).T, curr.reshape(m, n).T
    out = np.empty((2, n, m), np.uint8)
    width = max(1, min(m, _CHUNK // n))
    for a in range(0, m, width):
        w = min(width, m - a)
        state = np.empty((2, n + 2, w), np.uint16)
        state[0, 1:-1], state[1, 1:-1] = rows[0][:, a : a + w], rows[1][:, a : a + w]
        shl(state, r, state)  # same-dtype and in place: a uint8 operand costs more
        idx, got = np.empty((2, n * w), np.uint16)
        # For each buffer, curr's first, the operands of a step it holds the
        # newer configuration for: its wrap rows' target and source, its above,
        # middle and below windows, and the other buffer's middle to update.
        operands, flat = [], state.reshape(2, -1)
        for new, new_flat, old_flat in ((state[1], flat[1], flat[0]), (state[0], flat[0], flat[1])):
            operands.append((new[:: n + 1], new[n : 0 : 1 - n] if n > 1 else new[1:2],
                             new_flat[: n * w], new_flat[w:-w], new_flat[2 * w :], old_flat[w:-w]))
        for edges, wrap, above, middle, below, older in islice(cycle(operands), steps):
            copyto(edges, wrap)
            # window of bytes held << r: left << (16 - 2r) | byte | right >> 8
            shl(above, up, idx)
            bor(idx, middle, idx)
            shr(below, eight, got)
            bor(idx, got, idx)
            take(idx, None, got, "clip")
            bxor(older, got, older)
        shr(state, r, state)
        # an odd step count leaves the newer configuration in buffer 0
        out[:, :, a : a + w] = (state[::-1] if steps % 2 else state)[:, 1:-1]
    return out[0].T.reshape(prev.shape), out[1].T.reshape(prev.shape)
