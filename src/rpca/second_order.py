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
XNOR's complement, then an XOR with the previous row.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .ca import MAX_RADIUS, Boundary, Rule, neighborhood_index


class SecondOrderState(NamedTuple):
    """Ordered pair of configurations (q_{t-1}, q_t); shapes (..., n)."""

    prev: np.ndarray
    curr: np.ndarray


def _checked(state: SecondOrderState) -> SecondOrderState:
    prev = np.asarray(state.prev, dtype=np.uint8)
    curr = np.asarray(state.curr, dtype=np.uint8)
    if prev.shape != curr.shape:
        raise ValueError(f"prev/curr shapes differ: {prev.shape} vs {curr.shape}")
    return SecondOrderState(prev, curr)


def _step_pair(prev: np.ndarray, curr: np.ndarray, rule: Rule, boundary: Boundary):
    idx = neighborhood_index(curr, rule.radius, boundary)
    new = rule.table[idx]  # fresh array, safe to update in place
    np.bitwise_xor(new, prev, out=new)
    np.bitwise_xor(new, 1, out=new)  # rule output XNOR previous state
    return curr, new


def so_step(state: SecondOrderState, rule: Rule, boundary: Boundary) -> SecondOrderState:
    """One second-order update; supports batches along leading axes."""
    prev, curr = _checked(state)
    return SecondOrderState(*_step_pair(prev, curr, rule, boundary))


def so_iterate_forward(
    state: SecondOrderState, rule: Rule, boundary: Boundary, steps: int
) -> SecondOrderState:
    """Apply so_step `steps` times (steps >= 1)."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    prev, curr = _checked(state)
    for _ in range(steps):
        prev, curr = _step_pair(prev, curr, rule, boundary)
    return SecondOrderState(prev, curr)


def so_iterate_backward(
    state: SecondOrderState, rule: Rule, boundary: Boundary, steps: int
) -> SecondOrderState:
    """Undo `steps` forward updates: forward-iterate the swapped pair, swap back."""
    prev, curr = _checked(state)
    back = so_iterate_forward(SecondOrderState(curr, prev), rule, boundary, steps)
    return SecondOrderState(back.curr, back.prev)


def packed_rule_table(rule: Rule) -> np.ndarray:
    """Read-only uint8[2^(8+2r)] table: window value -> NOT of the 8 rule outputs.

    Built from a 2^(4+2r)-entry nibble table (4 output cells per entry): the
    high nibble of a window's byte reads the window's top 4+2r bits, the low
    nibble its bottom 4+2r bits, and the two share the middle 2r bits.
    """
    r = rule.radius
    windows = np.arange(1 << (4 + 2 * r))
    mask = (1 << (2 * r + 1)) - 1
    nibble = np.full(windows.size, 0xF, dtype=np.uint8)  # complement for the XNOR
    for k in range(4):
        nibble ^= rule.table[(windows >> (3 - k)) & mask] << (3 - k)
    mid = 1 << (2 * r)
    table = (nibble.reshape(16, mid)[:, :, None] << 4) | nibble.reshape(mid, 16)[None, :, :]
    table = table.ravel()
    table.setflags(write=False)
    return table


def _window_index(curr: np.ndarray, radius: int) -> np.ndarray:
    # ext[..., j] is byte j-1 (cyclic), so the big-endian 16-bit word starting
    # there holds (byte j-1, byte j), and ext[..., j+2] is byte j+1. The word
    # view needs ext in C order, which np.concatenate alone does not promise.
    ext = np.empty(curr.shape[:-1] + (curr.shape[-1] + 2,), dtype=np.uint8)
    np.concatenate([curr[..., -1:], curr, curr[..., :1]], axis=-1, out=ext)
    pairs = np.ndarray(curr.shape, ">u2", ext, strides=ext.strides[:-1] + (1,))
    idx = np.left_shift(pairs, radius, dtype=np.uint16)
    idx |= ext[..., 2:] >> (8 - radius)
    idx &= (1 << (8 + 2 * radius)) - 1
    return idx


def so_iterate_packed(
    prev: np.ndarray, curr: np.ndarray, table: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Apply `steps` cyclic updates (steps >= 1) to rows of packed bytes.

    `prev` and `curr` are (..., n_bytes) uint8 arrays and `table` comes from
    packed_rule_table, whose length fixes the radius. Returns the new
    (prev, curr). Calling it on the swapped pair (curr, prev) runs the
    trajectory backwards, returning the earlier pair swapped.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    prev = np.asarray(prev, dtype=np.uint8)
    curr = np.asarray(curr, dtype=np.uint8)
    if prev.shape != curr.shape:
        raise ValueError(f"prev/curr shapes differ: {prev.shape} vs {curr.shape}")
    radius = (table.size.bit_length() - 9) // 2
    if not 1 <= radius <= MAX_RADIUS or table.shape != (1 << (8 + 2 * radius),):
        raise ValueError(f"not a packed rule table: shape {table.shape}")
    for _ in range(steps):
        new = table[_window_index(curr, radius)]
        new ^= prev
        prev, curr = curr, new
    return prev, curr
