"""One-dimensional binary cellular automata.

Configurations are 1-D numpy uint8 arrays of 0/1 cells, index 0 being the
leftmost cell. Rules are radius-r lookup tables in Wolfram numbering: the
neighborhood pattern is read left neighbor first (most significant bit), and
table entry p is bit p of the rule number, so pattern 11...1 sits at the
highest index. Functions are pure; stepping never mutates its input.
"""
from __future__ import annotations

import gc
import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property, wraps
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

MAX_RADIUS = 3
EXHAUSTIVE_CELL_LIMIT = 20
_CODE_BLOCK = 1 << 14  # codes per global_map block; a block's uint64 windows are 128 KiB
_TAKE_BLOCK = 1 << 14  # index entries per take or put in _cycle_order; their intp copy is 128 KiB
_LIST_BLOCK = 1 << 14  # cycles per block of cycle_structure's lists
_PLACES = np.array([128, 64, 32, 16, 8, 4, 2, 1], np.uint8)  # _window_table's output bits


class Boundary(str, Enum):
    """Edge handling: out-of-range neighbors read 0 (null) or wrap (cyclic)."""

    NULL = "null"
    CYCLIC = "cyclic"


@dataclass(frozen=True)
class Rule:
    """A radius-r local rule as a 2^(2r+1)-entry lookup table, identified by (radius, number)."""

    radius: int
    number: int
    table: np.ndarray = field(compare=False, repr=False)  # uint8, read-only, len 2^(2r+1)

    @property
    def width(self) -> int:
        return 2 * self.radius + 1


def as_count(value: object, name: str, low: int, high: int | None = None) -> int:
    """`value` as an int in low..high (no upper bound if None), or ValueError naming it."""
    try:  # integers: what operator.index takes, numpy's and 0-d integer arrays too
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < low or high is not None and value > high:
        raise ValueError(f"{name} must be >= {low}, got {value}" if high is None
                         else f"{name} must be in {low}..{high}, got {value}")
    return value


def make_rule(radius: int, rule_number: int) -> Rule:
    """Build the lookup table for a Wolfram rule number at the given radius."""
    radius = as_count(radius, "radius", 1, MAX_RADIUS)
    entries = 1 << (2 * radius + 1)
    limit = 1 << entries
    if not 0 <= rule_number < limit:
        raise ValueError(
            f"rule_number out of range for radius {radius}: "
            f"must be less than 2**{entries} = {limit}, got {rule_number}"
        )
    table = np.array([(rule_number >> p) & 1 for p in range(entries)], dtype=np.uint8)
    table.setflags(write=False)
    return Rule(radius=radius, number=rule_number, table=table)


def rule_from_table(radius: int, table: np.ndarray) -> Rule:
    """Build a Rule from an explicit entry array (entry p = bit p of the number)."""
    radius = as_count(radius, "radius", 1, MAX_RADIUS)
    table = np.asarray(table)
    entries = 1 << (2 * radius + 1)
    if table.shape != (entries,):
        raise ValueError(f"table must have {entries} entries, got shape {table.shape}")
    if not np.all((table == 0) | (table == 1)):
        raise ValueError("table entries must be 0 or 1")
    table = table.astype(np.uint8)
    number = int.from_bytes(np.packbits(table, bitorder="little").tobytes(), "little")
    table.setflags(write=False)
    return Rule(radius=radius, number=number, table=table)


def apply_rule(rule: Rule, neighborhood: Sequence[int] | str) -> int:
    """Evaluate a rule on one neighborhood pattern (leftmost neighbor first)."""
    bits = [int(b) for b in neighborhood]
    if len(bits) != rule.width or any(b not in (0, 1) for b in bits):
        raise ValueError(
            f"neighborhood must be {rule.width} bits for radius {rule.radius}, "
            f"got {neighborhood!r}"
        )
    index = 0
    for b in bits:
        index = (index << 1) | b
    return int(rule.table[index])


def complement_rule(rule: Rule) -> Rule:
    """The rule with every table entry flipped: number -> 2^(2^(2r+1)) - number - 1."""
    return rule_from_table(rule.radius, 1 - rule.table)


def _neighborhood_index(states: np.ndarray, radius: int, boundary: Boundary) -> np.ndarray:
    """Per-cell neighborhood pattern indices, vectorized over leading axes.

    `states` has shape (..., n); the result has the same shape with values in
    0..2^(2r+1)-1, the leftmost neighbor contributing the most significant bit.
    """
    n = states.shape[-1]
    ext = np.zeros(states.shape[:-1] + (n + 2 * radius,), np.uint8)  # null edges read 0
    ext[..., radius : radius + n] = states
    if boundary is Boundary.CYCLIC:
        for _ in range(0, radius, n):  # ceil(r / n) passes, each wrapping n more columns in
            ext[..., :radius] = ext[..., n : n + radius]
            ext[..., n + radius :] = ext[..., radius : 2 * radius]
    # Values stay below 2^7 for radius <= 3, so uint8 arithmetic is safe.
    idx = ext[..., 0:n].copy()
    for k in range(1, 2 * radius + 1):
        idx += idx  # numpy vectorises a uint8 add, not a uint8 shift
        np.bitwise_or(idx, ext[..., k : k + n], out=idx)
    return idx


def _rule_vector(rules: Rule | Sequence[Rule], n: int) -> list[Rule]:
    """The rules as a list of 1 or n entries of one radius, or ValueError."""
    vec = [rules] if isinstance(rules, Rule) else list(rules)
    if len(vec) not in (1, n):
        raise ValueError(f"rule vector has {len(vec)} entries; need 1 or {n} for {n} cells")
    if any(r.radius != vec[0].radius for r in vec):
        raise ValueError("all rules in a vector must share one radius")
    return vec


def _stepper(
    rules: Rule | Sequence[Rule], boundary: Boundary, shape: tuple[int, ...]
) -> Callable[[np.ndarray], np.ndarray]:
    """One synchronous update of checked uint8 batches of n cells, n being `shape`'s last axis.

    The shape, rule vector and boundary are checked and the tables laid end to
    end here, once, so a walk that applies the step many times pays none of it per step.
    """
    if not shape or not (n := shape[-1]):
        raise ValueError(f"configurations need at least one cell, got shape {shape}")
    vec = _rule_vector(rules, n)
    radius = vec[0].radius
    boundary = Boundary(boundary)
    tables, offsets = vec[0].table, None
    if len(vec) > 1:  # cell i's table starts at i * 2^(2r+1); uint16 offsets while they fit
        tables = np.concatenate([r.table for r in vec])
        offsets = np.arange(0, tables.size, tables.size // n,
                            dtype=np.uint16 if tables.size <= 1 << 16 else np.intp)

    def step(states: np.ndarray) -> np.ndarray:
        idx = _neighborhood_index(states, radius, boundary)
        return tables.take(idx if offsets is None else idx + offsets, mode="clip")
    return step


@cache
def _window_index(c: int, r: int) -> np.ndarray:
    """Read-only (2^(c+2r), c) index: entry [w, k] is where cell k's table sits in c
    radius-r tables laid end to end, plus the value of window w's cells k..k+2r."""
    k = np.arange(c)
    windows = np.arange(1 << (c + 2 * r))[:, None]
    index = k << (2 * r + 1) | (windows >> (c - 1 - k)) & ((1 << (2 * r + 1)) - 1)
    index.flags.writeable = False
    return index


def _window_table(rules: Sequence[Rule]) -> np.ndarray:
    """Outputs of c = len(rules) <= 8 adjacent cells, rule k at cell k, for every value of
    their c + 2r cell window: uint8, the leftmost cell and output most significant.
    One gather from the tables laid end to end, then a sum weighted by place."""
    c, r = len(rules), rules[0].radius
    bits = np.concatenate([rule.table for rule in rules]).take(_window_index(c, r))
    return bits @ _PLACES[8 - c :]


def as_cells(states: np.ndarray) -> np.ndarray:
    """Cells as uint8, or ValueError naming the first one not 0 or 1 (before a cast wraps it)."""
    states = np.asarray(states)
    if states.dtype != np.uint8 or states.max(initial=0) > 1:
        bad = np.argwhere((states != 0) & (states != 1))
        if len(bad):
            at = tuple(bad[0].tolist())
            raise ValueError(f"cell {at[0] if len(at) == 1 else at} must be 0 or 1, "
                             f"got {states[at]}")
    return states.astype(np.uint8, copy=False)


def as_config(config: np.ndarray) -> np.ndarray:
    """One configuration as uint8 cells, or ValueError naming the bad cell or the shape."""
    config = as_cells(config)
    if config.ndim != 1:
        raise ValueError(f"configuration must be a 1-D cell array, got shape {config.shape}")
    return config


def step_many(states: np.ndarray, rules: Rule | Sequence[Rule], boundary: Boundary) -> np.ndarray:
    """Synchronous update of a (..., n) batch of configurations of 0/1 cells."""
    states = as_cells(states)
    return _stepper(rules, boundary, states.shape)(states)


def step(config: np.ndarray, rules: Rule | Sequence[Rule], boundary: Boundary) -> np.ndarray:
    """One synchronous update of a single configuration; returns a new array."""
    config = as_config(config)
    return _stepper(rules, boundary, config.shape)(config)


def iterate(
    config: np.ndarray,
    rules: Rule | Sequence[Rule],
    boundary: Boundary,
    steps: int,
) -> np.ndarray:
    """`steps`-fold composition of `step`; steps=0 checks the arguments and returns the input."""
    steps = as_count(steps, "steps", 0)
    out = as_config(config)
    step_once = _stepper(rules, boundary, out.shape)
    for _ in range(steps):
        out = step_once(out)
    return out


# --- exhaustive state-space analysis -------------------------------------

def state_to_int(config: np.ndarray) -> int:
    """Integer code of a configuration (cell 0 = most significant bit), exact at any width."""
    config = as_config(config)
    return int.from_bytes(np.packbits(config).tobytes(), "big") >> (-config.size % 8)


def int_to_state(code: int, cells: int) -> np.ndarray:
    """Inverse of state_to_int; the code must lie in 0..2^cells - 1."""
    cells = as_count(cells, "cells", 1)
    code = as_count(code, "state code", float("-inf"))  # its range is checked below, naming cells
    if not 0 <= code < 1 << cells:
        raise ValueError(f"state code {code} is out of range for {cells} cells")
    return np.unpackbits(np.frombuffer(code.to_bytes(-(-cells // 8), "big"), np.uint8))[-cells:]


def global_map(rules: Rule | Sequence[Rule], boundary: Boundary, cells: int) -> np.ndarray:
    """Successor code of every configuration code; brute force, cells bounded.

    The ring is split into runs of up to 8 output cells. Each run's c outputs
    for every value of its c + 2r cell window come from _window_table, shifted
    to their place in the successor code. A block of codes then costs one
    shift, mask and gather per run. The windows are read from the codes tiled
    in uint64, so that a cyclic window wraps, even on a ring narrower than the
    radius.
    """
    cells = as_count(cells, "cells", 1, EXHAUSTIVE_CELL_LIMIT)
    vec = _rule_vector(rules, cells)
    r = vec[0].radius
    # Bit top-1-e of a tiled code holds cell e-r, for e in 0..cells+2r-1: on a ring
    # the cell mod `cells`, and under null edges the code shifted up r bits reads 0
    # off either edge.
    if Boundary(boundary) is Boundary.CYCLIC:
        skip = -r % cells
        copies = -(-(skip + cells + 2 * r) // cells)
        tile, top = sum(1 << (k * cells) for k in range(copies)), copies * cells - skip
    else:
        tile, top = 1 << r, cells + 2 * r
    runs = []
    for a in range(0, cells, 8):  # output cells a..a+c-1 read window cells a-r..a+c-1+r
        c = min(8, cells - a)
        w = c + 2 * r
        table = _window_table([vec[(a + k) % len(vec)] for k in range(c)])
        runs.append((table.astype(np.uint32) << (cells - a - c), top - a - w, (1 << w) - 1))
    succ = np.empty(1 << cells, dtype=np.int32)
    for lo in range(0, succ.size, _CODE_BLOCK):
        tiled = np.arange(lo, min(lo + _CODE_BLOCK, succ.size), dtype=np.uint64) * tile
        out = succ[lo : lo + tiled.size].view(np.uint32)
        out[:] = 0
        for table, shift, mask in runs:
            windows = tiled >> shift
            windows &= mask
            out |= table.take(windows.view(np.int64))
    return succ


def is_reversible_global(
    rules: Rule | Sequence[Rule], boundary: Boundary, cells: int
) -> bool:
    """True iff the global transition map is injective over all 2^cells states."""
    succ = global_map(rules, boundary, cells)
    hit = np.zeros(succ.size, dtype=bool)
    hit[succ] = True
    return bool(hit.all())


def enumerate_reversible_elementary(radius: int, cell_sizes: Iterable[int]) -> set[int]:
    """Rule numbers whose uniform cyclic-ring map is injective at every listed size."""
    if radius != 1:
        raise ValueError("exhaustive rule enumeration is only supported for radius 1")
    sizes = list(cell_sizes)
    if not sizes:
        raise ValueError("cell_sizes must be non-empty")
    if any(s > 16 for s in sizes):
        raise ValueError("cell sizes above 16 are refused (2^size states per check)")
    reversible: set[int] = set()
    for number in range(256):
        rule = make_rule(1, number)
        if all(is_reversible_global(rule, Boundary.CYCLIC, s) for s in sizes):
            reversible.add(number)
    return reversible


def _collector_paused(build: Callable[[CycleReport], list]) -> Callable[[CycleReport], list]:
    """`build` run with the cyclic garbage collector paused: lists of ints hold
    no reference cycles, so a collection while they are built would only rescan them."""
    @wraps(build)
    def paused(report: CycleReport) -> list:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(report)
        finally:
            if enabled:
                gc.enable()
    return paused


@dataclass(frozen=True, eq=False)
class CycleReport:
    """Exhaustive decomposition of the state space under the global map.

    States are integer codes (see state_to_int). `order` holds every one of
    the 2^cells states exactly once, cycle by cycle and then the transients
    ascending; `lengths` holds each cycle's length. Both are read-only int32
    arrays. The `cycles` and `transient_states` lists are built from them on
    first read, a block of cycles at a time with the collector paused, and kept.
    """

    cells: int
    order: np.ndarray
    lengths: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycleReport):
            return NotImplemented
        return (self.cells == other.cells and np.array_equal(self.lengths, other.lengths)
                and np.array_equal(self.order, other.order))

    @cached_property
    @_collector_paused
    def cycles(self) -> list[list[int]]:
        sizes, cycles, at = self.lengths.tolist(), [], 0
        for c in range(0, len(sizes), _LIST_BLOCK):
            block = sizes[c : c + _LIST_BLOCK]
            states = self.order[at : at + sum(block)].tolist()
            cycles += [states[end - size : end] for size, end in zip(block, accumulate(block))]
            at += len(states)
        return cycles

    @cached_property
    @_collector_paused
    def transient_states(self) -> list[int]:
        return self.order[int(self.lengths.sum()) :].tolist()

    def cycle_lengths(self) -> list[int]:
        return self.lengths.tolist()


def _take(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """table[index], by `take` over blocks of index, so its intp copy of them stays small."""
    out = np.empty(index.size, table.dtype)
    for lo in range(0, index.size, _TAKE_BLOCK):  # indices are in range; "raise" would buffer out
        table.take(index[lo : lo + _TAKE_BLOCK], out=out[lo : lo + _TAKE_BLOCK], mode="clip")
    return out


def _put(target: np.ndarray, index: np.ndarray, values) -> None:
    """target[index] = values, by `put` over blocks of index, as `_take` gathers."""
    for lo in range(0, index.size, _TAKE_BLOCK):
        np.put(target, index[lo : lo + _TAKE_BLOCK], values[lo : lo + _TAKE_BLOCK])


def _cycle_order(succ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every state code, cycle by cycle as cycle_structure lists them, then the
    transients ascending; and each cycle's length.

    Whole-array passes over int32 arrays, a few alive at once: the image squaring and
    the basins over every state, the doubling and the destinations over the cycle
    states. Gathers go through `_take` and scatters through `_put`; no pass divides.
    """
    n = succ.size
    # Allocated before the temporaries, so that freeing them leaves no heap
    # held resident under the result while the caller builds lists from it.
    order = np.empty(n, dtype=np.int32)
    # Cycle states are the image of succ^(2^k) once doubling k no longer shrinks
    # it; an onto succ is done at once.
    on = np.zeros(n, dtype=bool)
    on[succ] = True
    size, last, far = np.count_nonzero(on), n, succ
    while size != last:
        far = _take(far, far)
        on[:] = False
        on[far] = True
        size, last = np.count_nonzero(on), size
    # The cycle states, renumbered in ascending order when some state is transient
    # (when every state cycles, that renumbering would be the identity), and their map.
    # Transients follow every cycle, in ascending order.
    succ_c = succ
    if size < n:
        order[size:] = np.arange(n, dtype=np.int32)[~on]
        cyc = np.flatnonzero(on).astype(np.int32)
        inv = np.empty(n, dtype=np.int32)
        _put(inv, cyc, np.arange(size, dtype=np.int32))
        succ_c = _take(inv, _take(succ, cyc))
    # Pointer doubling: low is the least state within 2^k steps, dist the steps
    # to its first visit.
    low = np.arange(size, dtype=np.int32)
    dist = np.zeros(size, dtype=np.int32)
    later = np.empty(size, dtype=bool)
    jump, step = succ_c, 1
    while True:
        ahead = _take(low, jump)
        np.less(ahead, low, out=later)
        if not later.any():
            break
        np.minimum(low, ahead, out=low)
        del ahead
        np.add(_take(dist, jump), step, out=dist, where=later)
        jump = _take(jump, jump)
        step *= 2
    del ahead, jump, later
    # Each cycle is headed by its least state, the one at dist 0, and found from the
    # least code whose walk reaches it: the head itself when every state cycles.
    heads = entry = np.flatnonzero(dist == 0)
    if size < n:  # far lands every state on its cycle
        first = np.full(size, n, dtype=np.int32)
        np.minimum.at(first, _take(low, _take(inv, far)), np.arange(n, dtype=np.int32))
        del far
        heads = heads[np.argsort(_take(first, heads))]
        entry = _take(first, heads)  # walked in lockstep to where each start meets its cycle
        while not (hit := _take(on, entry)).all():
            entry = np.where(hit, entry, _take(succ, entry))
        entry = _take(inv, entry)
        del first, inv
    lengths = _take(dist, _take(succ_c, heads)) + 1
    del succ, succ_c
    ends = np.cumsum(lengths, dtype=np.int32)
    skew = _take(dist, entry)
    rank = np.empty(size, dtype=np.int32)
    _put(rank, heads, np.arange(heads.size, dtype=np.int32))
    found = _take(rank, low)  # each cycle state's cycle, numbered in the order it is found
    del rank, low
    # A cycle state lands (dist(entry) - dist) mod length past its cycle's start.
    dest = _take(skew, found)
    dest -= dist
    dest += _take(lengths, found) * (dest < 0)
    dest += _take(ends - lengths, found)
    del found, dist
    _put(order, dest, cyc if size < n else np.arange(n, dtype=np.int32))
    return order, lengths


def cycle_structure(
    rules: Rule | Sequence[Rule], boundary: Boundary, cells: int
) -> CycleReport:
    """Partition all 2^cells states into cycles and transients.

    Cycles come in the order walks from ascending start codes close them, each
    listed from the state where its walk entered it; transients ascend. The
    successor map is decomposed in numpy into the report's order and lengths
    arrays; no list is built until the report's `cycles` or
    `transient_states` is read.
    """
    order, lengths = _cycle_order(global_map(rules, boundary, cells))
    order.flags.writeable = lengths.flags.writeable = False
    return CycleReport(cells=cells, order=order, lengths=lengths)


# --- text conversions -----------------------------------------------------

def parse_bits(text: str) -> np.ndarray:
    """Parse an ASCII bit string ('1011', leftmost cell first) into cells."""
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"not a bit string: {text!r}")
    return (np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")).astype(np.uint8)


def format_bits(config: np.ndarray) -> str:
    """Render one configuration as an ASCII bit string, leftmost cell first."""
    return (as_config(config) + ord("0")).tobytes().decode("ascii")


def parse_rule_vector(text: str) -> list[Rule]:
    """Parse comma-separated decimal radius-1 rule numbers, e.g. '51,51,195,153'."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty rule vector")
    rules = []
    for at, part in enumerate(parts):
        if not part.isdecimal():
            raise ValueError(f"rule vector entry {at} must be a decimal rule number, got {part!r}")
        try:
            rules.append(make_rule(1, int(part)))
        except ValueError as exc:
            raise ValueError(f"rule vector entry {at}: {exc}") from None
    return rules
