"""One-dimensional binary cellular automata.

Configurations are 1-D numpy uint8 arrays of 0/1 cells, index 0 being the
leftmost cell. Rules are radius-r lookup tables in Wolfram numbering: the
neighborhood pattern is read left neighbor first (most significant bit), and
table entry p is bit p of the rule number, so pattern 11...1 sits at the
highest index. Functions are pure; stepping never mutates its input.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

MAX_RADIUS = 3
EXHAUSTIVE_CELL_LIMIT = 20


class Boundary(str, Enum):
    """Edge handling: out-of-range neighbors read 0 (null) or wrap (cyclic)."""

    NULL = "null"
    CYCLIC = "cyclic"


@dataclass(frozen=True, eq=False)
class Rule:
    """A radius-r local rule as a 2^(2r+1)-entry lookup table."""

    radius: int
    number: int
    table: np.ndarray = field(repr=False)  # uint8, read-only, len 2^(2r+1)

    @property
    def width(self) -> int:
        return 2 * self.radius + 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rule):
            return NotImplemented
        return self.radius == other.radius and self.number == other.number

    def __hash__(self) -> int:
        return hash((self.radius, self.number))

    def __repr__(self) -> str:
        return f"Rule(radius={self.radius}, number={self.number})"


def make_rule(radius: int, rule_number: int) -> Rule:
    """Build the lookup table for a Wolfram rule number at the given radius."""
    if not 1 <= radius <= MAX_RADIUS:
        raise ValueError(f"radius must be in 1..{MAX_RADIUS}, got {radius}")
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
    entries = 1 << (2 * rule.radius + 1)
    number = (1 << entries) - rule.number - 1
    table = (1 - rule.table).astype(np.uint8)
    table.setflags(write=False)
    return Rule(radius=rule.radius, number=number, table=table)


def _as_table_stack(rules: Rule | Sequence[Rule], cells: int) -> tuple[np.ndarray, int, bool]:
    """Normalize a uniform rule or per-cell vector to (tables, radius, uniform)."""
    if isinstance(rules, Rule):
        return rules.table, rules.radius, True
    vec = list(rules)
    if not vec:
        raise ValueError("rule vector is empty")
    radius = vec[0].radius
    if any(r.radius != radius for r in vec):
        raise ValueError("all rules in a vector must share one radius")
    if len(vec) == 1:
        return vec[0].table, radius, True
    if len(vec) != cells:
        raise ValueError(f"rule vector length {len(vec)} != cell count {cells}")
    return np.stack([r.table for r in vec]), radius, False


def neighborhood_index(states: np.ndarray, radius: int, boundary: Boundary) -> np.ndarray:
    """Per-cell neighborhood pattern indices, vectorized over leading axes.

    `states` has shape (..., n); the result has the same shape with values in
    0..2^(2r+1)-1, the leftmost neighbor contributing the most significant bit.
    """
    n = states.shape[-1]
    if Boundary(boundary) is Boundary.CYCLIC:
        if n >= radius:
            ext = np.concatenate(
                [states[..., n - radius :], states, states[..., :radius]], axis=-1
            )
        else:  # ring narrower than the radius: offsets wrap more than once
            ext = np.take(states, np.arange(-radius, n + radius), axis=-1, mode="wrap")
    else:
        pad = [(0, 0)] * (states.ndim - 1) + [(radius, radius)]
        ext = np.pad(states, pad)
    # Values stay below 2^7 for radius <= 3, so uint8 arithmetic is safe.
    idx = ext[..., 0:n].copy()
    for k in range(1, 2 * radius + 1):
        np.left_shift(idx, 1, out=idx)
        np.bitwise_or(idx, ext[..., k : k + n], out=idx)
    return idx


def step_many(states: np.ndarray, rules: Rule | Sequence[Rule], boundary: Boundary) -> np.ndarray:
    """Synchronous update of a (..., n) batch of configurations."""
    states = np.asarray(states, dtype=np.uint8)
    n = states.shape[-1]
    tables, radius, uniform = _as_table_stack(rules, n)
    idx = neighborhood_index(states, radius, boundary)
    if uniform:
        return tables[idx]
    return tables[np.arange(n), idx]


def step(config: np.ndarray, rules: Rule | Sequence[Rule], boundary: Boundary) -> np.ndarray:
    """One synchronous update of a single configuration; returns a new array."""
    config = np.asarray(config, dtype=np.uint8)
    if config.ndim != 1 or config.size < 1:
        raise ValueError("configuration must be a non-empty 1-D cell array")
    return step_many(config, rules, boundary)


def iterate(
    config: np.ndarray,
    rules: Rule | Sequence[Rule],
    boundary: Boundary,
    steps: int,
) -> np.ndarray:
    """`steps`-fold composition of `step`; steps=0 returns the input unchanged."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    out = np.asarray(config, dtype=np.uint8)
    for _ in range(steps):
        out = step(out, rules, boundary)
    return out


# --- exhaustive state-space analysis -------------------------------------

def _all_states(cells: int) -> np.ndarray:
    """All 2^cells configurations as a (2^cells, cells) uint8 matrix.

    Row s is the configuration whose integer code is s, cell 0 at the MSB.
    """
    codes = np.arange(1 << cells, dtype=np.int64)
    shifts = np.arange(cells - 1, -1, -1, dtype=np.int64)
    return ((codes[:, None] >> shifts) & 1).astype(np.uint8)


def _pack_states(states: np.ndarray) -> np.ndarray:
    cells = states.shape[-1]
    weights = (1 << np.arange(cells - 1, -1, -1, dtype=np.int64))
    return states.astype(np.int64) @ weights


def state_to_int(config: np.ndarray) -> int:
    """Integer code of a configuration (cell 0 = most significant bit)."""
    return int(_pack_states(np.asarray(config, dtype=np.uint8)))


def int_to_state(code: int, cells: int) -> np.ndarray:
    """Inverse of state_to_int."""
    return np.array([(code >> (cells - 1 - i)) & 1 for i in range(cells)], dtype=np.uint8)


def global_map(rules: Rule | Sequence[Rule], boundary: Boundary, cells: int) -> np.ndarray:
    """Successor code of every configuration code; brute force, cells bounded."""
    if cells > EXHAUSTIVE_CELL_LIMIT:
        raise ValueError(
            f"refusing exhaustive enumeration over 2^{cells} states "
            f"(limit is {EXHAUSTIVE_CELL_LIMIT} cells)"
        )
    if cells < 1:
        raise ValueError("cells must be >= 1")
    nxt = step_many(_all_states(cells), rules, boundary)
    return _pack_states(nxt)


def is_reversible_global(
    rules: Rule | Sequence[Rule], boundary: Boundary, cells: int
) -> bool:
    """True iff the global transition map is injective over all 2^cells states."""
    succ = global_map(rules, boundary, cells)
    return len(np.unique(succ)) == succ.size


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


@dataclass(frozen=True)
class CycleReport:
    """Exhaustive decomposition of the state space under the global map.

    States are integer codes (see state_to_int). Every one of the 2^cells
    states appears exactly once across cycles and transients.
    """

    cells: int
    cycles: list[list[int]]
    transient_states: list[int]

    def cycle_lengths(self) -> list[int]:
        return [len(c) for c in self.cycles]


def cycle_structure(
    rules: Rule | Sequence[Rule], boundary: Boundary, cells: int
) -> CycleReport:
    """Partition all 2^cells states into cycles and transients."""
    succ = global_map(rules, boundary, cells)
    n_states = succ.size
    # 0 = unvisited, 1 = on the path currently being walked, 2 = finished
    color = np.zeros(n_states, dtype=np.uint8)
    on_cycle = np.zeros(n_states, dtype=bool)
    cycles: list[list[int]] = []
    for start in range(n_states):
        if color[start]:
            continue
        path: list[int] = []
        v = start
        while not color[v]:
            color[v] = 1
            path.append(v)
            v = int(succ[v])
        if color[v] == 1:  # closed a new cycle within this walk
            at = path.index(v)
            cyc = path[at:]
            cycles.append(cyc)
            for u in cyc:
                on_cycle[u] = True
        for u in path:
            color[u] = 2
    transients = [s for s in range(n_states) if not on_cycle[s]]
    return CycleReport(cells=cells, cycles=cycles, transient_states=transients)


# --- text conversions -----------------------------------------------------

def parse_bits(text: str) -> np.ndarray:
    """Parse an ASCII bit string ('1011', leftmost cell first) into cells."""
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"not a bit string: {text!r}")
    return (np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")).astype(np.uint8)


def format_bits(config: np.ndarray) -> str:
    """Render cells as an ASCII bit string, leftmost cell first."""
    return "".join("1" if b else "0" for b in np.asarray(config))


def format_state_int(code: int, cells: int) -> str:
    """Render a state integer code as a bit string of the given width."""
    return format(code, f"0{cells}b")


def parse_rule_vector(text: str, radius: int = 1) -> list[Rule]:
    """Parse comma-separated decimal rule numbers, e.g. '51,51,195,153'."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty rule vector")
    return [make_rule(radius, int(p)) for p in parts]
