"""Programmable cellular automata: control signals select each cell's rule.

Two canonical selection tables are provided as data, one over rules
{51, 195, 153} and one over the reversible trio {204, 240, 170}. The module
also carries the legacy cycle cipher: states on an even-length orbit of the
global map are enciphered by walking half the orbit and deciphered by
completing it. That scheme is a reference construction for testing, not a
serious cipher.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from . import ca
from .ca import Boundary, Rule


class UnsupportedOrbitError(ValueError):
    """The state's orbit is not an even-length cycle of the global map."""


@dataclass(frozen=True)
class SelectionTable:
    """Read-only mapping from a control-bit pair (C1, C2) to a rule number."""

    radius: int
    rules: Mapping[tuple[int, int], int] = field(hash=False)  # a read-only copy of the mapping given
    # the rules by control code 2*c1 + c2; hashed in place of `rules`, a mappingproxy, unhashable
    _by_code: tuple[Rule, ...] = field(init=False, repr=False, compare=False, hash=True)

    def __post_init__(self) -> None:
        if set(self.rules) != {(a, b) for a in (0, 1) for b in (0, 1)}:
            raise ValueError(f"selection table keys must be (0, 0)..(1, 1), got {[*self.rules]}")
        rules = MappingProxyType(dict(self.rules))
        # sorted pairs run in code order; make_rule checks the radius and the number
        by_code = tuple(ca.make_rule(self.radius, rules[pair]) for pair in sorted(rules))
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_by_code", by_code)

    def __reduce__(self):  # a mappingproxy does not pickle, so rebuild from a plain dict
        return SelectionTable, (self.radius, dict(self.rules))

    def rule(self, c1: int, c2: int) -> Rule:
        if c1 not in (0, 1) or c2 not in (0, 1):
            raise ValueError(f"control pair must be 0 or 1, got {(c1, c2)!r}")
        return self._by_code[2 * int(c1) + int(c2)]


# Printed rows of the two selection tables used throughout.
TABLE_51_195_153 = SelectionTable(
    radius=1, rules={(0, 0): 51, (0, 1): 51, (1, 0): 195, (1, 1): 153}
)
TABLE_204_240_170 = SelectionTable(
    radius=1, rules={(0, 0): 204, (0, 1): 204, (1, 0): 240, (1, 1): 170}
)


def select_rule(table: SelectionTable, c1: int, c2: int) -> int:
    """Rule number the table assigns to the control pair (c1, c2), each 0 or 1."""
    return table.rule(c1, c2).number


def _control_bits(signals: np.ndarray) -> np.ndarray:
    """Control pairs as uint8; ValueError naming the first pair that is not two bits.

    Checked before the cast, which would wrap 256 to 0 and truncate 0.5 to 0.
    """
    bad = np.argwhere(((signals != 0) & (signals != 1)).any(axis=-1))
    if len(bad):
        *step, cell = first = tuple(bad[0])
        at = f"step {step[0]}, cell {cell}" if step else f"cell {cell}"
        raise ValueError(f"control pair at {at} must be 0 or 1, got {signals[first].tolist()}")
    return signals.astype(np.uint8)


@dataclass(frozen=True)
class ControlProgram:
    """Per-cell control pairs, constant or varying per step.

    `signals` has shape (cells, 2) for a constant program or (steps, cells, 2)
    for one that changes every step.
    """

    signals: np.ndarray

    def __post_init__(self) -> None:
        sig = np.asarray(self.signals)
        if sig.ndim not in (2, 3) or sig.shape[-1] != 2 or 0 in sig.shape:
            raise ValueError(
                f"signals must be non-empty (cells, 2) or (steps, cells, 2), got {sig.shape}"
            )
        object.__setattr__(self, "signals", _control_bits(sig))
        self.signals.flags.writeable = False  # checked once, so kept as checked

    @property
    def cells(self) -> int:
        return self.signals.shape[-2]

    def at(self, step_index: int) -> np.ndarray:
        if self.signals.ndim == 2:
            return self.signals
        return self.signals[step_index % self.signals.shape[0]]


def _rule_vector(bits: np.ndarray, table: SelectionTable) -> list[Rule]:
    """The rules that checked (cells, 2) control bits pick, by control code 2*c1 + c2."""
    return [table._by_code[code] for code in (bits @ (2, 1)).tolist()]


def induced_rule_vector(
    controls: np.ndarray | ControlProgram, table: SelectionTable
) -> list[Rule]:
    """Rule vector obtained by looking up each cell's control pair; a ControlProgram gives row 0."""
    if isinstance(controls, ControlProgram):  # its rows were checked when it was built
        return _rule_vector(controls.at(0), table)
    sig = np.asarray(controls)
    if sig.ndim != 2 or sig.shape[1] != 2:
        raise ValueError(f"controls must have shape (cells, 2), got {sig.shape}")
    return _rule_vector(_control_bits(sig), table)


def _control_stepper(
    rules: list[Rule], boundary: Boundary, cells: int
) -> Callable[[np.ndarray], np.ndarray]:
    """The `ca._stepper` step for an induced rule vector on `cells` cells."""
    if len(rules) != cells:
        raise ValueError(f"controls width {len(rules)} != cell count {cells}")
    return ca._stepper(rules, boundary, (cells,))


def pca_step(
    config: np.ndarray,
    controls: np.ndarray | ControlProgram,
    table: SelectionTable,
    boundary: Boundary,
) -> np.ndarray:
    """One step under the rule vector induced by the control signals."""
    config = ca.as_config(config)
    return _control_stepper(induced_rule_vector(controls, table), boundary, config.size)(config)


def pca_run(
    config: np.ndarray,
    program: ControlProgram,
    table: SelectionTable,
    boundary: Boundary,
    steps: int,
) -> np.ndarray:
    """Iterate a control program, step t under row t % period; steps=0 checks the arguments."""
    steps = ca.as_count(steps, "steps", 0)
    out = ca.as_config(config)
    rows = program.signals.reshape(-1, program.cells, 2)  # (period, cells, 2), checked
    step_rows = [_control_stepper(_rule_vector(row, table), boundary, out.size)
                 for row in rows[: steps or 1]]
    for t in range(steps):
        out = step_rows[t % len(rows)](out)
    return out


# --- legacy cycle cipher ---------------------------------------------------

def _half_turn(state: np.ndarray, rules: Rule | Sequence[Rule], boundary: Boundary) -> np.ndarray:
    """The state half-way round its cycle, found in one walk of the cycle.

    Raises UnsupportedOrbitError if the state is transient or its cycle has
    odd length.
    """
    current = ca.as_config(state)
    ca.as_count(current.shape[0], "orbit walk cells", 1, ca.EXHAUSTIVE_CELL_LIMIT)
    step = ca._stepper(rules, boundary, current.shape)
    visited = {current.tobytes(): current}  # states by their bytes, in the order visited
    while True:  # ends within 2^cells steps, since some state must repeat
        current = step(current)
        key = current.tobytes()
        if key in visited:
            break
        visited[key] = current
    orbit = list(visited.values())
    if key != orbit[0].tobytes():
        raise UnsupportedOrbitError(
            f"state {ca.format_bits(state)} is not on a cycle of the global map"
        )
    p = len(orbit)
    if p % 2 != 0:
        raise UnsupportedOrbitError(
            f"orbit length {p} is odd; the half-cycle cipher needs an even cycle"
        )
    return orbit[p // 2]


def cycle_encipher(
    plaintext_state: np.ndarray, rules: Rule | Sequence[Rule], boundary: Boundary
) -> np.ndarray:
    """Advance the state halfway around its orbit (orbit length must be even)."""
    return _half_turn(plaintext_state, rules, boundary)


def cycle_decipher(
    cipher_state: np.ndarray, rules: Rule | Sequence[Rule], boundary: Boundary
) -> np.ndarray:
    """Complete the orbit begun by cycle_encipher, restoring the original state.

    On an even orbit of length p the remaining p - p//2 steps are again p//2,
    so this is the same half turn.
    """
    return _half_turn(cipher_state, rules, boundary)
