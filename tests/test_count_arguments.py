"""Every count argument (rounds, steps, cells, radii, rid counts, ...) goes
through `ca.as_count`: a non-integer raises a ValueError naming the argument,
and numpy integers are taken as the plain ints they equal."""
import re

import numpy as np
import pytest

from rpca import analysis, ca, cipher, pca, second_order
from rpca.ca import Boundary
from rpca.container import ContainerHeader, ContainerValidationError

RULE = ca.make_rule(1, 30)
CONFIG = ca.parse_bits("0110")
KEY = cipher.parse_key(bytes(range(32)))
PARAMS = cipher.CipherParams(rounds=1, caf_steps=2)
PACKED = second_order.packed_rule_table(RULE)
BYTES = np.zeros(2, np.uint8)
PAIR = second_order.SecondOrderState(CONFIG, CONFIG[::-1])
PROGRAM = pca.ControlProgram(np.array([(0, 0), (0, 1), (1, 0), (1, 1)], dtype=np.uint8))


class Drew(Exception):
    pass


class StopAtDraw:
    """An rng stand-in that stops the run at its first draw, once the checks have passed."""

    def __getattr__(self, name):
        raise Drew


def until_draw(run):
    try:
        run(StopAtDraw())
    except Drew:
        return "drew"
    return "finished without drawing"


# site: (argument name, a valid value, the call taking the value)
CASES = {
    "make_rule": ("radius", 1, lambda v: ca.make_rule(v, 30)),
    "make_rule.rule_number": ("rule_number", 30, lambda v: ca.make_rule(1, v)),
    "rule_from_table": ("radius", 1, lambda v: ca.rule_from_table(v, RULE.table)),
    "iterate": ("steps", 3, lambda v: ca.iterate(CONFIG, RULE, Boundary.CYCLIC, v)),
    "global_map": ("cells", 3, lambda v: ca.global_map(RULE, Boundary.NULL, v)),
    "int_to_state": ("cells", 3, lambda v: ca.int_to_state(5, v)),
    "int_to_state.code": ("state code", 5, lambda v: ca.int_to_state(v, 4)),
    "so_iterate_forward": (
        "steps", 3, lambda v: second_order.so_iterate_forward(PAIR, RULE, Boundary.NULL, v)),
    "so_iterate_backward": (
        "steps", 3, lambda v: second_order.so_iterate_backward(PAIR, RULE, Boundary.NULL, v)),
    "so_iterate_packed": (
        "steps", 3, lambda v: second_order.so_iterate_packed(BYTES, BYTES, PACKED, v)),
    "pca_run": ("steps", 3, lambda v: pca.pca_run(CONFIG, PROGRAM, pca.TABLE_51_195_153,
                                                  Boundary.CYCLIC, v)),
    "CipherParams.rounds": ("rounds", 3, lambda v: cipher.CipherParams(rounds=v)),
    "CipherParams.caf_steps": ("caf_steps", 3, lambda v: cipher.CipherParams(caf_steps=v)),
    "round_index": ("round_index", 3, lambda v: cipher.derive_round_material(KEY, v)),
    "SeededRidSource": ("rid count", 3, lambda v: cipher.SeededRidSource(b"s")(v)),
    "os_rid_source": ("rid count", 3, lambda v: len(cipher.os_rid_source(v))),
    "avalanche.trials": ("trials", 3, lambda v: until_draw(
        lambda rng: analysis.avalanche(KEY, PARAMS, v, rng=rng))),
    "throughput_bench.megabytes": ("megabytes", 1, lambda v: until_draw(
        lambda rng: analysis.throughput_bench(KEY, PARAMS, megabytes=v, workers=1, rng=rng))),
    "throughput_bench.workers": ("workers", 3, lambda v: until_draw(
        lambda rng: analysis.throughput_bench(KEY, PARAMS, workers=v, rng=rng))),
    "ContainerHeader.plaintext_length": (
        "plaintext_length", 3, lambda v: ContainerHeader(1, 2, v).validate()),
}


@pytest.mark.parametrize("site,bad", [
    (site, bad) for site in CASES for bad in (1.5, 10.0, "3", None, np.array(2.5))
    if (site, bad) != ("throughput_bench.workers", None)  # None: one worker per CPU
])
def test_non_integer_count_rejected_by_name(site, bad):
    name, _, call = CASES[site]
    error = ContainerValidationError if site.startswith("ContainerHeader") else ValueError
    with pytest.raises(error, match=re.escape(f"{name} must be an integer, got {bad!r}")):
        call(bad)


@pytest.mark.parametrize("numpy_int", [np.int64, np.uint16, np.array])  # np.array: 0-d
@pytest.mark.parametrize("site", CASES)
def test_numpy_integer_count_acts_as_the_int(site, numpy_int):
    _, good, call = CASES[site]
    assert np.array_equal(call(numpy_int(good)), call(good))


def test_as_count_messages():
    assert ca.as_count(np.uint16(7), "n", 0) == 7 and type(ca.as_count(np.int64(7), "n", 0)) is int
    with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
        ca.as_count(0, "n", 1)
    with pytest.raises(ValueError, match=r"^n must be in 1\.\.3, got 4$"):
        ca.as_count(np.int64(4), "n", 1, 3)
    with pytest.raises(ValueError, match=r"^n must be an integer, got \[1\]$"):
        ca.as_count([1], "n", 1, 3)
