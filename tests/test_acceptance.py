"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Every expected value is either pinned by hand, computed by an
independent straight-line oracle, or exhaustively enumerated; tolerances are
exact unless a criterion is explicitly statistical.
"""
import io
import os
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest
from _pytest.outcomes import Skipped

from rpca import ca, container
from rpca.analysis import avalanche, throughput_bench
from rpca.ca import Boundary
from rpca.cipher import (
    CipherParams,
    SeededRidSource,
    add_round_key,
    byte_substitution,
    column_mix,
    decrypt_block,
    encrypt_block,
    encrypt_stream,
    mask_final_data,
    parse_key,
    row_shift,
)
from rpca.cli import main as cli_main
from rpca.container import (
    ContainerHeader,
    ContainerLengthError,
    ContainerValidationError,
    UnsupportedFormatError,
)
from rpca.pca import cycle_decipher, cycle_encipher
from rpca.second_order import SecondOrderState, so_iterate_backward, so_iterate_forward

REVERSIBLE_SET = {15, 51, 85, 170, 204, 240}

RULE_TRUTH_ROWS = {
    15: [0, 0, 0, 0, 1, 1, 1, 1],
    240: [1, 1, 1, 1, 0, 0, 0, 0],
    51: [0, 0, 1, 1, 0, 0, 1, 1],
    204: [1, 1, 0, 0, 1, 1, 0, 0],
    85: [0, 1, 0, 1, 0, 1, 0, 1],
    170: [1, 0, 1, 0, 1, 0, 1, 0],
}

CLOSED_FORMS = {
    15: lambda left, center, right: 1 - left,
    240: lambda left, center, right: left,
    51: lambda left, center, right: 1 - center,
    204: lambda left, center, right: center,
    85: lambda left, center, right: 1 - right,
    170: lambda left, center, right: right,
}


@contextmanager
def criterion(number, name, limit=None):
    start = time.perf_counter()
    try:
        yield
    except Skipped:
        print(f"[acceptance] {number:02d} {name}: SKIP")
        raise
    except BaseException:
        print(f"[acceptance] {number:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed >= limit:
        print(f"[acceptance] {number:02d} {name}: FAIL (took {elapsed:.2f}s, budget {limit}s)")
        pytest.fail(f"criterion {number} exceeded its {limit}s budget: {elapsed:.2f}s")
    # the share of the budget used shows how much headroom is left
    budget = "" if limit is None else f" of {limit:g}s, {elapsed / limit:.0%}"
    print(f"[acceptance] {number:02d} {name}: PASS ({elapsed:.2f}s{budget})")


def test_criterion_01_reversible_rule_census():
    with criterion(1, "reversible-rule census", limit=1.0):
        found = ca.enumerate_reversible_elementary(1, [4, 5, 6, 7, 8])
        assert found == REVERSIBLE_SET
        assert len(found) == 6
        # the census is the union of the three complement pairs
        pairs = [(15, 240), (51, 204), (85, 170)]
        assert {n for pair in pairs for n in pair} == found


def test_criterion_02_complement_formula():
    with criterion(2, "complement formula", limit=1.0):
        for a, b in [(236, 19), (15, 240), (51, 204), (85, 170)]:
            assert ca.complement_rule(ca.make_rule(1, a)).number == b
            assert ca.complement_rule(ca.make_rule(1, b)).number == a
        for number in range(256):
            rule = ca.make_rule(1, number)
            comp = ca.complement_rule(rule)
            assert comp.number == 255 - number
            assert ca.complement_rule(comp) == rule


def test_criterion_03_cycle_structure_claim():
    with criterion(3, "four cycles of length four + cycle cipher", limit=1.0):
        rules = ca.parse_rule_vector("51,51,195,153")
        report = ca.cycle_structure(rules, Boundary.NULL, 4)
        assert report.cycle_lengths() == [4, 4, 4, 4]
        assert report.transient_states == []
        assert sorted(s for cyc in report.cycles for s in cyc) == list(range(16))
        for code in range(16):
            state = ca.int_to_state(code, 4)
            enciphered = cycle_encipher(state, rules, Boundary.NULL)
            assert np.array_equal(cycle_decipher(enciphered, rules, Boundary.NULL), state)


def test_criterion_04_table_fidelity_and_closed_forms():
    with criterion(4, "rule-table fidelity + closed forms"):
        for number, row in RULE_TRUTH_ROWS.items():
            table = ca.make_rule(1, number).table
            assert list(table[::-1]) == row
        rng = np.random.default_rng(2024)
        configs = rng.integers(0, 2, size=(10_000, 64), dtype=np.uint8)
        left = np.roll(configs, 1, axis=1)
        right = np.roll(configs, -1, axis=1)
        for number, form in CLOSED_FORMS.items():
            stepped = ca.step_many(configs, ca.make_rule(1, number), Boundary.CYCLIC)
            assert np.array_equal(stepped, form(left, configs, right))


def test_criterion_05_second_order_reversibility():
    with criterion(5, "second-order round trips", limit=10.0):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            radius = int(rng.integers(1, 4))
            rule = ca.make_rule(radius, int.from_bytes(rng.bytes(16), "big") % (1 << (1 << (2 * radius + 1))))
            length = int(rng.choice([8, 64, 128]))
            steps = int(rng.integers(1, 65))
            boundary = Boundary.CYCLIC if rng.integers(2) else Boundary.NULL
            state = SecondOrderState(
                rng.integers(0, 2, length, dtype=np.uint8),
                rng.integers(0, 2, length, dtype=np.uint8),
            )
            forward = so_iterate_forward(state, rule, boundary, steps)
            back = so_iterate_backward(forward, rule, boundary, steps)
            assert np.array_equal(back.prev, state.prev)
            assert np.array_equal(back.curr, state.curr)


def test_criterion_06_cipher_round_trip(tmp_path):
    with criterion(6, "block + file round trips", limit=60.0):
        rng = np.random.default_rng(99)
        settings = [CipherParams(10, 32), CipherParams(1, 2)]
        for _ in range(10_000):
            key = parse_key(rng.bytes(32))
            plaintext = rng.bytes(16)
            rid = rng.bytes(16)
            for params in settings:
                record = encrypt_block(plaintext, key, params, rid)
                assert decrypt_block(record, key, params) == plaintext

        key_path = tmp_path / "acc.key"
        with redirect_stdout(io.StringIO()):  # keep CLI chatter out of the report
            assert cli_main(["keygen", "--out", str(key_path), "--seed", "ac"]) == 0
            for size in (0, 1, 15, 16, 17, 10**6):
                src = tmp_path / f"in_{size}"
                enc = tmp_path / f"enc_{size}"
                dec = tmp_path / f"dec_{size}"
                data = rng.bytes(size)
                src.write_bytes(data)
                assert cli_main(
                    ["encrypt", "--key", str(key_path), "--in", str(src), "--out", str(enc),
                     "--seed", "0c"]
                ) == 0
                assert cli_main(
                    ["decrypt", "--key", str(key_path), "--in", str(enc), "--out", str(dec)]
                ) == 0
                assert dec.read_bytes() == data


def test_criterion_07_stage_invertibility():
    with criterion(7, "stage inverse compositions"):
        rng = np.random.default_rng(3)
        n = 10_000
        for forward, inverse in [
            (lambda s, m: byte_substitution(s, m), lambda s, m: byte_substitution(s, m, "inverse")),
            (lambda s, m: row_shift(s, m), lambda s, m: row_shift(s, m, "inverse")),
            (lambda s, m: column_mix(s, m), lambda s, m: column_mix(s, m, "inverse")),
            (lambda s, m: add_round_key(s, m), lambda s, m: add_round_key(s, m)),
        ]:
            for _ in range(n):
                state, material = rng.bytes(16), rng.bytes(16)
                assert inverse(forward(state, material), material) == state
        for _ in range(n):
            value = rng.bytes(16)
            key = parse_key(rng.bytes(32))
            assert mask_final_data(mask_final_data(value, key), key) == value


def test_criterion_08a_avalanche_replaces_timing_table():
    with criterion(8, "avalanche mean in [0.4, 0.6] at default params"):
        rng = np.random.default_rng(41)
        key = parse_key(rng.bytes(32))
        report = avalanche(key, CipherParams(), trials=1000, rng=rng)
        assert 0.4 <= report.mean_flip_fraction <= 0.6


@pytest.mark.skipif((os.cpu_count() or 1) < 4, reason="needs >= 4 hardware threads")
def test_criterion_08b_parallel_scaling():
    with criterion(8, "multi-worker throughput >= 1.2x single"):
        rng = np.random.default_rng(42)
        key = parse_key(rng.bytes(32))
        report = throughput_bench(key, CipherParams(), megabytes=2, rng=rng)
        assert report.round_trip_ok and report.parallel_matches_serial
        assert report.encrypt_speedup >= 1.2


def test_criterion_09_pca_vector_not_injective():
    with criterion(9, "reversible-table control vector is not injective", limit=1.0):
        rules = ca.parse_rule_vector("204,204,240,170")
        assert ca.is_reversible_global(rules, Boundary.NULL, 4) is False


def test_criterion_10_container_round_trip_and_rejection():
    with criterion(10, "container round trip + rejections"):
        rng = np.random.default_rng(55)
        key = parse_key(rng.bytes(32))
        params = CipherParams(rounds=2, caf_steps=4)
        for _ in range(25):
            size = int(rng.integers(0, 200))
            data = rng.bytes(size)
            records = encrypt_stream(data, key, params, SeededRidSource(b"acc"))
            header = ContainerHeader(params.rounds, params.caf_steps, size)
            blob = container.write_container(header, records)
            got_header, got_records = container.read_container(blob)
            assert got_header == header and np.array_equal(got_records, records)
            assert container.write_container(got_header, got_records) == blob

        good = container.write_container(
            ContainerHeader(2, 4, 5),
            encrypt_stream(b"hello", key, params, SeededRidSource(b"acc")),
        )
        with pytest.raises(ContainerLengthError):
            container.read_container(good[:-1])
        with pytest.raises(ContainerLengthError):
            container.read_container(good[:10])
        bad_magic = b"XXXX" + good[4:]
        with pytest.raises(UnsupportedFormatError):
            container.read_container(bad_magic)
        bad_rounds = good[:5] + bytes([200]) + good[6:]
        with pytest.raises(ContainerValidationError):
            container.read_container(bad_rounds)
        bad_steps = good[:6] + (1500).to_bytes(2, "big") + good[8:]
        with pytest.raises(ContainerValidationError):
            container.read_container(bad_steps)
