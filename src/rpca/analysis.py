"""Statistical and performance harnesses for the block cipher.

The avalanche measurement flips one input bit at a time and tracks which
ciphertext bits change; a healthy configuration flips each output bit about
half the time. The throughput benchmark reports wall-clock MB/s for single-
and multi-process runs. Neither asserts pass/fail thresholds itself; they
produce reports for callers (and the test suite) to judge.
"""
from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import ca, cipher
from .cipher import BLOCK_BYTES, CipherParams, SecretKey, SeededRidSource

FLIP_TARGETS = ("plaintext", "key")
MAX_WORKERS = 64  # throughput_bench's process cap; fixed, so a count means the same on any host
MAX_MEGABYTES = 64  # throughput_bench's payload cap: its peak stays under 1 GiB (610 MiB at 64)
MAX_TRIALS = 1_000_000  # avalanche's trial cap: a trial holds about 300 bytes at once


@dataclass(frozen=True)
class AvalancheReport:
    trials: int
    flip_target: str
    mean_flip_fraction: float
    per_bit_flip_frequency: np.ndarray  # 128 entries in [0, 1]


def _flip_bit(data: bytes, bit_index: int) -> bytes:
    out = bytearray(data)
    out[bit_index // 8] ^= 0x80 >> (bit_index % 8)
    return bytes(out)


def avalanche(
    key: SecretKey,
    params: CipherParams,
    trials: int,
    flip_target: str = "plaintext",
    rng: np.random.Generator | None = None,
) -> AvalancheReport:
    """Measure ciphertext bit-flip frequencies under single-bit input flips.

    Each trial draws a fresh plaintext and rid, encrypts, flips one uniformly
    chosen bit of the plaintext (or of the key), re-encrypts with the same
    rid, and records which of the 128 ciphertext bits differ.
    """
    trials = ca.as_count(trials, "trials", 1, MAX_TRIALS)
    if flip_target not in FLIP_TARGETS:
        raise ValueError(f"flip_target must be one of {FLIP_TARGETS}")
    rng = rng or np.random.default_rng()

    if flip_target == "plaintext":
        diff_bits = _avalanche_plaintext(key, params, trials, rng)
    else:
        diff_bits = _avalanche_key(key, params, trials, rng)
    per_bit = diff_bits.mean(axis=0)
    return AvalancheReport(
        trials=trials,
        flip_target=flip_target,
        mean_flip_fraction=float(per_bit.mean()),
        per_bit_flip_frequency=per_bit,
    )


def _avalanche_plaintext(
    key: SecretKey, params: CipherParams, trials: int, rng: np.random.Generator
) -> np.ndarray:
    plaintexts = rng.integers(0, 256, size=(trials, BLOCK_BYTES), dtype=np.uint8)
    flipped = plaintexts.copy()
    positions = rng.integers(0, 8 * BLOCK_BYTES, size=trials)
    flipped[np.arange(trials), positions // 8] ^= (0x80 >> (positions % 8)).astype(np.uint8)
    rids = rng.bytes(trials * BLOCK_BYTES)
    base = cipher._encrypt_padded(plaintexts.tobytes(), key, params, rids)
    var = cipher._encrypt_padded(flipped.tobytes(), key, params, rids)
    return np.unpackbits(base[:, :BLOCK_BYTES] ^ var[:, :BLOCK_BYTES], axis=1)


def _avalanche_key(
    key: SecretKey, params: CipherParams, trials: int, rng: np.random.Generator
) -> np.ndarray:
    # trial by trial: plaintext, rid, then key bit, the order the seed fixes
    draws = [
        (rng.bytes(BLOCK_BYTES), rng.bytes(BLOCK_BYTES), int(rng.integers(0, 8 * len(key.raw))))
        for _ in range(trials)
    ]
    plaintexts, rids, positions = zip(*draws)
    blocks = np.frombuffer(b"".join(plaintexts), dtype=np.uint8).reshape(trials, BLOCK_BYTES)
    rid_rows = np.frombuffer(b"".join(rids), dtype=np.uint8).reshape(trials, BLOCK_BYTES)
    base = cipher._encrypt_padded(blocks.tobytes(), key, params, rid_rows.tobytes())
    # one batch per flipped bit, so each neighbouring key is built once
    positions = np.array(positions)
    diffs = np.empty((trials, 8 * BLOCK_BYTES), dtype=np.uint8)
    for position in np.unique(positions):
        rows = np.flatnonzero(positions == position)
        flipped_key = cipher.parse_key(_flip_bit(key.raw, int(position)))
        var = cipher._encrypt_padded(blocks[rows].tobytes(), flipped_key, params,
                                     rid_rows[rows].tobytes())
        diffs[rows] = np.unpackbits(base[rows, :BLOCK_BYTES] ^ var[:, :BLOCK_BYTES], axis=1)
    return diffs


# --- throughput ------------------------------------------------------------

@dataclass(frozen=True)
class ThroughputReport:
    megabytes: int
    workers: int
    encrypt_single_mbps: float
    decrypt_single_mbps: float
    encrypt_multi_mbps: float
    decrypt_multi_mbps: float
    round_trip_ok: bool
    parallel_matches_serial: bool

    @property
    def encrypt_speedup(self) -> float:
        return self.encrypt_multi_mbps / self.encrypt_single_mbps


def throughput_bench(
    key: SecretKey,
    params: CipherParams,
    megabytes: int = 1,
    workers: int | None = None,
    rng: np.random.Generator | None = None,
) -> ThroughputReport:
    """Wall-clock throughput of stream encryption, serial and multi-process.

    The padded payload and a deterministic rid stream are cut into one slab
    per worker. Each stage is mapped over the slabs in this process (the serial
    run), then over the pool, so the serial run makes the workers' calls and
    pays their per-call cost. The pool's records must equal the serial ones and
    every decryption must give back its slab; both are checked on every run.
    Workers are started before timing begins, as in a long-lived tool.
    `workers` must be in 1..MAX_WORKERS; None means one per CPU, up to that.
    """
    megabytes = ca.as_count(megabytes, "megabytes", 1, MAX_MEGABYTES)
    if workers is None:
        workers = min(os.cpu_count() or 1, MAX_WORKERS)
    workers = ca.as_count(workers, "workers", 1, MAX_WORKERS)
    rng = rng or np.random.default_rng()
    padded = cipher.pad(rng.bytes(megabytes * 1_000_000))
    n_blocks = len(padded) // BLOCK_BYTES
    rids = SeededRidSource(b"bench-rid")(n_blocks)
    per = -(-n_blocks // workers) * BLOCK_BYTES  # slab bytes, rounded up; the last may be short
    plain = [padded[lo : lo + per] for lo in range(0, len(padded), per)]
    rid_slabs = [rids[lo : lo + per] for lo in range(0, len(rids), per)]
    del padded, rids  # only the slabs are kept

    seconds = []  # encrypt, decrypt; serial, then multi

    def timed(mapper, stage, data, *more):
        t0 = time.perf_counter()
        parts = list(mapper(stage, data, repeat(key), repeat(params), *more))
        seconds.append(time.perf_counter() - t0)
        return parts

    records = timed(map, cipher._encrypt_padded, plain, rid_slabs)
    round_trip_ok = timed(map, cipher._decrypt_records_raw, records) == plain
    with ProcessPoolExecutor(max_workers=workers) as pool:
        list(pool.map(int, range(workers)))  # spin the workers up
        enc_parts = timed(pool.map, cipher._encrypt_padded, plain, rid_slabs)
        dec_parts = timed(pool.map, cipher._decrypt_records_raw, records)
    parallel_ok = all(map(np.array_equal, enc_parts, records)) and dec_parts == plain

    return ThroughputReport(megabytes, workers, *(megabytes / s for s in seconds),
                            round_trip_ok, parallel_ok)
