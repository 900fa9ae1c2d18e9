"""The benchmark's four workloads and the checks on their outputs.

Every workload is a closed loop: one client in this process sends its next
operation only after the last one completed. Inputs come from the workload
seed alone; the program under test only ever sees the generated inputs.
Output checks run between operations, outside the timed intervals. Each
operation returns the (start, end) intervals that make up its latency; the
end-to-end figures scale them to the reference speed (see speed.py).

bulk_default  1 MB file through ``rpca.cli.main`` encrypt then decrypt,
              rounds=10, steps=32: the CAF core (second_order) does ~90% of
              the work, so a faster or leaner core shows here.
bulk_rounds   the same file with rounds=64, steps=2: the CAF core shrinks to
              a few percent and rounds, rid generation, packing, record
              objects and read_container dominate; a CAF kernel that adds
              fixed per-call cost shows here as a loss.
small_msgs    messages of 0..4 KiB through encrypt_stream, write_container,
              read_container, decrypt_stream, a quarter of them under a key
              never seen before: fixed per-message cost, not bulk rate.
explore       cycle_structure census, the reversible-rule enumeration and
              pca half-cycle cipher round trips: the per-cell CA path that
              the CAF core shares through ca.neighborhood_index.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import statistics
import struct
import sys
import time
from pathlib import Path

import numpy as np

from rpca import analysis, ca, cipher, cli, container, pca
from rpca.ca import Boundary
from rpca.cipher import CipherParams, SeededRidSource, parse_key
from rpca.container import ContainerError, ContainerHeader

MB = 1_000_000
BLOCK = 16
RECORD = 32
HEADER = struct.Struct(">4sBBHQ2s")  # the RPC1 header, written out from the format table
FRESH_KEY_SAMPLES = 16  # unseen keys timed for cipher.key_setup_ms
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


class Tally:
    """Operations attempted and failed; the first few failures go to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 10:
                print(f"check failed: {what}: {'; '.join(problems)}", file=sys.stderr)


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten samples beyond it, and its value."""
    for q in TAIL_PERCENTILES:
        if len(values) * (100 - q) / 100 >= 10:
            return q, float(np.percentile(values, q))
    return None


def latency_lines(name: str, seconds: list[float], what: str) -> list[str]:
    ms = [s * 1e3 for s in seconds]
    lines = [f"{name}_p50_ms {statistics.median(ms):.4f} ms (median of {len(ms)} {what})"]
    t = tail(ms)
    if t is None:
        lines.append(f"{name}_tail_ms n/a ({len(ms)} {what}: too few for a tail with 10 beyond)")
    else:
        q, v = t
        lines.append(f"{name}_p{q:g}_ms {v:.4f} ms (p{q:g} of {len(ms)} {what})")
    return lines


def median_rate(batches, speed) -> tuple[float, float]:
    """Median over (amount, intervals) batches of amount per second: scaled, then raw."""
    scaled = [amount / speed.total(ivs) for amount, ivs in batches]
    raw = [amount / _raw(ivs) for amount, ivs in batches]
    return statistics.median(scaled), statistics.median(raw)


def _rate_line(name: str, unit: str, rates: tuple[float, float], what: str) -> str:
    return f"{name} {rates[0]:.6g} {unit} at reference speed ({rates[1]:.6g} as measured; {what})"


def _rid(seed: bytes, index: int) -> bytes:
    # SeededRidSource's stream: block i gets sha256(seed || i as 8 big-endian bytes)[:16]
    return hashlib.sha256(seed + index.to_bytes(8, "big")).digest()[:BLOCK]


def _fresh_key_setup_ms(rng: np.random.Generator, rounds: int) -> float:
    """Median ms of derive_round_material for the last round on keys never seen."""
    samples = []
    for _ in range(FRESH_KEY_SAMPLES):
        key = parse_key(rng.bytes(32))
        t0 = time.perf_counter()
        cipher.derive_round_material(key, rounds - 1)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def _raw(intervals) -> float:
    return sum(b - a for a, b in intervals)


# --- bulk ------------------------------------------------------------------------

class Bulk:
    """One seeded 1 MB file, encrypted then decrypted through cli.main per operation."""

    ORACLE_SAMPLES = 3  # records per operation run backwards by the naive oracle
    SAMPLE_INSIDE_CALLS = True  # a cli call lasts seconds; speed must be sampled within it

    def __init__(self, name: str, rounds: int, steps: int, seed: int, tmp: Path, helpers, speed):
        self.name, self.rounds, self.steps, self.seed = name, rounds, steps, seed
        self.helpers, self.speed = helpers, speed
        self.rng = np.random.default_rng([seed, 1])
        self.data = self.rng.bytes(MB)
        self.key_raw = self.rng.bytes(32)
        self.key_path = tmp / "bench.key"
        self.key_path.write_bytes(self.key_raw)
        self.plain_path = tmp / "plain.bin"
        self.plain_path.write_bytes(self.data)
        self.warm_path = tmp / "warm.bin"
        self.warm_path.write_bytes(self.data[:4096])
        self.sealed_path = tmp / "sealed.rpca"
        self.opened_path = tmp / "opened.bin"
        self.caf_mask = self.key_raw[16:32]
        caf_bits = helpers.bits_of_bytes(self.caf_mask)
        self.caf_rule_number = sum(bit << p for p, bit in enumerate(caf_bits))
        self.n_blocks = len(self.data) // BLOCK + 1
        self.encrypt_iv: list[tuple[float, float]] = []
        self.decrypt_iv: list[tuple[float, float]] = []
        self.tally = Tally()
        self.params = {"megabytes": len(self.data) / MB, "rounds": rounds, "steps": steps,
                       "oracle_records_per_op": self.ORACLE_SAMPLES}
        self.cipher_params = (rounds, steps)

    def _round_trip(self, rid_seed: bytes, plain: Path):
        enc = ["encrypt", "--key", str(self.key_path), "--in", str(plain),
               "--out", str(self.sealed_path), "--rounds", str(self.rounds),
               "--steps", str(self.steps), "--seed", rid_seed.hex()]
        dec = ["decrypt", "--key", str(self.key_path), "--in", str(self.sealed_path),
               "--out", str(self.opened_path)]
        sink = io.StringIO()
        self.speed.maybe_sample()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            rc_enc = cli.main(enc)
            t1 = time.perf_counter()
            self.speed.maybe_sample()
            t2 = time.perf_counter()
            rc_dec = cli.main(dec)
            t3 = time.perf_counter()
        self.speed.maybe_sample()
        return rc_enc, rc_dec, (t0, t1), (t2, t3)

    def warm(self) -> None:
        """One small untimed file so first-call costs do not land on operation 0."""
        self._round_trip(b"warm", self.warm_path)

    def op(self, i: int):
        rid_seed = self.seed.to_bytes(8, "big") + i.to_bytes(4, "big")
        rc_enc, rc_dec, enc_iv, dec_iv = self._round_trip(rid_seed, self.plain_path)
        self.encrypt_iv.append(enc_iv)
        self.decrypt_iv.append(dec_iv)
        self.tally.record(self._check(rc_enc, rc_dec, rid_seed), f"{self.name} op {i}")
        return [enc_iv, dec_iv]

    def _check(self, rc_enc: int, rc_dec: int, rid_seed: bytes) -> list[str]:
        if rc_enc or rc_dec:
            return [f"exit codes encrypt={rc_enc} decrypt={rc_dec}"]
        problems = []
        blob = self.sealed_path.read_bytes()
        if len(blob) != HEADER.size + RECORD * self.n_blocks:
            problems.append(f"container is {len(blob)} bytes")
        want = HEADER.pack(b"RPC1", 1, self.rounds, self.steps, len(self.data), b"\0\0")
        if blob[: HEADER.size] != want:
            problems.append(f"header {blob[:HEADER.size].hex()} != {want.hex()}")
        h = self.helpers
        for b in self.rng.choice(self.n_blocks, size=self.ORACLE_SAMPLES, replace=False):
            at = HEADER.size + RECORD * int(b)
            ciphertext, masked = blob[at : at + BLOCK], blob[at + BLOCK : at + RECORD]
            final = bytes(x ^ k for x, k in zip(masked, self.caf_mask))
            # backwards from (ciphertext, final data): the last row reached is the rid
            _, rid_bits, _ = h.naive_so_run(h.bits_of_bytes(final), h.bits_of_bytes(ciphertext),
                                            self.caf_rule_number, 3, "cyclic", self.steps)
            if h.bytes_of_bits(rid_bits) != _rid(rid_seed, int(b)):
                problems.append(f"oracle: record {int(b)} does not run back to its rid")
        if self.opened_path.read_bytes() != self.data:
            problems.append("decrypted file differs from the input")
        return problems

    def alloc_op(self) -> None:
        self._round_trip(b"alloc", self.plain_path)

    def end_to_end(self) -> tuple[dict[str, float], list[str]]:
        sp, mb = self.speed, len(self.data) / MB
        enc = median_rate([(mb, [iv]) for iv in self.encrypt_iv], sp)
        dec = median_rate([(mb, [iv]) for iv in self.decrypt_iv], sp)
        trips = [sp.scaled(*e) + sp.scaled(*d) for e, d in zip(self.encrypt_iv, self.decrypt_iv)]
        metrics = {"encrypt_MBps": enc[0], "decrypt_MBps": dec[0],
                   "op_p50_ms": statistics.median(trips) * 1e3}
        files = f"median of {len(self.encrypt_iv)} files of {mb:g} MB"
        lines = [_rate_line("encrypt_MBps", "MB/s", enc, files),
                 _rate_line("decrypt_MBps", "MB/s", dec, files)]
        lines += latency_lines("op", trips, "file round trips")
        return metrics, lines

    def traced_extras(self) -> dict[str, float]:
        out = {"cipher.key_setup_ms": _fresh_key_setup_ms(self.rng, self.rounds)}
        if self.name == "bulk_default":
            out.update(self._two_workers())
        return out

    def _two_workers(self) -> dict[str, float]:
        report = analysis.throughput_bench(
            parse_key(self.key_raw), CipherParams(self.rounds, self.steps), megabytes=1,
            workers=2, rng=np.random.default_rng([self.seed, 3]))
        problems = []
        if not report.round_trip_ok:
            problems.append("round_trip_ok is false")
        if not report.parallel_matches_serial:
            problems.append("parallel_matches_serial is false")
        self.tally.record(problems, "analysis.throughput_bench(workers=2)")
        speedups = (report.encrypt_multi_mbps / report.encrypt_single_mbps,
                    report.decrypt_multi_mbps / report.decrypt_single_mbps)
        return {"analysis.encrypt_2w_MBps": report.encrypt_multi_mbps,
                "analysis.decrypt_2w_MBps": report.decrypt_multi_mbps,
                "analysis.parallel_efficiency": sum(speedups) / (2 * report.workers)}


# --- small messages ------------------------------------------------------------------

class SmallMsgs:
    """Message round trips through the library: seal, write, read, open."""

    FIXED_SIZES = (0, 1, 15, 16, 17)  # padding edges, sent first
    MAX_SIZE = 4096
    STRATUM = 64  # sizes are log-uniform, stratified per 64 messages
    HOT_KEYS = 8  # well inside the 256-entry key caches
    FRESH_EVERY = 4  # one message in each group of 4 uses a key never seen before
    DAMAGE_EVERY = 20  # one container in each group of 20 is also read back damaged
    # The reserved header field is left alone: whether a non-zero value must be
    # rejected is still undecided, so there is no answer to check yet.
    DAMAGE_KINDS = ("truncated", "bad_magic", "bad_version", "zero_rounds", "record_count")
    # A message takes milliseconds: sampling between messages is close enough, and a
    # calibration landing inside one disturbed it (quartile spread 1% between, 3-5% inside).
    SAMPLE_INSIDE_CALLS = False

    def __init__(self, seed: int, speed):
        self.speed = speed
        self.rng = np.random.default_rng([seed, 2])
        self.cparams = CipherParams()
        self.hot = [parse_key(self.rng.bytes(32)) for _ in range(self.HOT_KEYS)]
        self.messages = self._messages()
        self.encrypt_iv: list[tuple[float, float]] = []
        self.decrypt_iv: list[tuple[float, float]] = []
        self.sizes: list[int] = []
        self.damaged = 0
        self.tally = Tally()
        self.params = {"sizes": f"0..{self.MAX_SIZE} log-uniform plus {list(self.FIXED_SIZES)}",
                       "rounds": self.cparams.rounds, "steps": self.cparams.caf_steps,
                       "hot_keys": self.HOT_KEYS, "fresh_key_every": self.FRESH_EVERY,
                       "damaged_every": self.DAMAGE_EVERY}
        self.cipher_params = (self.cparams.rounds, self.cparams.caf_steps)

    def _sizes(self):
        yield from self.FIXED_SIZES
        log_top = np.log(self.MAX_SIZE + 1)
        while True:
            u = (self.rng.permutation(self.STRATUM) + self.rng.random(self.STRATUM)) / self.STRATUM
            yield from (int(s) for s in np.floor(np.exp(u * log_top)) - 1)

    def _messages(self):
        rng = self.rng
        kinds: list[str] = []
        for i, size in enumerate(self._sizes()):
            if i % self.FRESH_EVERY == 0:
                fresh_at = i + int(rng.integers(self.FRESH_EVERY))
            if i % self.DAMAGE_EVERY == 0:
                damage_at = i + int(rng.integers(self.DAMAGE_EVERY))
                if not kinds:
                    kinds = [self.DAMAGE_KINDS[k] for k in rng.permutation(len(self.DAMAGE_KINDS))]
            if i == fresh_at:
                key = parse_key(rng.bytes(32))
            else:
                key = self.hot[int(rng.integers(self.HOT_KEYS))]
            damage = kinds.pop() if i == damage_at else None
            yield rng.bytes(size), key, rng.bytes(8) + i.to_bytes(4, "big"), damage

    def warm(self) -> None:
        self._round_trip(self.rng.bytes(100), self.hot[0], b"warm")

    def _round_trip(self, payload, key, rid_seed):
        p = self.cparams
        t0 = time.perf_counter()
        records = cipher.encrypt_stream(payload, key, p, SeededRidSource(rid_seed))
        blob = container.write_container(ContainerHeader(p.rounds, p.caf_steps, len(payload)), records)
        t1 = time.perf_counter()
        header, back = container.read_container(blob)
        plain = cipher.decrypt_stream(back, key, CipherParams(header.rounds, header.caf_steps))
        t2 = time.perf_counter()
        return blob, header, plain, (t0, t1), (t1, t2)

    def op(self, i: int):
        payload, key, rid_seed, damage = next(self.messages)
        blob, header, plain, enc_iv, dec_iv = self._round_trip(payload, key, rid_seed)
        self.encrypt_iv.append(enc_iv)
        self.decrypt_iv.append(dec_iv)
        self.sizes.append(len(payload))
        problems = []
        if plain != payload:
            problems.append("decrypted message differs")
        if (header.rounds, header.caf_steps, header.plaintext_length) != (
                self.cparams.rounds, self.cparams.caf_steps, len(payload)):
            problems.append(f"header read back as {header}")
        if len(blob) != HEADER.size + RECORD * (len(payload) // BLOCK + 1):
            problems.append(f"container of {len(blob)} bytes for {len(payload)}")
        self.tally.record(problems, f"message {i} ({len(payload)} bytes)")
        if damage is not None:
            self._check_damaged(self._damage(blob, damage), f"message {i} {damage}")
        return [enc_iv, dec_iv]

    def _damage(self, blob: bytes, kind: str) -> bytes:
        rng, out = self.rng, bytearray(blob)
        if kind == "truncated":
            return blob[: int(rng.integers(len(blob)))]
        if kind == "bad_magic":
            out[int(rng.integers(4))] ^= 1 << int(rng.integers(8))
        elif kind == "bad_version":
            out[4] = int(rng.choice([0, *range(2, 256)]))
        elif kind == "zero_rounds":
            out[5] = 0
        elif rng.integers(2):  # record_count: one record too many
            out += rng.bytes(RECORD)
        else:  # or one too few
            del out[-RECORD:]
        return bytes(out)

    def _check_damaged(self, blob: bytes, what: str) -> None:
        self.damaged += 1
        try:
            container.read_container(blob)
        except ContainerError:
            problems = []
        except Exception as exc:  # any other exception type is the failure being checked for
            problems = [f"raised {type(exc).__name__}: {exc}, not ContainerError"]
        else:
            problems = ["damaged container was accepted"]
        self.tally.record(problems, what)

    def alloc_op(self) -> None:
        self._round_trip(self.rng.bytes(self.MAX_SIZE), self.hot[0], b"alloc")

    def end_to_end(self) -> tuple[dict[str, float], list[str]]:
        sp = self.speed
        # rates per stratum of 64 messages, whose size mix is fixed, then the median
        n, first = len(self.sizes), len(self.FIXED_SIZES)
        starts = range(first, n - self.STRATUM + 1, self.STRATUM)
        spans = [slice(b, b + self.STRATUM) for b in starts] or [slice(0, n)]
        enc = median_rate([(sum(self.sizes[s]) / MB, self.encrypt_iv[s]) for s in spans], sp)
        dec = median_rate([(sum(self.sizes[s]) / MB, self.decrypt_iv[s]) for s in spans], sp)
        latency = [sp.scaled(*e) + sp.scaled(*d) for e, d in zip(self.encrypt_iv, self.decrypt_iv)]
        metrics = {"encrypt_MBps": enc[0], "decrypt_MBps": dec[0],
                   "op_p50_ms": statistics.median(latency) * 1e3}
        what = f"median of {len(spans)} batches; {n} messages, {sum(self.sizes)} bytes"
        lines = [_rate_line("encrypt_MBps", "MB/s", enc, what),
                 _rate_line("decrypt_MBps", "MB/s", dec, what)]
        lines += latency_lines("msg", latency, "messages")
        lines.append(f"damaged_containers {self.damaged} count (each must raise ContainerError)")
        return metrics, lines

    def traced_extras(self) -> dict[str, float]:
        return {"cipher.key_setup_ms": _fresh_key_setup_ms(self.rng, self.cparams.rounds)}


# --- CA exploration ----------------------------------------------------------------

class Explore:
    """One operation is a pass over a fixed list of CA queries."""

    VECTOR = (51, 51, 195, 153)  # repeated over the cells, from a seeded phase
    CENSUS = [(rule, cells, boundary)
              for cells in (16, 18) for rule in ("vector", "rule30") for boundary in ("null", "cyclic")]
    CENSUS.append(("vector", 20, "null"))
    ENUM_SIZES = [4, 5, 6, 7, 8]
    REVERSIBLE_ELEMENTARY = {15, 51, 85, 170, 204, 240}
    PCA_CELLS = (12, 14, 16)
    PCA_STATES = 64  # round trips per (cells, boundary) in every pass
    CENSUS_SAMPLES = 8  # cycle states per census whose successor the oracle recomputes
    SAMPLE_INSIDE_CALLS = True  # a 20-cell census lasts over a second

    def __init__(self, seed: int, helpers, speed):
        self.h, self.speed = helpers, speed
        self.rng = np.random.default_rng([seed, 4])
        phase = int(self.rng.integers(len(self.VECTOR)))
        self.vector_numbers = self.VECTOR[phase:] + self.VECTOR[:phase]
        self.queries = [(self._rules(rule, cells), rule, cells, Boundary(b))
                        for rule, cells, b in self.CENSUS]
        self.orbits = [item for cells in self.PCA_CELLS for b in ("null", "cyclic")
                       for item in self._orbit_items(cells, b)]
        # per pass: all intervals, then those of the census, cycle_encipher and cycle_decipher
        self.passes: list[list[tuple[float, float]]] = []
        self.census_iv: list[list[tuple[float, float]]] = []
        self.encipher_iv: list[list[tuple[float, float]]] = []
        self.decipher_iv: list[list[tuple[float, float]]] = []
        # work per pass: states classified, automaton steps walked, bytes per direction
        self.pass_states = sum(1 << cells for _, cells, _ in self.CENSUS)
        self.pass_steps = sum(3 * item[-1] for item in self.orbits)  # walk the orbit, then half
        self.pass_bytes = sum(len(item[0]) / 8 for item in self.orbits)
        self.tally = Tally()
        self.params = {"census": [f"{r}@{c}/{b}" for r, c, b in self.CENSUS],
                       "vector": list(self.vector_numbers),
                       "enumerate_sizes": self.ENUM_SIZES,
                       "pca_cells": list(self.PCA_CELLS), "pca_states_per_config": self.PCA_STATES}
        self.cipher_params = (cipher.DEFAULT_ROUNDS, cipher.DEFAULT_CAF_STEPS)

    def _rules(self, rule: str, cells: int):
        if rule == "rule30":
            return ca.make_rule(1, 30)
        numbers = (self.vector_numbers * (cells // len(self.VECTOR) + 1))[:cells]
        return [ca.make_rule(1, n) for n in numbers]

    def _orbit_items(self, cells: int, boundary: str):
        """Seeded states under a fixed control program, with orbit lengths from the oracle."""
        controls = np.array([((i * 5) % 3 == 0, (i * 7) % 4 < 2) for i in range(cells)],
                            dtype=np.uint8)
        rules = pca.induced_rule_vector(controls, pca.TABLE_51_195_153)
        numbers = [r.number for r in rules]
        items = []
        while len(items) < self.PCA_STATES:
            state = [int(b) for b in self.rng.integers(0, 2, size=cells)]
            period = self._naive_period(state, numbers, boundary, limit=64)
            if period and period % 2 == 0:
                items.append((np.array(state, dtype=np.uint8), rules, Boundary(boundary),
                              numbers, period))
        return items

    def _naive_period(self, state, numbers, boundary, limit):
        current = state
        for n in range(1, limit + 1):
            current = self.h.naive_step(current, numbers, 1, boundary)
            if current == state:
                return n
        return None

    def warm(self) -> None:
        ca.cycle_structure(ca.make_rule(1, 30), Boundary.CYCLIC, 8)

    def op(self, i: int):
        intervals, census, enc, dec = [], [], [], []
        for rules, rule, cells, boundary in self.queries:
            self.speed.maybe_sample()
            t0 = time.perf_counter()
            report = ca.cycle_structure(rules, boundary, cells)
            iv = (t0, time.perf_counter())
            self.speed.sample()
            intervals.append(iv)
            census.append(iv)
            self.tally.record(self._check_census(report, rules, cells, boundary),
                              f"cycle_structure {rule}@{cells}/{boundary.value}")
        t0 = time.perf_counter()
        found = ca.enumerate_reversible_elementary(1, self.ENUM_SIZES)
        intervals.append((t0, time.perf_counter()))
        self.tally.record([] if found == self.REVERSIBLE_ELEMENTARY else [f"found {sorted(found)}"],
                          "enumerate_reversible_elementary")
        with self.speed.between_calls():
            for state, rules, boundary, numbers, period in self.orbits:
                self.speed.maybe_sample()
                t0 = time.perf_counter()
                sealed = pca.cycle_encipher(state, rules, boundary)
                t1 = time.perf_counter()
                opened = pca.cycle_decipher(sealed, rules, boundary)
                t2 = time.perf_counter()
                intervals += [(t0, t1), (t1, t2)]
                enc.append((t0, t1))
                dec.append((t1, t2))
                self.tally.record(self._check_orbit(state, sealed, opened, numbers, boundary, period),
                                  f"pca round trip on {len(state)} cells")
        self.passes.append(intervals)
        self.census_iv.append(census)
        self.encipher_iv.append(enc)
        self.decipher_iv.append(dec)
        return intervals

    def _check_census(self, report, rules, cells, boundary) -> list[str]:
        codes = np.fromiter(itertools.chain(itertools.chain.from_iterable(report.cycles),
                                            report.transient_states), dtype=np.int64)
        if codes.size != 1 << cells or np.bincount(codes, minlength=1 << cells).max() != 1:
            return ["states are not partitioned into cycles and transients"]
        numbers = [rules.number] if isinstance(rules, ca.Rule) else [r.number for r in rules]
        cycles = report.cycles
        for k in self.rng.choice(len(cycles), size=min(self.CENSUS_SAMPLES, len(cycles)),
                                 replace=False):
            cycle = cycles[int(k)]
            j = int(self.rng.integers(len(cycle)))
            state = [int(c) for c in format(cycle[j], f"0{cells}b")]
            nxt = self.h.naive_step(state, numbers, 1, boundary.value)
            if int("".join(map(str, nxt)), 2) != cycle[(j + 1) % len(cycle)]:
                return [f"cycle {int(k)} does not follow the rule at state {cycle[j]}"]
        return []

    def _check_orbit(self, state, sealed, opened, numbers, boundary, period) -> list[str]:
        expect = [int(b) for b in state]
        for _ in range(period // 2):
            expect = self.h.naive_step(expect, numbers, 1, boundary.value)
        problems = []
        if [int(b) for b in sealed] != expect:
            problems.append("enciphered state is not half an orbit ahead")
        if not np.array_equal(opened, state):
            problems.append("deciphered state differs")
        return problems

    def alloc_op(self) -> None:
        pass  # the allocation pass covers the cipher layers, which explore does not use

    def end_to_end(self) -> tuple[dict[str, float], list[str]]:
        sp, n = self.speed, len(self.passes)
        mb = self.pass_bytes / MB
        enc = median_rate([(mb, ivs) for ivs in self.encipher_iv], sp)
        dec = median_rate([(mb, ivs) for ivs in self.decipher_iv], sp)
        census = median_rate([(self.pass_states, ivs) for ivs in self.census_iv], sp)
        orbit = median_rate([(self.pass_steps, e + d)
                             for e, d in zip(self.encipher_iv, self.decipher_iv)], sp)
        passes = [sp.total(p) for p in self.passes]
        metrics = {"encrypt_MBps": enc[0], "decrypt_MBps": dec[0],
                   "op_p50_ms": statistics.median(passes) * 1e3}
        lines = [_rate_line("census_states_per_s", "1/s", census,
                            f"median of {n} passes of {self.pass_states} states"),
                 _rate_line("orbit_steps_per_s", "1/s", orbit,
                            f"median of {n} passes of {self.pass_steps} automaton steps"),
                 _rate_line("encrypt_MBps", "MB/s", enc,
                            f"pca cycle_encipher, median of {n} passes of {len(self.orbits)} states"),
                 _rate_line("decrypt_MBps", "MB/s", dec,
                            f"pca cycle_decipher, median of {n} passes of {len(self.orbits)} states")]
        lines += latency_lines("op", passes, "passes")
        return metrics, lines

    def traced_extras(self) -> dict[str, float]:
        return {}


WORKLOADS = ("bulk_default", "bulk_rounds", "small_msgs", "explore")


def make(name: str, seed: int, tmp: Path, helpers, speed):
    if name == "bulk_default":
        return Bulk(name, 10, 32, seed, tmp, helpers, speed)
    if name == "bulk_rounds":
        return Bulk(name, 64, 2, seed, tmp, helpers, speed)
    if name == "small_msgs":
        return SmallMsgs(seed, speed)
    if name == "explore":
        return Explore(seed, helpers, speed)
    raise ValueError(f"unknown workload {name!r}")
