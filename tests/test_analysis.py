import tracemalloc

import numpy as np
import pytest

from rpca import analysis, cipher
from rpca.analysis import (
    MAX_MEGABYTES,
    MAX_TRIALS,
    MAX_WORKERS,
    ThroughputReport,
    avalanche,
    throughput_bench,
)
from rpca.cipher import CipherParams, encrypt_block, parse_key

PARAMS = CipherParams(rounds=2, caf_steps=8)


def key_for(seed):
    return parse_key(np.random.default_rng(seed).bytes(32))


class NoDraws:
    """An rng stand-in that fails if anything is drawn from it."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} was used before the check")


class TestAvalanche:
    def test_report_shape_and_bounds(self):
        report = avalanche(key_for(0), PARAMS, trials=64, rng=np.random.default_rng(1))
        assert report.trials == 64
        assert report.per_bit_flip_frequency.shape == (128,)
        assert 0.0 <= report.mean_flip_fraction <= 1.0
        assert ((report.per_bit_flip_frequency >= 0) & (report.per_bit_flip_frequency <= 1)).all()

    def test_mean_is_average_of_per_bit_frequencies(self):
        report = avalanche(key_for(2), PARAMS, trials=50, rng=np.random.default_rng(3))
        assert report.mean_flip_fraction == pytest.approx(
            float(report.per_bit_flip_frequency.mean())
        )

    def test_determinism_guard_no_flip_means_no_diff(self):
        key = key_for(4)
        rng = np.random.default_rng(5)
        p, rid = rng.bytes(16), rng.bytes(16)
        a = encrypt_block(p, key, PARAMS, rid)
        b = encrypt_block(p, key, PARAMS, rid)
        assert a.ciphertext == b.ciphertext
        # and flipping a bit twice is the same as not flipping at all
        flipped_back = bytes([p[0] ^ 0x01 ^ 0x01]) + p[1:]
        c = encrypt_block(flipped_back, key, PARAMS, rid)
        assert c.ciphertext == a.ciphertext

    def test_key_flip_target(self):
        report = avalanche(
            key_for(6), PARAMS, trials=20, flip_target="key", rng=np.random.default_rng(7)
        )
        assert report.flip_target == "key"
        assert report.mean_flip_fraction > 0.0

    def test_seeded_key_flip_report_matches_per_trial_reference(self):
        # 300 trials over 256 key bits: most bits batch one trial, some several
        key, trials = key_for(12), 300
        report = avalanche(key, PARAMS, trials, "key", rng=np.random.default_rng(13))
        rng = np.random.default_rng(13)
        diffs = np.empty((trials, 128), np.uint8)
        for t in range(trials):
            plaintext, rid = rng.bytes(16), rng.bytes(16)
            position = int(rng.integers(0, 256))
            raw = bytearray(key.raw)
            raw[position // 8] ^= 0x80 >> (position % 8)
            base = encrypt_block(plaintext, key, PARAMS, rid).ciphertext
            var = encrypt_block(plaintext, parse_key(bytes(raw)), PARAMS, rid).ciphertext
            diffs[t] = np.unpackbits(np.frombuffer(base, np.uint8) ^ np.frombuffer(var, np.uint8))
        assert np.array_equal(report.per_bit_flip_frequency, diffs.mean(axis=0))
        assert report.mean_flip_fraction == float(diffs.mean(axis=0).mean())

    def test_degenerate_config_still_reports(self):
        # weakest allowed parameters: report exists and stays in bounds
        report = avalanche(
            key_for(8), CipherParams(rounds=1, caf_steps=2), trials=16,
            rng=np.random.default_rng(9),
        )
        assert 0.0 <= report.mean_flip_fraction <= 1.0

    def test_default_params_diffuse_well(self):
        report = avalanche(
            key_for(10), CipherParams(), trials=200, rng=np.random.default_rng(11)
        )
        assert 0.4 <= report.mean_flip_fraction <= 0.6

    def test_validation(self):
        with pytest.raises(ValueError):
            avalanche(key_for(0), PARAMS, trials=0)
        with pytest.raises(ValueError):
            avalanche(key_for(0), PARAMS, trials=1, flip_target="rid")

    @pytest.mark.parametrize("trials", [0, MAX_TRIALS + 1, 10**12])
    def test_trial_count_out_of_range_rejected_before_drawing(self, trials):
        with pytest.raises(ValueError, match=f"trials must be in 1..{MAX_TRIALS}"):
            avalanche(key_for(0), PARAMS, trials=trials, rng=NoDraws())


class TestThroughputBench:
    def test_one_megabyte_report(self):
        report = throughput_bench(
            key_for(12), CipherParams(rounds=2, caf_steps=4), megabytes=1, workers=2,
            rng=np.random.default_rng(13),
        )
        for value in (
            report.encrypt_single_mbps,
            report.decrypt_single_mbps,
            report.encrypt_multi_mbps,
            report.decrypt_multi_mbps,
        ):
            assert np.isfinite(value) and value > 0
        assert report.round_trip_ok
        assert report.parallel_matches_serial
        # both directions run the same CA step count
        ratio = report.encrypt_single_mbps / report.decrypt_single_mbps
        assert 1 / 3 <= ratio <= 3

    def test_default_workers_is_one_per_cpu(self, monkeypatch):
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: 1)  # so one process starts
        report = throughput_bench(key_for(3), CipherParams(rounds=1, caf_steps=2),
                                  rng=np.random.default_rng(4))
        assert report.workers == 1
        assert report.round_trip_ok and report.parallel_matches_serial

    def test_peak_memory_is_a_small_multiple_of_the_payload(self):
        # the serial and the pooled runs share one set of slabs, so the peak holds
        # a few copies of the payload, not whole-payload records beside them
        key, params = key_for(5), CipherParams(rounds=1, caf_steps=2)
        cipher._encrypt_padded(bytes(16), key, params, bytes(16))  # expands the key untraced
        tracemalloc.start()
        try:
            report = throughput_bench(key, params, megabytes=2, workers=2,
                                      rng=np.random.default_rng(6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.round_trip_ok and report.parallel_matches_serial
        assert peak < 12 * 2_000_000, f"peak {peak / 2_000_000:.1f}x the payload"

    def test_encrypt_speedup_is_multi_over_single(self):
        report = ThroughputReport(1, 2, 0.5, 0.6, 1.5, 1.2, True, True)
        assert report.encrypt_speedup == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            throughput_bench(key_for(0), PARAMS, megabytes=0)

    @pytest.mark.parametrize("workers", [0, -1, MAX_WORKERS + 1])
    def test_worker_count_out_of_range_rejected(self, monkeypatch, workers):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(analysis, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ValueError, match=f"workers must be in 1..{MAX_WORKERS}"):
            throughput_bench(key_for(0), PARAMS, workers=workers, rng=NoDraws())

    def test_fractional_megabytes_rejected_before_drawing(self):
        # megabytes=1.5 was accepted and reported as 1.5
        with pytest.raises(ValueError, match="megabytes must be an integer, got 1.5"):
            throughput_bench(key_for(0), PARAMS, megabytes=1.5, workers=1, rng=NoDraws())

    @pytest.mark.parametrize("megabytes", [MAX_MEGABYTES + 1, 10**7])
    def test_megabytes_above_the_cap_rejected_before_drawing(self, megabytes):
        with pytest.raises(ValueError, match=f"megabytes must be in 1..{MAX_MEGABYTES}"):
            throughput_bench(key_for(0), PARAMS, megabytes=megabytes, workers=1, rng=NoDraws())
