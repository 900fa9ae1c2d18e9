import argparse
import contextlib
import errno
import hashlib
import io
import re
import os
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpca import analysis, ca, cli
from rpca.ca import Boundary
from rpca.cli import RESEARCH_WARNING, load_key, main
from rpca.cipher import (
    CipherError,
    CipherParams,
    KeyFormatError,
    SeededRidSource,
    decrypt_stream,
    encrypt_stream,
    parse_key,
)
from rpca.container import ContainerError, ContainerHeader, read_container, write_container

from helpers import SRC, child_peak_mib


class NoDraws:
    """An rng stand-in that fails if anything is drawn from it."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} was used before the check")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKeygen:
    def test_writes_32_bytes(self, tmp_path, capsys):
        out = tmp_path / "k.key"
        code, _, _ = run(capsys, "keygen", "--out", str(out))
        assert code == 0
        assert len(out.read_bytes()) == 32

    def test_two_invocations_differ(self, tmp_path, capsys):
        a, b = tmp_path / "a.key", tmp_path / "b.key"
        run(capsys, "keygen", "--out", str(a))
        run(capsys, "keygen", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_restrictive_mode(self, tmp_path, capsys):
        out = tmp_path / "k.key"
        run(capsys, "keygen", "--out", str(out))
        assert (out.stat().st_mode & 0o777) == 0o600

    def test_seeded_keygen_is_reproducible(self, tmp_path, capsys):
        a, b = tmp_path / "a.key", tmp_path / "b.key"
        run(capsys, "keygen", "--out", str(a), "--seed", "ab12")
        run(capsys, "keygen", "--out", str(b), "--seed", "ab12")
        assert a.read_bytes() == b.read_bytes()

    def test_key_over_a_world_readable_file_is_never_world_readable(
        self, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "k.key"
        out.write_bytes(b"old")
        out.chmod(0o644)

        def refuse(*args, **kwargs):
            raise PermissionError(errno.EPERM, "chmod refused")

        monkeypatch.setattr(os, "chmod", refuse)  # the key must not rely on a later chmod
        assert run(capsys, "keygen", "--out", str(out))[0] == 0
        monkeypatch.undo()
        assert len(out.read_bytes()) == 32
        assert (out.stat().st_mode & 0o777) == 0o600

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_key_through_a_pipe_keeps_the_pipe_mode(self, tmp_path, capsys):
        fifo = tmp_path / "key.fifo"
        os.mkfifo(fifo)
        fifo.chmod(0o644)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code, _, _ = run(capsys, "keygen", "--out", str(fifo))
        reader.join(timeout=10)
        assert code == 0
        assert not reader.is_alive() and len(received[0]) == 32
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert (fifo.stat().st_mode & 0o777) == 0o644


class TestEncryptDecrypt:
    @pytest.mark.parametrize("size", [0, 1, 100, 5000])
    def test_file_round_trip(self, tmp_path, capsys, size):
        key = tmp_path / "k.key"
        src = tmp_path / "plain.bin"
        enc = tmp_path / "data.rpca"
        dec = tmp_path / "plain.out"
        src.write_bytes(np.random.default_rng(size).bytes(size))

        assert run(capsys, "keygen", "--out", str(key))[0] == 0
        code, _, err = run(
            capsys, "encrypt", "--key", str(key), "--in", str(src), "--out", str(enc),
            "--rounds", "2", "--steps", "4",
        )
        assert code == 0
        assert RESEARCH_WARNING in err
        assert enc.stat().st_size == 18 + 32 * (size // 16 + 1)
        code, _, _ = run(capsys, "decrypt", "--key", str(key), "--in", str(enc), "--out", str(dec))
        assert code == 0
        assert dec.read_bytes() == src.read_bytes()

    @pytest.mark.parametrize("rounds,steps", [(1, 2), (64, 1024)])
    def test_extreme_parameter_combinations(self, tmp_path, capsys, rounds, steps):
        src, enc, dec = tmp_path / "p", tmp_path / "c", tmp_path / "q"
        src.write_bytes(b"parameter sweep")
        key = "11" * 32
        code, _, _ = run(
            capsys, "encrypt", "--key", key, "--in", str(src), "--out", str(enc),
            "--rounds", str(rounds), "--steps", str(steps),
        )
        assert code == 0
        code, _, _ = run(capsys, "decrypt", "--key", key, "--in", str(enc), "--out", str(dec))
        assert code == 0
        assert dec.read_bytes() == b"parameter sweep"

    def test_hex_key_accepted(self, tmp_path, capsys):
        src, enc, dec = tmp_path / "p", tmp_path / "c", tmp_path / "q"
        src.write_bytes(b"attack at dawn")
        hex_key = "00112233445566778899aabbccddeeff" * 2
        code, _, _ = run(
            capsys, "encrypt", "--key", hex_key, "--in", str(src), "--out", str(enc),
            "--rounds", "1", "--steps", "2",
        )
        assert code == 0
        code, _, _ = run(capsys, "decrypt", "--key", hex_key, "--in", str(enc), "--out", str(dec))
        assert code == 0
        assert dec.read_bytes() == b"attack at dawn"

    def test_seeded_encryption_is_deterministic(self, tmp_path, capsys):
        src = tmp_path / "p"
        src.write_bytes(b"hello" * 20)
        key = "ff" * 32
        outs = []
        for name in ("c1", "c2"):
            out = tmp_path / name
            code, _, _ = run(
                capsys, "encrypt", "--key", key, "--in", str(src), "--out", str(out),
                "--seed", "0042", "--rounds", "2", "--steps", "4",
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_unseeded_encryption_is_randomized(self, tmp_path, capsys):
        src = tmp_path / "p"
        src.write_bytes(b"hello")
        key = "ff" * 32
        blobs = []
        for name in ("c1", "c2"):
            out = tmp_path / name
            run(capsys, "encrypt", "--key", key, "--in", str(src), "--out", str(out),
                "--rounds", "1", "--steps", "2")
            blobs.append(out.read_bytes())
        assert blobs[0] != blobs[1]

    def test_wrong_key_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.key"
        bad.write_bytes(b"short")
        src = tmp_path / "p"
        src.write_bytes(b"x")
        code, _, err = run(
            capsys, "encrypt", "--key", str(bad), "--in", str(src), "--out", str(tmp_path / "c")
        )
        assert code == 2
        assert "32 bytes" in err

    def test_wrong_key_names_the_record_and_the_key(self, tmp_path, capsys):
        src, enc, dec = tmp_path / "p", tmp_path / "c", tmp_path / "q"
        src.write_bytes(b"seventeen bytes!!" * 3)  # 51 bytes: 4 blocks, the last at 18 + 32 * 3
        code, _, _ = run(
            capsys, "encrypt", "--key", "11" * 32, "--in", str(src), "--out", str(enc),
            "--seed", "07", "--rounds", "2", "--steps", "4",
        )
        assert code == 0
        code, _, err = run(capsys, "decrypt", "--key", "22" * 32, "--in", str(enc), "--out", str(dec))
        assert code == 2
        assert "invalid padding trailer" in err
        assert "block 3, the record at byte 114" in err
        assert "wrong key" in err
        assert not dec.exists()

    def test_header_length_disagreement_hints_at_the_key(self, tmp_path, capsys):
        src, enc, dec = tmp_path / "p", tmp_path / "c", tmp_path / "q"
        src.write_bytes(bytes(51))
        key = "11" * 32
        run(capsys, "encrypt", "--key", key, "--in", str(src), "--out", str(enc),
            "--rounds", "1", "--steps", "2")
        blob = bytearray(enc.read_bytes())
        blob[8:16] = (50).to_bytes(8, "big")  # still 4 records, but not the decrypted length
        enc.write_bytes(bytes(blob))
        code, _, err = run(capsys, "decrypt", "--key", key, "--in", str(enc), "--out", str(dec))
        assert code == 2
        assert "decrypted length 51 disagrees with header 50" in err
        assert "wrong key" in err

    def test_corrupt_container_is_data_error(self, tmp_path, capsys):
        blob = tmp_path / "c.rpca"
        blob.write_bytes(b"NOPE" + bytes(46))
        code, _, err = run(
            capsys, "decrypt", "--key", "00" * 32, "--in", str(blob), "--out", str(tmp_path / "p")
        )
        assert code == 2
        assert "magic" in err

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "encrypt", "--key", "00" * 32, "--in", str(tmp_path / "absent"),
            "--out", str(tmp_path / "c"),
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["encrypt", "decrypt", "keygen"])
    def test_failed_write_keeps_existing_output(self, tmp_path, capsys, monkeypatch, command):
        src, enc, out = tmp_path / "plain.bin", tmp_path / "data.rpca", tmp_path / "old.out"
        src.write_bytes(bytes(range(256)) * 4)
        key = "00" * 32
        assert run(capsys, "encrypt", "--key", key, "--in", str(src), "--out", str(enc),
                   "--rounds", "1", "--steps", "2")[0] == 0
        out.write_bytes(b"output of an earlier run")
        before = sorted(p.name for p in tmp_path.iterdir())
        argv = [command, "--key", key, "--in", str(src if command == "encrypt" else enc),
                "--out", str(out)]
        if command == "keygen":
            argv = [command, "--out", str(out)]

        class DiskFull:
            """Writes half of the data, then fails like a full disk."""

            def __init__(self, path, mode):
                self.file = open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def write(self, data):
                self.file.write(data[: len(data) // 2])
                self.file.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "open", DiskFull, raising=False)
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "No space left" in err
        assert out.read_bytes() == b"output of an earlier run"
        assert sorted(p.name for p in tmp_path.iterdir()) == before

        monkeypatch.undo()
        assert run(capsys, *argv)[0] == 0
        assert out.read_bytes() != b"output of an earlier run"
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_output_to_a_pipe_is_written_not_replaced(self, tmp_path, capsys):
        src, fifo = tmp_path / "plain.bin", tmp_path / "out.fifo"
        src.write_bytes(b"through a pipe")
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code, _, _ = run(capsys, "encrypt", "--key", "00" * 32, "--in", str(src),
                         "--out", str(fifo), "--rounds", "1", "--steps", "2")
        reader.join(timeout=10)
        assert code == 0
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert not reader.is_alive() and len(received[0]) == 18 + 32

    @pytest.mark.parametrize("command", ["encrypt", "decrypt", "keygen"])
    def test_output_is_synced_before_the_rename(self, tmp_path, capsys, monkeypatch, command):
        src, enc, out = tmp_path / "plain.bin", tmp_path / "data.rpca", tmp_path / "out"
        src.write_bytes(b"synced first")
        key = "00" * 32
        assert run(capsys, "encrypt", "--key", key, "--in", str(src), "--out", str(enc),
                   "--rounds", "1", "--steps", "2")[0] == 0
        argv = {"encrypt": ["--key", key, "--in", str(src)],
                "decrypt": ["--key", key, "--in", str(enc)], "keygen": []}[command]
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_size))
            real_fsync(fd)

        def replace(a, b):
            calls.append(("replace", Path(b).name))
            real_replace(a, b)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        assert run(capsys, command, *argv, "--out", str(out))[0] == 0
        assert calls == [("fsync", out.stat().st_size), ("replace", "out")]
        assert out.stat().st_size > 0

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("signum", ["SIGTERM", "SIGHUP"])
    def test_a_killed_encrypt_leaves_no_temp_file(self, tmp_path, signum):
        # the signal comes while the child waits for its second chunk on a pipe: it
        # dies by that signal, and --out keeps its old bytes with nothing beside it
        signum = getattr(signal, signum)
        fifo, out = tmp_path / "in.fifo", tmp_path / "sealed.rpca"
        out.write_bytes(b"output of an earlier run")
        os.mkfifo(fifo)
        done = threading.Event()

        def feed():  # one whole chunk, then the pipe stays open until the test ends
            with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as f:
                f.write(bytes(16 * cli._CHUNK_BLOCKS))
                f.flush()
                done.wait(120)

        # both signals at their default, as from a shell, even if this run ignores one
        code = ("import signal, sys\n"
                "for s in (signal.SIGTERM, signal.SIGHUP): signal.signal(s, signal.SIG_DFL)\n"
                "from rpca.cli import main\nsys.exit(main(sys.argv[1:]))")
        child = subprocess.Popen(
            [sys.executable, "-c", code, "encrypt", "--key", "00" * 32, "--in", str(fifo),
             "--out", str(out), "--rounds", "1", "--steps", "2"],
            stderr=subprocess.DEVNULL, env={**os.environ, "PYTHONPATH": str(SRC)})
        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        try:
            written = 18 + 32 * cli._CHUNK_BLOCKS  # the header's place and the chunk's records
            deadline = time.monotonic() + 60
            while not [p for p in tmp_path.glob(".sealed.rpca.*.tmp") if p.stat().st_size == written]:
                assert child.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            child.send_signal(signum)
            assert child.wait(timeout=60) == -signum
        finally:
            done.set()
            child.kill()
            child.wait()
            feeder.join(timeout=10)
        assert sorted(tmp_path.iterdir()) == [fifo, out]
        assert out.read_bytes() == b"output of an earlier run"

    def test_signals_are_caught_only_while_a_command_runs(self, tmp_path, capsys, monkeypatch):
        # SIGTERM at its default is caught; SIGHUP ignored (as under nohup) stays ignored
        seen, real = [], cli._write_atomic

        def spy(*args, **kwargs):
            seen.append((signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGHUP)))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "_write_atomic", spy)
        before = signal.signal(signal.SIGTERM, signal.SIG_DFL), signal.signal(signal.SIGHUP, signal.SIG_IGN)
        try:
            code, _, _ = run(capsys, "keygen", "--out", str(tmp_path / "k"), "--seed", "01")
            after = signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGHUP)
        finally:
            signal.signal(signal.SIGTERM, before[0])
            signal.signal(signal.SIGHUP, before[1])
        assert code == 0
        assert seen == [(cli._killed, signal.SIG_IGN)]
        assert after == (signal.SIG_DFL, signal.SIG_IGN)

    def test_a_command_runs_off_the_main_thread(self, tmp_path, capsys):
        # signal.signal raises there, so main installs no handlers
        codes = []
        argv = ["keygen", "--out", str(tmp_path / "k"), "--seed", "01"]
        worker = threading.Thread(target=lambda: codes.append(main(argv)))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive() and codes == [0], capsys.readouterr().err

    def test_out_of_range_rounds_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "p"
        src.write_bytes(b"x")
        code, _, _ = run(
            capsys, "encrypt", "--key", "00" * 32, "--in", str(src),
            "--out", str(tmp_path / "c"), "--rounds", "99",
        )
        assert code == 2


CHUNK = 4  # blocks per chunk in the tests below, so chunk edges fall every 64 bytes
EDGE_KEY = "3c" * 32
EDGE_PARAMS = CipherParams(rounds=2, caf_steps=4)
# 0-17 bytes, then chunk - 1, chunk and chunk + 1 blocks, each also +- 1 byte, then two
# whole chunks (an empty read follows them, and the padding block is a chunk of its own)
# and three chunks and a bit
EDGE_SIZES = [0, 1, 15, 16, 17] + [
    16 * blocks + d for blocks in (CHUNK - 1, CHUNK, CHUNK + 1) for d in (-1, 0, 1)
] + [16 * 2 * CHUNK, 16 * 3 * CHUNK + 5]


def sealed(plain: bytes, seed: bytes) -> bytes:
    """The container of `plain` built in one piece, with seeded rids."""
    key, params = parse_key(bytes.fromhex(EDGE_KEY)), EDGE_PARAMS
    records = encrypt_stream(plain, key, params, SeededRidSource(seed))
    return write_container(ContainerHeader(params.rounds, params.caf_steps, len(plain)), records)


def source(path: Path, data: bytes, through: str) -> threading.Thread | None:
    """Make `path` yield `data`: a file, or a named pipe fed by the thread returned."""
    if through == "file":
        path.write_bytes(data)
        return None
    os.mkfifo(path)

    def feed():
        with contextlib.suppress(BrokenPipeError), open(path, "wb") as f:
            f.write(data)

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    return feeder


NEEDS_FIFO = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
THROUGH = ["file", pytest.param("fifo", marks=NEEDS_FIFO)]


def edge_argv(command: str, infile: Path, outfile: Path) -> list[str]:
    argv = [command, "--key", EDGE_KEY, "--in", str(infile), "--out", str(outfile)]
    if command == "encrypt":
        argv += ["--rounds", str(EDGE_PARAMS.rounds), "--steps", str(EDGE_PARAMS.caf_steps),
                 "--seed", b"edges".hex()]
    return argv


class TestChunkedStreams:
    """encrypt and decrypt hold one chunk at a time; the bytes are the whole-stream ones."""

    @pytest.mark.parametrize("through", THROUGH)
    @pytest.mark.parametrize("size", EDGE_SIZES)
    def test_chunk_edges_leave_the_bytes_as_in_one_piece(
        self, tmp_path, capsys, monkeypatch, size, through
    ):
        monkeypatch.setattr(cli, "_CHUNK_BLOCKS", CHUNK)
        plain = np.random.default_rng(size).bytes(size)
        want = sealed(plain, b"edges")
        enc, dec = tmp_path / "sealed.rpca", tmp_path / "opened.bin"
        feeders = [source(tmp_path / "plain", plain, through)]
        code, out, _ = run(capsys, *edge_argv("encrypt", tmp_path / "plain", enc))
        assert code == 0
        assert f"encrypted {size} bytes into {size // 16 + 1} blocks" in out
        assert enc.read_bytes() == want
        feeders.append(source(tmp_path / "again.rpca", want, through))
        code, out, _ = run(capsys, *edge_argv("decrypt", tmp_path / "again.rpca", dec))
        assert code == 0
        assert f"decrypted {size // 16 + 1} blocks" in out
        assert dec.read_bytes() == plain
        for feeder in filter(None, feeders):
            feeder.join(timeout=10)
            assert not feeder.is_alive()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_output_through_a_pipe_has_the_same_bytes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_CHUNK_BLOCKS", CHUNK)
        plain, fifo = tmp_path / "plain", tmp_path / "out.fifo"
        plain.write_bytes(bytes(range(200)))  # 13 blocks: 4 chunks, the header written last
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert run(capsys, *edge_argv("encrypt", plain, fifo))[0] == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [sealed(bytes(range(200)), b"edges")]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.fifo", "plain"]

    def test_in_and_out_may_name_the_same_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_CHUNK_BLOCKS", CHUNK)
        path = tmp_path / "data"
        plain = bytes(range(256)) * 3  # 49 blocks: 13 chunks
        path.write_bytes(plain)
        assert run(capsys, *edge_argv("encrypt", path, path))[0] == 0
        assert path.read_bytes() == sealed(plain, b"edges")
        assert run(capsys, *edge_argv("decrypt", path, path))[0] == 0
        assert path.read_bytes() == plain
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("through", THROUGH)  # a pipe is checked only at its end
    def test_errors_in_the_last_chunk_name_the_global_block(
        self, tmp_path, capsys, monkeypatch, through
    ):
        monkeypatch.setattr(cli, "_CHUNK_BLOCKS", CHUNK)
        enc, dec = tmp_path / "sealed.rpca", tmp_path / "opened.bin"
        blob = bytearray(sealed(bytes(100), b"x"))  # 7 records: a full chunk, then 3
        feeders = [source(enc, bytes(blob), through)]
        code, _, err = run(capsys, "decrypt", "--key", "5a" * 32, "--in", str(enc),
                           "--out", str(dec))
        assert code == 2
        assert "invalid padding trailer" in err
        assert "block 6, the record at byte 210: wrong key or damaged file" in err
        blob[8:16] = (99).to_bytes(8, "big")  # still 7 records, but not the decrypted length
        enc = tmp_path / "relabelled.rpca"
        feeders.append(source(enc, bytes(blob), through))
        code, _, err = run(capsys, *edge_argv("decrypt", enc, dec))
        assert code == 2
        assert "decrypted length 100 disagrees with header 99: wrong key" in err
        assert not dec.exists()
        for feeder in filter(None, feeders):
            feeder.join(timeout=10)
            assert not feeder.is_alive()

    def test_a_wrong_key_fails_on_the_last_record_before_any_chunk(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "_CHUNK_BLOCKS", CHUNK)
        monkeypatch.setattr(cli, "_decrypt_records_raw",
                            lambda *args: pytest.fail("a chunk was decrypted before the tail"))
        enc, dec = tmp_path / "sealed.rpca", tmp_path / "opened.bin"
        enc.write_bytes(sealed(bytes(100), b"x"))  # 7 records: a full chunk, then 3
        dec.write_bytes(b"earlier")
        code, _, err = run(capsys, "decrypt", "--key", "5a" * 32, "--in", str(enc),
                           "--out", str(dec))
        assert code == 2
        assert "block 6, the record at byte 210: wrong key or damaged file" in err
        assert dec.read_bytes() == b"earlier"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["opened.bin", "sealed.rpca"]

    @pytest.mark.parametrize("through,size,runs", [
        ("file", 40, [3]),  # 3 records, one chunk: the late check alone
        ("file", 100, [1, 3]),  # 7 records: the last record first, then the last chunk
        pytest.param("fifo", 100, [3], marks=NEEDS_FIFO),  # a pipe only at its end
    ])
    def test_the_tail_is_opened_early_only_for_a_file_of_several_chunks(
        self, tmp_path, capsys, monkeypatch, through, size, runs
    ):
        monkeypatch.setattr(cli, "_CHUNK_BLOCKS", CHUNK)
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return decrypt_stream(*args)

        monkeypatch.setattr(cli, "decrypt_stream", counted)
        enc, dec = tmp_path / "sealed.rpca", tmp_path / "opened.bin"
        feeder = source(enc, sealed(bytes(size), b"x"), through)
        assert run(capsys, *edge_argv("decrypt", enc, dec))[0] == 0
        assert dec.read_bytes() == bytes(size)
        assert calls == runs  # records per decrypt_stream call
        if feeder:
            feeder.join(timeout=10)
            assert not feeder.is_alive()

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_zeros_fail_on_the_magic(self, tmp_path, capsys):
        out = tmp_path / "opened.bin"
        code, _, err = run(capsys, "decrypt", "--key", EDGE_KEY, "--in", "/dev/zero",
                           "--out", str(out))
        assert code == 2
        assert "bad magic" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(sys.platform != "linux", reason="opens a named pipe read-write")
    def test_bytes_after_the_records_fail_having_read_one_of_them(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "_CHUNK_BLOCKS", CHUNK)
        fifo, out = tmp_path / "in.fifo", tmp_path / "opened.bin"
        os.mkfifo(fifo)
        extra = b"trailing bytes"
        # the test holds the write end, so the reader finds no end of input
        fd = os.open(fifo, os.O_RDWR | os.O_NONBLOCK)
        try:
            os.write(fd, sealed(bytes(150), b"x") + extra)  # 10 records, 3 chunks
            code, _, err = run(capsys, "decrypt", "--key", EDGE_KEY, "--in", str(fifo),
                               "--out", str(out))
            left = os.read(fd, 1024)
        finally:
            os.close(fd)
        assert code == 2
        assert "input continues past the 10 records the header announces" in err
        assert left == extra[1:]
        assert list(tmp_path.iterdir()) == [fifo]

    @pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
    def test_memory_does_not_grow_with_the_file(self, tmp_path):
        # Each command's child peak at 8 MB against 1 MB: one chunk is 1 MiB of
        # plaintext, so a bounded command grows by well under 4 MiB.
        rng = np.random.default_rng(23)
        peaks = {}
        for mb in (1, 8):
            plain, enc = tmp_path / f"{mb}.bin", tmp_path / f"{mb}.rpca"
            plain.write_bytes(rng.bytes(mb * 10**6))
            common = ["--key", EDGE_KEY, "--out"]
            runs = {
                "encrypt --seed": ["encrypt", *common, str(tmp_path / "seeded.rpca"),
                                   "--in", str(plain), "--rounds", "1", "--steps", "2",
                                   "--seed", "01"],
                "encrypt": ["encrypt", *common, str(enc), "--in", str(plain),
                            "--rounds", "1", "--steps", "2"],
                "decrypt": ["decrypt", *common, str(tmp_path / "opened.bin"), "--in", str(enc)],
            }
            for name, argv in runs.items():
                code = f"from rpca import cli\nassert cli.main({argv!r}) == 0"
                peaks[name, mb] = child_peak_mib(code)
        for name in ("encrypt --seed", "encrypt", "decrypt"):
            assert peaks[name, 8] - peaks[name, 1] < 4, (name, peaks)


def rpca_child(argv: list[str], stdout) -> subprocess.CompletedProcess:
    """Run `rpca argv` in a fresh interpreter with `stdout` as its fd 1; exit 0 required."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-m", "rpca.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, check=True)


class TestOutputPaths:
    """`--out` names the file to replace: a link is followed, a directory fails first."""

    @pytest.mark.skipif(sys.platform != "linux", reason="names an open file by /proc/self/fd")
    def test_an_fd_link_to_a_file_writes_that_file(self, tmp_path, capsys):
        # as /dev/stdout does when stdout is redirected to a file
        target = tmp_path / "k.key"
        target.write_bytes(b"old")
        fd = os.open(target, os.O_WRONLY)
        try:
            code, _, err = run(capsys, "keygen", "--out", f"/proc/self/fd/{fd}", "--seed", "01")
        finally:
            os.close(fd)
        assert code == 0, err
        assert target.read_bytes() == SeededRidSource(b"\x01/keygen")(2)
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    @pytest.mark.parametrize("redirect", ["ab", "wb", "pipe"])
    def test_out_to_dev_stdout_writes_through_stdout(self, tmp_path, redirect):
        # the shell's `>> g`, `> g` and `| ...`: the key, then the status line, after what was there
        g = tmp_path / "g"
        g.write_bytes(b"earlier\n")
        argv = ["keygen", "--out", "/dev/stdout", "--seed", "01"]
        if redirect == "pipe":
            got = rpca_child(argv, subprocess.PIPE).stdout
        else:
            with g.open(redirect) as stdout:
                rpca_child(argv, stdout)
            got = g.read_bytes()
        earlier = b"earlier\n" if redirect == "ab" else b""
        line = b"wrote 32-byte key to /dev/stdout\n"
        assert got == earlier + SeededRidSource(b"\x01/keygen")(2) + line
        assert sorted(tmp_path.iterdir()) == [g]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_encrypt_to_dev_stdout_appends_the_container(self, tmp_path, capsys):
        plain, sealed_file, g = tmp_path / "plain", tmp_path / "sealed.rpca", tmp_path / "g"
        plain.write_bytes(bytes(range(100)))
        g.write_bytes(b"earlier\n")
        argv = ["encrypt", "--key", EDGE_KEY, "--in", str(plain), "--seed", "0c"]
        assert run(capsys, *argv, "--out", str(sealed_file))[0] == 0
        with g.open("ab") as stdout:
            rpca_child([*argv, "--out", "/dev/stdout"], stdout)
        got = g.read_bytes()
        assert got.startswith(b"earlier\n" + sealed_file.read_bytes())
        assert got.endswith(b"-> /dev/stdout\n")

    def test_a_symlink_stays_and_its_target_is_replaced(self, tmp_path, capsys):
        target, link = tmp_path / "k.key", tmp_path / "link.key"
        target.write_bytes(b"old")
        link.symlink_to(target)
        assert run(capsys, "keygen", "--out", str(link), "--seed", "01")[0] == 0
        assert os.readlink(link) == str(target)
        assert target.read_bytes() == SeededRidSource(b"\x01/keygen")(2)
        assert sorted(tmp_path.iterdir()) == [target, link]

    def test_a_symlink_loop_is_replaced_by_the_file(self, tmp_path, capsys):
        loop = tmp_path / "loop"
        loop.symlink_to(loop)
        assert run(capsys, "keygen", "--out", str(loop), "--seed", "01")[0] == 0
        assert not loop.is_symlink()
        assert loop.read_bytes() == SeededRidSource(b"\x01/keygen")(2)
        assert list(tmp_path.iterdir()) == [loop]

    @pytest.mark.parametrize("command", ["keygen", "encrypt", "decrypt"])
    def test_a_directory_fails_before_any_block_is_processed(
        self, tmp_path, capsys, monkeypatch, command
    ):
        plain, enc, outdir = tmp_path / "plain", tmp_path / "sealed.rpca", tmp_path / "outdir"
        plain.write_bytes(bytes(100))
        enc.write_bytes(sealed(bytes(100), b"x"))
        outdir.mkdir()
        for name in ("_encrypt_padded", "encrypt_stream", "_decrypt_records_raw",
                     "decrypt_stream"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
        argv = {"keygen": ["keygen", "--out", str(outdir)],
                "encrypt": edge_argv("encrypt", plain, outdir),
                "decrypt": edge_argv("decrypt", enc, outdir)}[command]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{outdir}'" in err
        assert list(outdir.iterdir()) == []


FUZZ_CONTAINERS = [sealed(bytes(range(size)), b"fuzz") for size in (0, 70, 150)]  # 1, 2, 3 chunks


def decrypted_whole(blob: bytes) -> bytes | None:
    """What decrypting `blob` in one piece gives, or None if that fails."""
    key = parse_key(bytes.fromhex(EDGE_KEY))
    try:
        header, records = read_container(blob)
        data = decrypt_stream(records, key, CipherParams(header.rounds, header.caf_steps))
    except (ContainerError, CipherError):
        return None
    return data if len(data) == header.plaintext_length else None


def assert_decrypts_as_in_one_piece(blob: bytes, through: str = "file") -> None:
    """The chunked CLI accepts exactly what the whole-file reader accepts, with its bytes,
    from a file (whose size is checked up front) or a pipe (read to its end).

    On exit 2 the earlier output is unchanged and no temp file is left.
    """
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_CHUNK_BLOCKS", CHUNK):
        src, out = Path(tmp) / "in.rpca", Path(tmp) / "out.bin"
        feeder = source(src, blob, through)
        out.write_bytes(b"output of an earlier run")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(["decrypt", "--key", EDGE_KEY, "--in", str(src), "--out", str(out)])
        if feeder is not None:
            feeder.join(timeout=10)
            assert not feeder.is_alive()
        want = decrypted_whole(blob)
        assert code == (2 if want is None else 0), sink.getvalue()
        assert out.read_bytes() == (b"output of an earlier run" if want is None else want)
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["in.rpca", "out.bin"]


class TestChunkedReaderFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes(self, blob):
        assert_decrypts_as_in_one_piece(blob)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_after_a_valid_prefix(self, tail):
        assert_decrypts_as_in_one_piece(b"RPC1\x01" + tail)

    @pytest.mark.parametrize("through", THROUGH)
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(FUZZ_CONTAINERS), st.data())
    def test_truncations(self, through, blob, data):
        assert_decrypts_as_in_one_piece(blob[: data.draw(st.integers(0, len(blob) - 1))], through)

    @pytest.mark.parametrize("through", THROUGH)
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FUZZ_CONTAINERS), st.data())
    def test_single_bit_flips(self, through, blob, data):
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 0x80 >> (bit % 8)
        assert_decrypts_as_in_one_piece(bytes(flipped), through)


class TestBench:
    def test_report_lines_in_order(self, capsys):
        code, out, _ = run(capsys, "bench", "--mb", "1", "--workers", "1", "--rounds", "1",
                           "--steps", "2", "--seed", "01")  # starts one worker process
        assert code == 0
        title, *lines = out.splitlines()
        assert title == "benchmarked 1 MB with 1 workers"
        assert [line.split("=")[0] for line in lines] == [
            "megabytes", "workers", "encrypt_single_mbps", "decrypt_single_mbps",
            "encrypt_multi_mbps", "decrypt_multi_mbps", "round_trip_ok",
            "parallel_matches_serial",
        ]
        assert lines[:2] == ["megabytes=1", "workers=1"]
        for line in lines[2:6]:
            assert re.fullmatch(r"\w+=\d+\.\d{3}", line)
        assert lines[6:] == ["round_trip_ok=True", "parallel_matches_serial=True"]

    def test_zero_workers_is_data_error_without_a_pool(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(analysis, "ProcessPoolExecutor", no_pool)
        code, _, err = run(capsys, "bench", "--workers", "0", "--rounds", "1", "--steps", "2")
        assert code == 2
        assert "workers" in err

    def test_megabytes_above_the_cap_is_data_error_before_drawing(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_rng_and_key", lambda args: (NoDraws(), parse_key(bytes(32))))
        code, _, err = run(capsys, "bench", "--mb", "10000000", "--workers", "1", "--seed", "01")
        assert code == 2
        assert f"megabytes must be in 1..{analysis.MAX_MEGABYTES}" in err


class TestGivenKey:
    """`avalanche --key` and `bench --key` measure the given key, not a drawn one."""

    @pytest.mark.parametrize("command,harness,argv", [
        ("avalanche", "avalanche", ["--trials", "5"]),
        ("bench", "throughput_bench", ["--workers", "1"]),
    ])
    def test_key_reaches_the_harness(self, capsys, monkeypatch, command, harness, argv):
        seen = []

        def record(key, *args, **kwargs):
            seen.append(key.raw)
            raise ValueError("stopped after the key")

        monkeypatch.setattr(analysis, harness, record)
        code, _, err = run(capsys, command, *argv, "--key", "5a" * 32, "--seed", "01")
        assert code == 2 and "stopped after the key" in err
        assert seen == [bytes.fromhex("5a" * 32)]

    @pytest.mark.parametrize("command", ["avalanche", "bench"])
    def test_bad_key_is_data_error(self, capsys, command):
        code, _, err = run(capsys, command, "--key", "not-a-key", "--seed", "01")
        assert code == 2
        assert "neither an existing key file nor 64 hex characters" in err


class TestRules:
    def test_complement_example(self, capsys):
        code, out, _ = run(capsys, "rules", "complement", "236")
        assert code == 0
        assert out.strip() == "19"

    def test_complement_radius_three(self, capsys):
        code, out, _ = run(capsys, "rules", "complement", "0", "--radius", "3")
        assert out.strip() == str((1 << 128) - 1)

    def test_list_reversible(self, capsys):
        code, out, _ = run(capsys, "rules", "list-reversible", "--radius", "1")
        assert code == 0
        assert out.split() == ["15", "51", "85", "170", "204", "240"]

    def test_table_rows(self, capsys):
        code, out, _ = run(capsys, "rules", "table", "51", "--radius", "1")
        lines = out.strip().splitlines()
        assert lines[0] == "111 0"
        assert lines[-1] == "000 1"
        assert len(lines) == 8

    def test_radius_two_enumeration_rejected(self, capsys):
        code, _, err = run(capsys, "rules", "list-reversible", "--radius", "2")
        assert code == 2

    def test_rule_number_out_of_range(self, capsys):
        code, _, err = run(capsys, "rules", "complement", "300")
        assert code == 2
        assert "256" in err


# sha256 of `rpca cycles --cells 20` stdout, formatted from the census lists one state at a time
TWENTY_CELL_STDOUT = [
    (",".join(["51,51,195,153"] * 5), "null",
     "169805b53b1f3640f005961f537fa07892b645cb15fb4977821ef7eff7b45f50"),
    ("30", "cyclic", "0dbe63895b8376dcccc1640f58b7e81e9bf2534d8b8a9e00fb7b0aff9273a7cf"),
]


class TestCycles:
    def test_legacy_vector_cycles(self, capsys):
        code, out, _ = run(
            capsys, "cycles", "--rule-vector", "51,51,195,153", "--cells", "4",
            "--boundary", "null",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        for line in lines:
            assert len(line.split("->")) == 4
        states = [s for line in lines for s in line.split("->")]
        assert len(set(states)) == 16

    def test_legacy_vector_stdout_is_byte_exact(self, capsys):
        code, out, _ = run(
            capsys, "cycles", "--rule-vector", "51,51,195,153", "--cells", "4",
            "--boundary", "null",
        )
        assert code == 0
        assert out == (
            "0000->1111->0010->1101\n"
            "0001->1110->0011->1100\n"
            "0100->1001->0110->1011\n"
            "0101->1000->0111->1010\n"
        )

    def test_transients_are_reported(self, capsys):
        code, out, _ = run(
            capsys, "cycles", "--rule-vector", "204,204,240,170", "--cells", "4",
            "--boundary", "null",
        )
        assert code == 0
        assert "transients:" in out

    def test_uniform_vector(self, capsys):
        code, out, _ = run(
            capsys, "cycles", "--rule-vector", "51", "--cells", "3", "--boundary", "cyclic"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_vector_length_mismatch(self, capsys):
        code, _, _ = run(
            capsys, "cycles", "--rule-vector", "51,51", "--cells", "4", "--boundary", "null"
        )
        assert code == 2

    @pytest.mark.parametrize("cells", ["4", "20"])
    def test_vector_length_mismatch_names_both_counts(self, capsys, cells):
        code, out, err = run(
            capsys, "cycles", "--rule-vector", "51,195,153", "--cells", cells,
            "--boundary", "cyclic",
        )
        assert code == 2
        assert out == ""
        assert f"rule vector has 3 entries; need 1 or {cells} for {cells} cells" in err

    @pytest.mark.parametrize("text,at,entry", [("abc", 0, "abc"), ("51,51,5 1,153", 2, "5 1")])
    def test_bad_vector_entry_is_named(self, capsys, text, at, entry):
        code, out, err = run(
            capsys, "cycles", "--rule-vector", text, "--cells", "4", "--boundary", "null"
        )
        assert code == 2
        assert out == ""
        assert f"rule vector entry {at} must be a decimal rule number, got '{entry}'" in err

    def test_out_of_range_vector_entry_is_named(self, capsys):
        code, out, err = run(
            capsys, "cycles", "--rule-vector", "51,300", "--cells", "2", "--boundary", "null"
        )
        assert code == 2
        assert out == ""
        assert "rule vector entry 1: rule_number out of range" in err
        assert "got 300" in err

    @pytest.mark.parametrize("block", [1, 3, 7, 1 << 16])
    @pytest.mark.parametrize("vector,cells,boundary", [
        ("30", 9, "cyclic"), ("204,204,240,170,204,204", 6, "null"),
        ("51,51,195,153,51,51,195,153", 8, "cyclic"),
    ])
    def test_chunks_of_any_size_print_one_line_per_cycle(
        self, capsys, monkeypatch, block, vector, cells, boundary
    ):
        # small blocks put cycle ends, and cycles, across chunk edges
        report = ca.cycle_structure(ca.parse_rule_vector(vector), Boundary(boundary), cells)
        bits = lambda code: format(code, f"0{cells}b")  # noqa: E731
        expected = "".join("->".join(map(bits, cycle)) + "\n" for cycle in report.cycles)
        if report.transient_states:
            expected += "transients: " + " ".join(map(bits, report.transient_states)) + "\n"
        monkeypatch.setattr(cli, "_FORMAT_BLOCK", block)
        code, out, err = run(capsys, "cycles", "--rule-vector", vector, "--cells", str(cells),
                             "--boundary", boundary)
        assert (code, out, err) == (0, expected, "")

    @pytest.mark.parametrize("vector,boundary,digest", TWENTY_CELL_STDOUT,
                             ids=["vector-null", "30-cyclic"])
    def test_twenty_cell_stdout_is_pinned(self, capsys, vector, boundary, digest):
        code, out, err = run(
            capsys, "cycles", "--rule-vector", vector, "--cells", "20", "--boundary", boundary
        )
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
    @pytest.mark.parametrize("vector,boundary", [case[:2] for case in TWENTY_CELL_STDOUT],
                             ids=["vector-null", "30-cyclic"])
    def test_twenty_cell_command_peaks_under_70_mib(self, vector, boundary):
        # Measured: 60.0-62.4 MiB, against 34.4 for a child that only imports rpca.cli.
        # Formatting from the census lists, the command peaked at 105 and 188 MiB.
        argv = ["cycles", "--rule-vector", vector, "--cells", "20", "--boundary", boundary]
        code = ("import contextlib, os\nfrom rpca import cli\n"
                "with open(os.devnull, 'w') as out, contextlib.redirect_stdout(out):\n"
                f"    assert cli.main({argv!r}) == 0")
        assert child_peak_mib(code) < 70


class TestAvalancheCommand:
    def test_reports_fields(self, capsys):
        code, out, _ = run(
            capsys, "avalanche", "--trials", "30", "--seed", "01", "--rounds", "2",
            "--steps", "4",
        )
        assert code == 0
        assert "mean_flip_fraction=" in out

    def test_deterministic_with_seed(self, capsys):
        args = ("avalanche", "--trials", "25", "--seed", "beef", "--rounds", "2", "--steps", "4")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_key_flip(self, capsys):
        code, out, _ = run(
            capsys, "avalanche", "--trials", "10", "--flip", "key", "--seed", "02",
            "--rounds", "1", "--steps", "2",
        )
        assert code == 0
        assert "flip_target=key" in out

    def test_trials_above_the_cap_is_data_error_before_drawing(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_rng_and_key", lambda args: (NoDraws(), parse_key(bytes(32))))
        code, _, err = run(capsys, "avalanche", "--trials", "1000000000000", "--seed", "01")
        assert code == 2
        assert f"trials must be in 1..{analysis.MAX_TRIALS}" in err


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "usage" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "keygen", "--out", "x", "--frobnicate")
        assert code == 1
        assert "usage" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "transmogrify")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "encrypt", "--key", "00" * 32)
        assert code == 1

    def test_bad_seed_hex(self, tmp_path, capsys):
        code, _, err = run(capsys, "keygen", "--out", str(tmp_path / "k"), "--seed", "zz")
        assert code == 1
        assert "hex" in err

    def test_bad_seed_is_found_before_the_key_is_read(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "encrypt", "--key", str(tmp_path / "absent.key"), "--in", str(tmp_path / "p"),
            "--out", str(tmp_path / "c"), "--seed", "zz",
        )
        assert (code, out) == (1, "")
        assert err.startswith("usage: rpca encrypt")
        assert "argument --seed: must be hex characters, got 'zz'" in err
        assert RESEARCH_WARNING not in err

    @pytest.mark.parametrize("command", ["keygen", "encrypt", "avalanche", "bench"])
    def test_empty_seed(self, tmp_path, capsys, command):
        src, out = tmp_path / "p", tmp_path / "out"
        src.write_bytes(b"x")
        argv = {"keygen": ["--out", str(out)],
                "encrypt": ["--key", "00" * 32, "--in", str(src), "--out", str(out)],
                "avalanche": [], "bench": []}[command]
        code, stdout, err = run(capsys, command, *argv, "--seed", "")
        assert code == 1
        assert stdout == ""
        assert "--seed" in err and "must not be empty" in err
        assert not out.exists()


def option_table(parser, prefix=()):
    """Each (sub)command's options as (flags, dest, default, required, choices)."""
    table = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        choices = list(action.choices) if action.choices is not None else None
        table.setdefault(" ".join(prefix), []).append(
            (action.option_strings, action.dest, action.default, action.required, choices)
        )
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table.update(option_table(sub, (*prefix, name)))
    return table


OPTION_TABLE = {  # help strings left out; taken from the parser before its options were shared
    "": [([], "command", None, True,
          ["keygen", "encrypt", "decrypt", "rules", "cycles", "avalanche", "bench"])],
    "keygen": [(["--out"], "out", None, True, None), (["--seed"], "seed", None, False, None)],
    "encrypt": [(["--key"], "key", None, True, None),
                (["--in"], "infile", None, True, None),
                (["--out"], "out", None, True, None),
                (["--rounds"], "rounds", 10, False, None),
                (["--steps"], "steps", 32, False, None),
                (["--seed"], "seed", None, False, None)],
    "decrypt": [(["--key"], "key", None, True, None),
                (["--in"], "infile", None, True, None),
                (["--out"], "out", None, True, None)],
    "rules": [([], "rules_cmd", None, True, ["list-reversible", "complement", "table"])],
    "rules list-reversible": [(["--radius"], "radius", 1, False, None)],
    "rules complement": [([], "number", None, True, None),
                         (["--radius"], "radius", 1, False, None)],
    "rules table": [([], "number", None, True, None), (["--radius"], "radius", None, True, None)],
    "cycles": [(["--rule-vector"], "rule_vector", None, True, None),
               (["--cells"], "cells", None, True, None),
               (["--boundary"], "boundary", None, True, ["null", "cyclic"])],
    "avalanche": [(["--trials"], "trials", 1000, False, None),
                  (["--flip"], "flip", "plaintext", False, ["plaintext", "key"]),
                  (["--key"], "key", None, False, None),
                  (["--rounds"], "rounds", 10, False, None),
                  (["--steps"], "steps", 32, False, None),
                  (["--seed"], "seed", None, False, None)],
    "bench": [(["--mb"], "mb", 1, False, None),
              (["--workers"], "workers", None, False, None),
              (["--key"], "key", None, False, None),
              (["--rounds"], "rounds", 10, False, None),
              (["--steps"], "steps", 32, False, None),
              (["--seed"], "seed", None, False, None)],
}


def test_option_table_is_pinned():
    assert option_table(cli.build_parser()) == OPTION_TABLE


class TestLoadKey:
    def test_rejects_garbage(self):
        with pytest.raises(KeyFormatError):
            load_key("not-a-key")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_endless_key_file_is_rejected_without_reading_to_the_end(self, tmp_path):
        fifo = tmp_path / "key.fifo"
        os.mkfifo(fifo)
        release = threading.Event()

        def writer():
            fd = os.open(fifo, os.O_WRONLY)
            try:
                os.write(fd, bytes(40))
                release.wait(5)  # holds the pipe open, as an endless source would
            finally:
                os.close(fd)

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            with pytest.raises(KeyFormatError, match="exactly 32 bytes"):
                load_key(str(fifo))
            assert thread.is_alive(), "load_key waited for the writer to close the pipe"
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    @pytest.mark.skipif(sys.platform != "linux", reason="opens a named pipe read-write")
    def test_a_key_pipe_is_read_no_further_than_its_33rd_byte(self, tmp_path):
        fifo = tmp_path / "key.fifo"
        os.mkfifo(fifo)
        # the test holds the write end, so the bytes load_key leaves stay in the pipe
        fd = os.open(fifo, os.O_RDWR | os.O_NONBLOCK)
        try:
            os.write(fd, bytes(range(100)))
            with pytest.raises(KeyFormatError, match="exactly 32 bytes, found more"):
                load_key(str(fifo))
            left = os.read(fd, 1024)
        finally:
            os.close(fd)
        assert left == bytes(range(33, 100))

    def test_rejects_sixty_four_characters_that_are_not_hex(self):
        with pytest.raises(KeyFormatError, match="neither an existing key file"):
            load_key("zz" * 32)

    def test_accepts_hex_with_whitespace(self):
        key = load_key("  " + "ab" * 32 + "\n")
        assert key.raw == bytes.fromhex("ab" * 32)


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        assert run(capsys, "rules", "complement", "30")[:2] == (0, "225\n")
        assert run(capsys, "rules", "complement", "90")[:2] == (0, "165\n")
        assert run(capsys, "rules", "complement")[0] == 1  # a usage error reuses it too
    finally:
        cli._parser.cache_clear()  # later tests build their own, not through the stand-in
    assert built == [1]
