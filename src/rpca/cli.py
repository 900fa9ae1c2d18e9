"""Command-line front end.

Subcommands: keygen, encrypt, decrypt, rules, cycles, avalanche, bench.
Exit codes: 0 on success, 1 for usage errors, 2 for data or format errors.
Keys are 32-byte files or 64-hex-character strings. A `--seed HEX` flag
switches every randomized subcommand to deterministic generators so runs can
be reproduced; without it, randomness comes from the OS entropy pool.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
import os
import secrets
import signal
import stat
import sys
import threading
from pathlib import Path

import numpy as np

from . import ca
from .ca import Boundary
from .cipher import (
    BLOCK_BYTES,
    DEFAULT_CAF_STEPS,
    DEFAULT_ROUNDS,
    KEY_BYTES,
    RECORD_BYTES,
    CipherError,
    CipherParams,
    KeyFormatError,
    PaddingError,
    SecretKey,
    SeededRidSource,
    _decrypt_records_raw,
    _encrypt_padded,
    decrypt_stream,
    encrypt_stream,
    os_rid_source,
    parse_key,
)
from .container import (
    HEADER_LEN,
    ContainerError,
    ContainerHeader,
    ContainerLengthError,
    pack_header,
    parse_header,
)

RESEARCH_WARNING = (
    "warning: experimental research cipher; do not use it to protect real data"
)
_WRONG_KEY_HINT = "wrong key or damaged file"
# encrypt and decrypt hold one chunk of this many blocks (1 MiB of plaintext) at a time
_CHUNK_BLOCKS = 1 << 16
_FORMAT_BLOCK = 1 << 16  # states `rpca cycles` formats at a time


class UsageError(Exception):
    pass


class _Killed(BaseException):
    """A SIGTERM or SIGHUP, raised in a running command so that _write_atomic removes
    its temp file; main then dies by the signal."""


def _killed(signum, frame):
    raise _Killed(signum)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 with usage text instead of argparse's exit 2
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _seed(text: str) -> bytes:
    """`--seed`'s type: hex to bytes; argparse names the option in the error."""
    try:
        seed = bytes.fromhex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be hex characters, got {text!r}") from None
    if not seed:
        raise argparse.ArgumentTypeError("must not be empty")
    return seed


def load_key(value: str) -> SecretKey:
    """Accept a path to a 32-byte key file or a 64-hex-character string."""
    path = Path(value)
    if path.exists():
        with path.open("rb", buffering=0) as f:  # unbuffered: a pipe keeps the bytes past 33
            data = _read_up_to(f, KEY_BYTES + 1)  # bounded: a device or pipe may never end
        if len(data) != KEY_BYTES:
            found = "more" if len(data) > KEY_BYTES else len(data)
            raise KeyFormatError(f"key file {path} must hold exactly 32 bytes, found {found}")
        return parse_key(data)
    stripped = value.strip()
    if len(stripped) == 64:
        try:
            return parse_key(bytes.fromhex(stripped))
        except ValueError:
            pass
    raise KeyFormatError(f"{value!r} is neither an existing key file nor 64 hex characters")


@contextlib.contextmanager
def _write_atomic(path: Path, mode: int = 0o666):
    """Yield an open binary file whose contents replace `path` on a clean exit.

    A directory fails at once. For a regular file (or none yet), links followed,
    it is a temp file in the same directory, created with `mode` (less the
    umask), so the data never sits in a file with wider permissions. On a clean
    exit it is fsynced and renamed over the file, so after a crash the file
    holds its old or its whole new data. A device or pipe cannot be replaced,
    nor can the process's own stdout (e.g. /dev/stdout redirected to a file):
    the data goes to an unlinked temp file, copied out on a clean exit, and the
    mode is left alone. Stdout's file is written through fd 1, never reopened,
    so an append redirect is appended to and the status line follows the data.
    On any exception the temp file is removed and `path` is untouched.
    """
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    try:
        is_stdout = os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:  # no such file, or fd 1 is closed
        is_stdout = False
    if is_stdout or (path.exists() and not path.is_file()):
        import shutil
        import tempfile  # only here: every other run starts without it

        with tempfile.TemporaryFile() as tmp:
            yield tmp
            tmp.seek(0)
            sys.stdout.flush()
            with open(1, "wb", closefd=False) if is_stdout else path.open("wb") as out:
                shutil.copyfileobj(tmp, out)
        return
    path = Path(os.path.realpath(path))  # not resolve(): that raises on a link loop
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode), "wb") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_up_to(f, n: int) -> bytes:
    """n bytes from the unbuffered file `f`, fewer only at its end; never reads past n."""
    parts = []
    while n and (part := f.read(n)):
        parts.append(part)
        n -= len(part)
    return b"".join(parts)  # a single part comes back as it is


def _cmd_keygen(args) -> int:
    key_bytes = SeededRidSource(args.seed + b"/keygen")(2) if args.seed else secrets.token_bytes(32)
    with _write_atomic(Path(args.out), 0o600) as out:
        out.write(key_bytes)
    print(f"wrote 32-byte key to {args.out}")
    return 0


def _cmd_encrypt(args) -> int:
    print(RESEARCH_WARNING, file=sys.stderr)
    key = load_key(args.key)
    params = CipherParams(rounds=args.rounds, caf_steps=args.steps)
    rid_source = SeededRidSource(args.seed) if args.seed else os_rid_source
    chunk = BLOCK_BYTES * _CHUNK_BLOCKS
    length = 0
    with Path(args.infile).open("rb", buffering=0) as src, _write_atomic(Path(args.out)) as out:
        out.write(bytes(HEADER_LEN))  # the header goes here once the length is known
        while len(data := _read_up_to(src, chunk)) == chunk:
            out.write(_encrypt_padded(data, key, params, rid_source(_CHUNK_BLOCKS)))
            length += chunk
            del data  # freed before the next read, so one chunk is alive at a time
        out.write(encrypt_stream(data, key, params, rid_source))  # the rest, maybe b"", padded
        length += len(data)
        out.seek(0)
        out.write(pack_header(ContainerHeader(params.rounds, params.caf_steps, length)))
    print(f"encrypted {length} bytes into {length // BLOCK_BYTES + 1} blocks -> {args.out}")
    return 0


def _read_records(src, header: ContainerHeader, start: int, count: int) -> np.ndarray:
    """The next `count` records, numbered from `start`, as a (count, 32) uint8 array."""
    body = _read_up_to(src, RECORD_BYTES * count)
    if len(body) < RECORD_BYTES * count:  # the input ended early: say how, as for a file
        header.check_length(HEADER_LEN + RECORD_BYTES * start + len(body))
    return np.frombuffer(body, np.uint8).reshape(count, RECORD_BYTES)


def _open_tail(records: np.ndarray, header: ContainerHeader, key: SecretKey,
               params: CipherParams) -> bytes:
    """The plaintext of `records`, a run that ends with the container's last record;
    a bad trailer, or a length not the header's, means a wrong key or a damaged file."""
    n = header.expected_records()
    try:
        data = decrypt_stream(records, key, params)
    except PaddingError as exc:  # the trailer is in the last block
        where = f"block {n - 1}, the record at byte {HEADER_LEN + RECORD_BYTES * (n - 1)}"
        raise PaddingError(f"{exc} in {where}: {_WRONG_KEY_HINT}") from exc
    length = BLOCK_BYTES * (n - len(records)) + len(data)
    if length != header.plaintext_length:
        raise ContainerError(f"decrypted length {length} disagrees with header "
                             f"{header.plaintext_length}: {_WRONG_KEY_HINT}")
    return data


def _cmd_decrypt(args) -> int:
    key = load_key(args.key)
    with Path(args.infile).open("rb", buffering=0) as src:
        header = parse_header(_read_up_to(src, HEADER_LEN))
        info = os.fstat(src.fileno())
        is_file = stat.S_ISREG(info.st_mode)
        if is_file:  # a file's size is known: check it before decrypting
            header.check_length(info.st_size)
        params = CipherParams(rounds=header.rounds, caf_steps=header.caf_steps)
        n = header.expected_records()
        last = (n - 1) // _CHUNK_BLOCKS * _CHUNK_BLOCKS  # where the last chunk starts
        with _write_atomic(Path(args.out)) as out:
            if is_file and last:  # a wrong key fails on the last record, before the bulk
                tail = os.pread(src.fileno(), RECORD_BYTES, info.st_size - RECORD_BYTES)
                _open_tail(np.frombuffer(tail, np.uint8).reshape(1, -1), header, key, params)
            for start in range(0, last, _CHUNK_BLOCKS):  # no name keeps a chunk past its write
                out.write(_decrypt_records_raw(_read_records(src, header, start, _CHUNK_BLOCKS),
                                               key, params))
            records = _read_records(src, header, last, n - last)
            if src.read(1):
                raise ContainerLengthError(
                    f"input continues past the {n} records the header announces"
                )
            out.write(_open_tail(records, header, key, params))
    print(f"decrypted {n} blocks -> {args.out} ({header.plaintext_length} bytes)")
    return 0


def _cmd_rules(args) -> int:
    if args.rules_cmd == "list-reversible":
        found = ca.enumerate_reversible_elementary(args.radius, [4, 5, 6, 7, 8])
        print(" ".join(str(n) for n in sorted(found)))
    elif args.rules_cmd == "complement":
        rule = ca.make_rule(args.radius, args.number)
        print(ca.complement_rule(rule).number)
    else:  # table
        rule = ca.make_rule(args.radius, args.number)
        width = rule.width
        for pattern in range(len(rule.table) - 1, -1, -1):
            print(f"{pattern:0{width}b} {rule.table[pattern]}")
    return 0


def _write_states(codes: np.ndarray, cells: int, sep: str, ends: np.ndarray) -> None:
    """Write each code as `cells` bits, followed by `sep`, or by a newline at the
    ascending indices `ends` (each one past a line's last code), 2^16 codes at a time.

    A code's bytes are its bits as '0'/'1' and a two-byte separator column;
    the 0 bytes of one-byte separators are dropped by one mask per chunk.
    """
    sep = np.frombuffer(sep.encode("ascii").ljust(2, b"\0"), np.uint8)
    for lo in range(0, codes.size, _FORMAT_BLOCK):
        chunk = codes[lo : lo + _FORMAT_BLOCK].astype(">u4").view(np.uint8).reshape(-1, 4)
        text = np.empty((len(chunk), cells + 2), np.uint8)
        np.add(np.unpackbits(chunk, axis=1)[:, 32 - cells :], ord("0"), out=text[:, :cells])
        text[:, cells:] = sep
        first, stop = np.searchsorted(ends, [lo, lo + len(chunk)], "right")
        text[ends[first:stop] - 1 - lo, cells:] = (ord("\n"), 0)
        sys.stdout.write(text[text != 0].tobytes().decode("ascii"))


def _cmd_cycles(args) -> int:
    rules = ca.parse_rule_vector(args.rule_vector)
    report = ca.cycle_structure(rules, Boundary(args.boundary), args.cells)
    ends = np.cumsum(report.lengths)
    _write_states(report.order[: ends[-1]], report.cells, "->", ends)
    transients = report.order[ends[-1] :]
    if transients.size:
        sys.stdout.write("transients: ")
        _write_states(transients, report.cells, " ", np.array([transients.size]))
    return 0


def _rng_and_key(args) -> tuple[np.random.Generator, SecretKey]:
    rng = np.random.default_rng(int.from_bytes(args.seed, "big") if args.seed else None)
    return rng, load_key(args.key) if args.key else parse_key(rng.bytes(32))


def _print_report(title: str, values: dict, digits: int) -> None:
    """The title, then one `name=value` line per entry, floats to `digits` places."""
    print(title)
    for name, value in values.items():
        print(f"{name}={value:.{digits}f}" if isinstance(value, float) else f"{name}={value}")


def _cmd_avalanche(args) -> int:
    from . import analysis  # only here and in bench: it imports multiprocessing

    rng, key = _rng_and_key(args)
    params = CipherParams(rounds=args.rounds, caf_steps=args.steps)
    report = analysis.avalanche(key, params, args.trials, args.flip, rng=rng)
    freq = report.per_bit_flip_frequency
    _print_report(
        f"flipped one {report.flip_target} bit per trial over {report.trials} trials",
        {"trials": report.trials, "flip_target": report.flip_target,
         "mean_flip_fraction": report.mean_flip_fraction,
         "min_bit_frequency": freq.min(), "max_bit_frequency": freq.max()},
        4,
    )
    return 0


def _cmd_bench(args) -> int:
    from . import analysis

    rng, key = _rng_and_key(args)
    params = CipherParams(rounds=args.rounds, caf_steps=args.steps)
    report = analysis.throughput_bench(key, params, args.mb, args.workers, rng=rng)
    _print_report(f"benchmarked {report.megabytes} MB with {report.workers} workers",
                  dataclasses.asdict(report), 3)
    return 0 if report.round_trip_ok and report.parallel_matches_serial else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="rpca", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    keygen = sub.add_parser("keygen", help="write a fresh 32-byte key file")
    keygen.add_argument("--out", required=True)
    keygen.set_defaults(func=_cmd_keygen)
    encrypt = sub.add_parser("encrypt", help="encrypt a file into an .rpca container")
    encrypt.set_defaults(func=_cmd_encrypt)
    decrypt = sub.add_parser("decrypt", help="decrypt an .rpca container")
    decrypt.set_defaults(func=_cmd_decrypt)

    p = sub.add_parser("rules", help="explore local rules")
    rules_sub = p.add_subparsers(dest="rules_cmd", required=True)
    q = rules_sub.add_parser("list-reversible", help="rules with injective ring dynamics")
    q.add_argument("--radius", type=int, default=1)
    q.set_defaults(func=_cmd_rules)
    q = rules_sub.add_parser("complement", help="print the complement rule number")
    q.add_argument("number", type=int)
    q.add_argument("--radius", type=int, default=1)
    q.set_defaults(func=_cmd_rules)
    q = rules_sub.add_parser("table", help="print a rule's lookup table")
    q.add_argument("number", type=int)
    q.add_argument("--radius", type=int, required=True)
    q.set_defaults(func=_cmd_rules)

    p = sub.add_parser("cycles", help="state-transition cycles of a small automaton")
    p.add_argument("--rule-vector", required=True, help="comma-separated rule numbers")
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--boundary", choices=["null", "cyclic"], required=True)
    p.set_defaults(func=_cmd_cycles)

    avalanche = sub.add_parser("avalanche", help="single-bit diffusion measurement")
    avalanche.add_argument("--trials", type=int, default=1000)
    avalanche.add_argument("--flip", choices=["plaintext", "key"], default="plaintext")
    avalanche.add_argument("--key", default=None)
    avalanche.set_defaults(func=_cmd_avalanche)
    bench = sub.add_parser("bench", help="throughput benchmark")
    bench.add_argument("--mb", type=int, default=1)
    bench.add_argument("--workers", type=int, default=None)
    bench.add_argument("--key", default=None)
    bench.set_defaults(func=_cmd_bench)

    # options shared between subcommands, each defined once
    for p in (encrypt, decrypt):
        p.add_argument("--key", required=True)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True)
    for p in (encrypt, avalanche, bench):
        p.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
        p.add_argument("--steps", type=int, default=DEFAULT_CAF_STEPS)
    for p in (keygen, encrypt, avalanche, bench):
        p.add_argument("--seed", type=_seed, help="hex seed for deterministic output (testing)")
    return parser


@functools.cache
def _parser() -> _Parser:
    """`build_parser()`, built once per process; parse_args leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    # signal.signal works only in the main thread; a handler set by the caller, or
    # SIG_IGN (nohup), is left as it is
    caught = [s for s in (signal.SIGTERM, signal.SIGHUP) if signal.getsignal(s) is signal.SIG_DFL
              and threading.current_thread() is threading.main_thread()]
    try:
        for signum in caught:
            signal.signal(signum, _killed)
        return args.func(args)
    except (CipherError, ContainerError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _Killed as exc:
        killed = exc.args[0]
    finally:
        for signum in caught:
            signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), killed)  # die by it, as with no handler
    return 128 + killed  # only if the signal is blocked


if __name__ == "__main__":
    sys.exit(main())
