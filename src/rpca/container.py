"""Bit-exact file format for encrypted payloads.

Layout, all multi-byte fields big-endian:

    offset  size  field
    0       4     magic "RPC1"
    4       1     version (1)
    5       1     rounds (1..64)
    6       2     CA step count (2..1024)
    8       8     plaintext length in bytes, before padding
    16      2     reserved, must be zero (non-zero is rejected)
    18      ...   records, 32 bytes each: 16 ciphertext + 16 masked final data

Padding always adds at least one byte, so a payload of L bytes carries
exactly L//16 + 1 records. Convention: files use the `.rpca` extension.

In memory the records are one (n, 32) uint8 array, one wire record per row,
as returned by `cipher.encrypt_stream`: `write_container` appends its bytes
to the header, and `read_container` returns a read-only view of the input
bytes in that shape. The parameters appear once, in the header.
`pack_header`, `parse_header` and `ContainerHeader.check_length` are the one
place the header is packed and checked; the CLI, which streams files in
chunks rather than holding them whole, uses them directly.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .ca import as_count
from .cipher import BLOCK_BYTES, RECORD_BYTES, CipherParams

MAGIC = b"RPC1"
VERSION = 1
HEADER_LEN = 18
_HEADER_STRUCT = struct.Struct(">4sBBHQ2s")
_RESERVED = b"\x00\x00"


class ContainerError(Exception):
    """Base class for container format errors."""


class UnsupportedFormatError(ContainerError):
    """Wrong magic or version."""


class ContainerLengthError(ContainerError):
    """Truncated stream or record count inconsistent with the header."""


class ContainerValidationError(ContainerError):
    """A header field is outside its allowed range, or a record array is misshaped."""


@dataclass(frozen=True)
class ContainerHeader:
    rounds: int
    caf_steps: int
    plaintext_length: int

    def expected_records(self) -> int:
        return self.plaintext_length // BLOCK_BYTES + 1

    def validate(self) -> None:
        try:
            CipherParams(self.rounds, self.caf_steps)
            as_count(self.plaintext_length, "plaintext_length", 0, (1 << 64) - 1)
        except ValueError as exc:
            raise ContainerValidationError(f"header: {exc}") from exc

    def check_length(self, length: int) -> None:
        """Raise ContainerLengthError unless a `length`-byte stream is this header
        followed by exactly its records."""
        n_records, leftover = divmod(length - HEADER_LEN, RECORD_BYTES)
        if leftover:
            raise ContainerLengthError(f"stream length {length} is not 18 + 32*k")
        if n_records != self.expected_records():
            raise ContainerLengthError(
                f"{n_records} records but header announces {self.expected_records()}"
            )


def pack_header(header: ContainerHeader) -> bytes:
    """The 18 header bytes, after `header.validate()`."""
    header.validate()
    return _HEADER_STRUCT.pack(
        MAGIC, VERSION, header.rounds, header.caf_steps, header.plaintext_length, _RESERVED
    )


def parse_header(data: bytes) -> ContainerHeader:
    """The header at the start of `data`, with every field checked."""
    if len(data) < HEADER_LEN:
        raise ContainerLengthError(f"stream of {len(data)} bytes is shorter than the header")
    magic, version, rounds, caf_steps, plaintext_length, reserved = _HEADER_STRUCT.unpack_from(
        data
    )
    if magic != MAGIC:
        raise UnsupportedFormatError(f"bad magic {magic!r}; not an RPC1 container")
    if version != VERSION:
        raise UnsupportedFormatError(f"unsupported container version {version}")
    if reserved != _RESERVED:
        raise ContainerValidationError(
            f"reserved header field at offset 16..17 must be zero, got 0x{reserved.hex()}"
        )
    header = ContainerHeader(rounds=rounds, caf_steps=caf_steps, plaintext_length=plaintext_length)
    header.validate()
    return header


def write_container(header: ContainerHeader, records: np.ndarray) -> bytes:
    """Serialize the header and an (n, 32) uint8 record array; n must match the header."""
    packed = pack_header(header)
    records = np.asarray(records)
    if records.dtype != np.uint8 or records.shape[1:] != (RECORD_BYTES,):
        raise ContainerValidationError(
            f"records must be an (n, {RECORD_BYTES}) uint8 array, "
            f"got {records.dtype} {records.shape}"
        )
    if len(records) != header.expected_records():
        raise ContainerLengthError(
            f"{len(records)} records for plaintext_length {header.plaintext_length}; "
            f"expected {header.expected_records()}"
        )
    return b"".join((packed, np.ascontiguousarray(records)))  # one copy of the records


def read_container(data: bytes) -> tuple[ContainerHeader, np.ndarray]:
    """Parse bytes produced by write_container; the exact inverse.

    The records come back as a read-only (n, 32) uint8 view of `data`.
    """
    header = parse_header(data)
    header.check_length(len(data))
    records = np.frombuffer(data, dtype=np.uint8, offset=HEADER_LEN)
    records = records.reshape(header.expected_records(), RECORD_BYTES)
    records.flags.writeable = False
    return header, records
