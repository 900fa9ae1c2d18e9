"""Experimental 128-bit block cipher driven by reversible cellular automata.

NOT FOR PRODUCTION. This is a research construction: no cryptanalysis backs
it, and the implementation makes no attempt at constant-time operation.

A 256-bit key splits into three rule segments. The two 64-bit segments seed
small second-order automata (one per round, re-seeded with a round constant)
whose four most recent configurations become the material for four invertible
round transforms: per-byte rotate+XOR substitution, material-controlled row
rotations, an XOR network plus rotation on columns, and key whitening. After
the rounds, a 128-cell second-order automaton keyed by the remaining 128 bits
runs a fixed number of steps from (random-initial-data, state); the
next-to-last configuration is the ciphertext and the last one, XOR-masked
with the 128-bit key segment, travels alongside it. Decryption runs the same
automaton backwards from the transmitted pair, discards the recovered random
row, and undoes the rounds. Each block therefore costs twice its size on the
wire, and encryption is randomized through the injected rid values.

Nothing here unpacks bits. A stream's blocks are transposed once into
(16, n) byte-position rows, row j holding byte j of every block: each round
transform is a few whole-row operations on them, and the core steps the same
rows, one gather per step from the key's window table (packed_rule_table,
16 KiB at radius 3, the last 16 cached). Key setup runs the material
automata on that kernel over (64, 8) packed rows, one per round, two steps a
call, and keeps a key's material for every round as one read-only
(64, 4, 16) array; derive_round_material returns one round's (4, 16) row.

All operations here are pure given an explicit rid; batch variants process
a whole stream of blocks as one numpy matrix. A stream's records are one
read-only (n, 32) uint8 array, row i holding block i's wire record (16
ciphertext bytes, then 16 masked final-data bytes); the parameters live only
in CipherParams, as they live only in the container header on disk.
CipherRecord is the single-block view returned by encrypt_block.
"""
from __future__ import annotations

import hashlib
import secrets
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import ca
from .ca import Rule
from .second_order import packed_rule_table, so_iterate_packed

BLOCK_BYTES = 16
RECORD_BYTES = 2 * BLOCK_BYTES
KEY_BYTES = 32
CA_RADIUS = 3

MIN_ROUNDS, MAX_ROUNDS = 1, 64
MIN_CAF_STEPS, MAX_CAF_STEPS = 2, 1024

DEFAULT_ROUNDS = 10
DEFAULT_CAF_STEPS = 32


class CipherError(Exception):
    """Base class for block-cipher errors."""


class KeyFormatError(CipherError):
    pass


class ParameterMismatchError(CipherError):
    pass


class PaddingError(CipherError):
    pass


class RecordFormatError(CipherError):
    pass


# --- key handling ----------------------------------------------------------

@dataclass(frozen=True)
class SecretKey:
    """256-bit key: 64-bit CAL and CAR rule segments, 128-bit CAF segment."""

    raw: bytes

    def __post_init__(self) -> None:
        if len(self.raw) != KEY_BYTES:
            raise KeyFormatError(f"key must be {KEY_BYTES} bytes, got {len(self.raw)}")

    @property
    def cal_segment(self) -> bytes:
        return self.raw[0:8]

    @property
    def car_segment(self) -> bytes:
        return self.raw[8:16]

    @property
    def caf_segment(self) -> bytes:
        return self.raw[16:32]


def parse_key(raw: bytes) -> SecretKey:
    """Validate and split 32 raw key bytes into the three rule segments."""
    return SecretKey(bytes(raw))


@dataclass(frozen=True)
class CipherParams:
    """Round count and CA step count; echoed by CipherRecord and the container header."""

    rounds: int = DEFAULT_ROUNDS
    caf_steps: int = DEFAULT_CAF_STEPS

    def __post_init__(self) -> None:
        if not MIN_ROUNDS <= self.rounds <= MAX_ROUNDS:
            raise ValueError(f"rounds must be in {MIN_ROUNDS}..{MAX_ROUNDS}, got {self.rounds}")
        if not MIN_CAF_STEPS <= self.caf_steps <= MAX_CAF_STEPS:
            raise ValueError(
                f"caf_steps must be in {MIN_CAF_STEPS}..{MAX_CAF_STEPS}, got {self.caf_steps}"
            )


@dataclass(frozen=True)
class CipherRecord:
    """Single-block view of one wire record, with the parameters echoed.

    Streams carry records as rows of an (n, 32) uint8 array instead.
    """

    ciphertext: bytes
    encrypted_final_data: bytes
    rounds: int
    caf_steps: int

    def payload(self) -> bytes:
        """Wire layout: 16 ciphertext bytes then 16 masked final-data bytes."""
        return self.ciphertext + self.encrypted_final_data


def _block(value: bytes, what: str) -> np.ndarray:
    """A 16-byte value as a uint8 row; ValueError naming `what` otherwise."""
    if len(value) != BLOCK_BYTES:
        raise ValueError(f"{what} must be {BLOCK_BYTES} bytes, got {len(value)}")
    return np.frombuffer(value, dtype=np.uint8)


# --- rule expansion and round material --------------------------------------

def expand_rule_segment(segment: bytes) -> Rule:
    """64 key bits written into table entries 0-63 and repeated into 64-127."""
    if len(segment) != 8:
        raise ValueError(f"rule segment must be 8 bytes, got {len(segment)}")
    bits = np.unpackbits(np.frombuffer(segment, dtype=np.uint8))
    return ca.rule_from_table(CA_RADIUS, np.concatenate([bits, bits]))


def _caf_rule(caf_segment: bytes) -> Rule:
    # the CAF segment is already 128 bits: one table entry per bit
    return ca.rule_from_table(CA_RADIUS, np.unpackbits(np.frombuffer(caf_segment, dtype=np.uint8)))


# Round i seeds its material automata with 8 bytes of value i + 1.
_ROUND_CONSTANTS = np.broadcast_to(
    np.arange(1, MAX_ROUNDS + 1, dtype=np.uint8)[:, None], (MAX_ROUNDS, 8)
)


def _segment_history(segment: bytes) -> np.ndarray:
    """Last four configurations of the segment's automaton, for every round.

    Returns (MAX_ROUNDS, 4, 8) packed rows; axis 1 is ordered newest first.
    Round i runs the same 64-cell second-order automaton from (round
    constant, segment) for four steps, so material depends on the key and
    round index only, never on the data being encrypted or the round count.
    """
    table = packed_rule_table(expand_rule_segment(segment))
    seg = np.broadcast_to(np.frombuffer(segment, dtype=np.uint8), _ROUND_CONSTANTS.shape)
    q1, q2 = so_iterate_packed(_ROUND_CONSTANTS, seg, table, 2)  # a run returns its two newest
    q3, q4 = so_iterate_packed(q1, q2, table, 2)
    return np.array([q4, q3, q2, q1]).transpose(1, 0, 2)


@lru_cache(maxsize=256)
def _round_materials(raw_key: bytes) -> np.ndarray:
    """Every round's material: a read-only (MAX_ROUNDS, 4, 16) uint8 array.

    Axis 1 holds m_sub, m_row, m_mix and m_key; each 16-byte row is a CAL
    configuration joined to a CAR one.
    """
    key = SecretKey(raw_key)
    materials = np.concatenate(
        [_segment_history(key.cal_segment), _segment_history(key.car_segment)], axis=2
    )
    materials.flags.writeable = False
    return materials


def derive_round_material(key: SecretKey, round_index: int) -> np.ndarray:
    """Material for one round; a pure function of (key, round_index).

    A read-only (4, 16) uint8 view of _round_materials whose rows are m_sub,
    m_row, m_mix and m_key.
    """
    if not 0 <= round_index < MAX_ROUNDS:
        raise ValueError(f"round_index must be in 0..{MAX_ROUNDS - 1}, got {round_index}")
    return _round_materials(key.raw)[round_index]


# --- the four round transforms ----------------------------------------------
#
# Internal versions take (16, n) byte-position rows; the single-block API
# runs them on a (16, 1) column.

_ROWS, _COLS = np.divmod(np.arange(BLOCK_BYTES), 4)  # grid position of each byte
_XOR_NETWORK = ((0, 1), (2, 3), (1, 0), (3, 2))  # grid row a ^= grid row b, in order


def _parse_direction(direction: str) -> bool:
    if direction == "forward":
        return False
    if direction == "inverse":
        return True
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def _byte_sub(y: np.ndarray, material: np.ndarray, inverse: bool) -> np.ndarray:
    """Rotate row j left by the low 3 bits of material byte j+1, then XOR material byte j.

    `y` holds one row per byte position on axis 0, as many as `material` has
    bytes; the byte after the last is the first.
    """
    column = material.shape + (1,) * (y.ndim - 1)
    left = np.concatenate((material[1:], material[:1])) & 7
    m = material.reshape(column)
    if inverse:
        return _rotate_right(y ^ m, left.reshape(column))
    return _rotate_right(y, ((8 - left) & 7).reshape(column)) ^ m


def _rotate_right(y: np.ndarray, amounts: np.ndarray) -> np.ndarray:
    # y >> s | y << (8 - s) for s in 0..7, written as uint8 division and
    # multiplication by powers of two: numpy vectorises those but not uint8
    # shifts, which took three times as long on (16, 62501) rows. For s = 0
    # the multiplier 1 << 8 wraps to 0 in uint8, as y << 8 should.
    return (y // (1 << amounts)) | (y * (1 << (8 - amounts)))


def _shift_amounts(material_bytes: np.ndarray) -> np.ndarray:
    """Four 2-bit amounts packed MSB-first into each material byte: (R,) -> (R, 4)."""
    return (material_bytes[:, None] >> np.arange(6, -1, -2)) & 3


def _row_sources(material_bytes: np.ndarray, inverse: bool) -> np.ndarray:
    """Row shift as (R, 16) source rows: grid row r rotates left by amount r."""
    amounts = _shift_amounts(material_bytes)[:, _ROWS]
    return 4 * _ROWS + (_COLS + (-amounts if inverse else amounts)) % 4


def _column_sources(material_bytes: np.ndarray, inverse: bool) -> np.ndarray:
    """Column rotation as (R, 16) source rows: grid column c rotates down by amount c."""
    amounts = _shift_amounts(material_bytes)[:, _COLS]
    return 4 * ((_ROWS + (amounts if inverse else -amounts)) % 4) + _COLS


def _column_mix(y: np.ndarray, sources: np.ndarray, inverse: bool) -> np.ndarray:
    """XOR network down each column of (16, n) rows, then the rotation `sources`."""
    out = y[sources] if inverse else y.copy()
    grid = out.reshape(4, 4, -1)
    for a, b in _XOR_NETWORK[::-1] if inverse else _XOR_NETWORK:
        grid[a] ^= grid[b]
    return out if inverse else out[sources]


def _rounds(y: np.ndarray, materials: np.ndarray, inverse: bool) -> np.ndarray:
    """Run the rounds of `materials` (R, 4, 16) over (16, n) rows; inverse undoes them."""
    if inverse:
        materials = materials[::-1]
    row_sources = _row_sources(materials[:, 1, 0], inverse)
    column_sources = _column_sources(materials[:, 2, 1], inverse)
    for (m_sub, _, _, m_key), rows, columns in zip(materials, row_sources, column_sources):
        if inverse:
            y = _column_mix(y ^ m_key[:, None], columns, True)
            y = _byte_sub(y[rows], m_sub, True)
        else:
            y = _column_mix(_byte_sub(y, m_sub, False)[rows], columns, False)
            y ^= m_key[:, None]
    return y


def byte_substitution(state: bytes, material: bytes, direction: str = "forward") -> bytes:
    """Per-byte rotation by a material-chosen amount, then XOR with material."""
    inverse = _parse_direction(direction)
    m = _block(material, "material")
    return _byte_sub(_block(state, "state")[:, None], m, inverse).tobytes()


def row_shift(state: bytes, material: bytes, direction: str = "forward") -> bytes:
    """Rotate each 4-byte row by a 2-bit amount taken from the material."""
    sources = _row_sources(_block(material, "material")[:1], _parse_direction(direction))[0]
    return _block(state, "state")[sources].tobytes()


def column_mix(state: bytes, material: bytes, direction: str = "forward") -> bytes:
    """XOR network down each column followed by a material-chosen rotation."""
    inverse = _parse_direction(direction)
    sources = _column_sources(_block(material, "material")[1:2], inverse)[0]
    return _column_mix(_block(state, "state")[:, None], sources, inverse).tobytes()


def add_round_key(state: bytes, material: bytes) -> bytes:
    """Bitwise XOR whitening; its own inverse."""
    return (_block(state, "state") ^ _block(material, "material")).tobytes()


def round_forward(state: bytes, key: SecretKey, round_index: int) -> bytes:
    """One full round: substitution, row shift, column mix, key addition."""
    material = derive_round_material(key, round_index)[None]
    return _rounds(_block(state, "state")[:, None], material, False).tobytes()


def round_inverse(state: bytes, key: SecretKey, round_index: int) -> bytes:
    """Inverse of round_forward: the four inverse transforms in reverse order."""
    material = derive_round_material(key, round_index)[None]
    return _rounds(_block(state, "state")[:, None], material, True).tobytes()


# --- the 128-cell core -------------------------------------------------------

# Kept small on purpose: a table is 16 KiB, so 256 entries like the material
# cache above would hold up to 4 MiB. On the small_msgs benchmark (a quarter
# of messages under fresh keys) that raised peak RSS by 12%; 16 entries cost
# about 3%.
@lru_cache(maxsize=16)
def _caf_table(caf_segment: bytes) -> np.ndarray:
    return packed_rule_table(_caf_rule(caf_segment))


def _caf_forward(states: np.ndarray, rids: np.ndarray, key: SecretKey, caf_steps: int):
    """Run the block-wide automaton forward from (rid, state) rows of bytes.

    Returns (ciphertext, final data) as byte rows: the pair of configurations
    left at the end of the run, next-to-last first.
    """
    return so_iterate_packed(rids, states, _caf_table(key.caf_segment), caf_steps)


def _caf_backward(
    ciphertext: np.ndarray, final_data: np.ndarray, key: SecretKey, caf_steps: int
) -> np.ndarray:
    """Run the automaton backward to the state rows; the recovered rid is discarded."""
    states, _ = so_iterate_packed(final_data, ciphertext, _caf_table(key.caf_segment), caf_steps)
    return states


def mask_final_data(final_data: bytes, key: SecretKey) -> bytes:
    """Vernam-mask the final data with the 128-bit key segment; self-inverse."""
    value = _block(final_data, "final_data")
    mask = np.frombuffer(key.caf_segment, dtype=np.uint8)
    return (value ^ mask).tobytes()


# --- single-block API --------------------------------------------------------

def encrypt_block(
    plaintext: bytes, key: SecretKey, params: CipherParams, rid: bytes
) -> CipherRecord:
    """Encrypt one 16-byte block with caller-supplied random initial data."""
    _block(plaintext, "plaintext")
    _block(rid, "rid")
    row = _encrypt_padded(plaintext, key, params, rid)[0]
    return CipherRecord(
        ciphertext=row[:BLOCK_BYTES].tobytes(),
        encrypted_final_data=row[BLOCK_BYTES:].tobytes(),
        rounds=params.rounds,
        caf_steps=params.caf_steps,
    )


def decrypt_block(record: CipherRecord, key: SecretKey, params: CipherParams) -> bytes:
    """Invert encrypt_block; the record's parameter echo must match."""
    if (record.rounds, record.caf_steps) != (params.rounds, params.caf_steps):
        raise ParameterMismatchError(
            f"record was made with rounds={record.rounds}, caf_steps={record.caf_steps}; "
            f"asked to decrypt with rounds={params.rounds}, caf_steps={params.caf_steps}"
        )
    if len(record.ciphertext) != BLOCK_BYTES or len(record.encrypted_final_data) != BLOCK_BYTES:
        raise RecordFormatError("truncated record: both payload halves must be 16 bytes")
    row = np.frombuffer(record.payload(), dtype=np.uint8).reshape(1, RECORD_BYTES)
    return _decrypt_records_raw(row, key, params)


# --- stream (multi-block) API -------------------------------------------------

def pad(data: bytes) -> bytes:
    """Append k bytes of value k (k = 1..16) up to a 16-byte multiple."""
    k = BLOCK_BYTES - (len(data) % BLOCK_BYTES)
    return data + bytes([k]) * k


def unpad(data: bytes) -> bytes:
    """Strip pad bytes written by pad(); raises PaddingError on bad trailers."""
    if not data or len(data) % BLOCK_BYTES:
        raise PaddingError("padded payload must be a non-empty multiple of 16 bytes")
    k = data[-1]
    if not 1 <= k <= BLOCK_BYTES or data[-k:] != bytes([k]) * k:
        raise PaddingError(f"invalid padding trailer (final byte {k})")
    return data[:-k]


def _encrypt_padded(
    padded: bytes, key: SecretKey, params: CipherParams, rids: bytes
) -> np.ndarray:
    """Encrypt whole blocks: `padded` and `rids` are matching 16-byte multiples."""
    n_blocks, rem = divmod(len(padded), BLOCK_BYTES)
    if rem or n_blocks == 0:
        raise ValueError("padded payload must be a non-empty multiple of 16 bytes")
    if len(rids) != len(padded):
        raise ValueError("need one 16-byte rid per block")
    blocks = np.frombuffer(padded, dtype=np.uint8).reshape(n_blocks, BLOCK_BYTES)
    y = _rounds(np.ascontiguousarray(blocks.T), _round_materials(key.raw)[: params.rounds], False)
    rid_rows = np.frombuffer(rids, dtype=np.uint8).reshape(n_blocks, BLOCK_BYTES)
    cipher_bytes, final_bytes = _caf_forward(y.T, rid_rows, key, params.caf_steps)
    masked = final_bytes ^ np.frombuffer(key.caf_segment, dtype=np.uint8)
    records = np.concatenate([cipher_bytes, masked], axis=1)
    records.flags.writeable = False
    return records


def _decrypt_records_raw(records: np.ndarray, key: SecretKey, params: CipherParams) -> bytes:
    """Decrypt an (n, 32) record array to the padded byte stream (no padding removal)."""
    records = np.asarray(records)
    if records.dtype != np.uint8 or records.shape[1:] != (RECORD_BYTES,) or not len(records):
        raise RecordFormatError(
            f"records must be a non-empty (n, {RECORD_BYTES}) uint8 array, "
            f"got {records.dtype} {records.shape}"
        )
    final_bytes = records[:, BLOCK_BYTES:] ^ np.frombuffer(key.caf_segment, dtype=np.uint8)
    states = _caf_backward(records[:, :BLOCK_BYTES], final_bytes, key, params.caf_steps)
    y = _rounds(np.ascontiguousarray(states.T), _round_materials(key.raw)[: params.rounds], True)
    return y.T.tobytes()


def encrypt_stream(
    plaintext: bytes,
    key: SecretKey,
    params: CipherParams,
    rid_source: Callable[[int], bytes],
) -> np.ndarray:
    """Pad and encrypt a byte string, one fresh rid per block.

    `rid_source(n)` is called once and must return the n blocks' 16-byte rids
    as 16·n bytes.

    Returns the read-only (n, 32) uint8 record array, one wire record per row.
    """
    padded = pad(plaintext)
    return _encrypt_padded(padded, key, params, rid_source(len(padded) // BLOCK_BYTES))


def decrypt_stream(records: np.ndarray, key: SecretKey, params: CipherParams) -> bytes:
    """Decrypt an (n, 32) record array and strip the padding."""
    return unpad(_decrypt_records_raw(records, key, params))


# --- rid sources ---------------------------------------------------------------

def os_rid_source(n: int = 1) -> bytes:
    """n fresh rids, 16 bytes each, from the operating system's entropy pool."""
    return secrets.token_bytes(BLOCK_BYTES * n)


class SeededRidSource:
    """Deterministic rid stream for reproducible runs; thread-safe.

    Rid i of the stream is sha256(seed || i as 8 big-endian bytes)[:16]; a
    call for n rids takes the next n indices and returns their 16·n bytes.
    """

    def __init__(self, seed: bytes):
        self._seed = bytes(seed)
        self._counter = 0
        self._lock = threading.Lock()

    def __call__(self, n: int = 1) -> bytes:
        if n < 0:
            raise ValueError(f"rid count must be >= 0, got {n}")
        with self._lock:
            start = self._counter
            self._counter += n
        return b"".join(
            [hashlib.sha256(self._seed + i.to_bytes(8, "big")).digest()[:BLOCK_BYTES]
             for i in range(start, start + n)]
        )
