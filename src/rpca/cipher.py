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

Nothing here unpacks bits. The core steps the (n, 16) byte rows directly,
one gather per step from the key's window table
(second_order.packed_rule_table, 16 KiB at radius 3), and a small per-key
cache keeps the last tables built. Key setup runs the material automata on
the same kernel over (64, 8) packed rows, one per round, and keeps a key's
material for every round as one read-only (64, 4, 16) array; RoundMaterial
is the single-round view returned by derive_round_material.

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
BLOCK_BITS = 128
RECORD_BYTES = 2 * BLOCK_BYTES
KEY_BYTES = 32
CA_RADIUS = 3
MATERIAL_HISTORY = 4  # configurations kept per round: q_n .. q_{n-3}

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
class RoundMaterial:
    """One round's view of _round_materials: four 128-bit CAL+CAR values."""

    m_sub: bytes
    m_row: bytes
    m_mix: bytes
    m_key: bytes


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


def _check_block(value: bytes, what: str) -> bytes:
    if len(value) != BLOCK_BYTES:
        raise ValueError(f"{what} must be {BLOCK_BYTES} bytes, got {len(value)}")
    return value


def bits_from_bytes(data: bytes) -> np.ndarray:
    """Bytes to a cell row; bit 0 of the row is the MSB of byte 0."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


# --- rule expansion and round material --------------------------------------

def expand_rule_segment(segment: bytes) -> Rule:
    """64 key bits written into table entries 0-63 and repeated into 64-127."""
    if len(segment) != 8:
        raise ValueError(f"rule segment must be 8 bytes, got {len(segment)}")
    bits = bits_from_bytes(segment)
    return ca.rule_from_table(CA_RADIUS, np.concatenate([bits, bits]))


def _caf_rule(caf_segment: bytes) -> Rule:
    # the CAF segment is already 128 bits: one table entry per bit
    return ca.rule_from_table(CA_RADIUS, bits_from_bytes(caf_segment))


def round_constant(round_index: int) -> bytes:
    """64-bit seed for a round's material automata: bytes all (i+1) mod 256."""
    if round_index < 0:
        raise ValueError("round_index must be >= 0")
    return bytes([(round_index + 1) % 256]) * 8


def _segment_history(segment: bytes) -> np.ndarray:
    """Last four configurations of the segment's automaton, for every round.

    Returns (MAX_ROUNDS, 4, 8) packed rows; axis 1 is ordered newest first.
    Round i runs the same 64-cell second-order automaton from (round
    constant, segment) for four steps, so material depends on the key and
    round index only, never on the data being encrypted or the round count.
    """
    table = packed_rule_table(expand_rule_segment(segment))
    constants = b"".join(round_constant(i) for i in range(MAX_ROUNDS))
    prev = np.frombuffer(constants, dtype=np.uint8).reshape(MAX_ROUNDS, 8)
    curr = np.broadcast_to(np.frombuffer(segment, dtype=np.uint8), prev.shape)
    history = np.empty((MAX_ROUNDS, MATERIAL_HISTORY, 8), dtype=np.uint8)
    for t in range(MATERIAL_HISTORY):
        prev, curr = so_iterate_packed(prev, curr, table, 1)
        history[:, MATERIAL_HISTORY - 1 - t] = curr
    return history


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


def _round_material(key: SecretKey, round_index: int) -> np.ndarray:
    if not 0 <= round_index < MAX_ROUNDS:
        raise ValueError(f"round_index must be in 0..{MAX_ROUNDS - 1}, got {round_index}")
    return _round_materials(key.raw)[round_index]


def derive_round_material(key: SecretKey, round_index: int) -> RoundMaterial:
    """Material for one round; a pure function of (key, round_index)."""
    return RoundMaterial(*(m.tobytes() for m in _round_material(key, round_index)))


# --- the four round transforms ----------------------------------------------
#
# Internal versions operate on uint8 arrays shaped (..., 16) with material
# either a single 16-byte row or one row per batch entry.

def _parse_direction(direction: str) -> bool:
    if direction == "forward":
        return False
    if direction == "inverse":
        return True
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def _byte_sub(states: np.ndarray, material: np.ndarray, inverse: bool) -> np.ndarray:
    # rotation amount for byte j comes from the next material byte
    shifted = np.concatenate([material[..., 1:], material[..., :1]], axis=-1)
    rot = (shifted & 7).astype(np.uint16)
    if not inverse:
        s = states.astype(np.uint16)
        rolled = ((s << rot) | (s >> (8 - rot))) & 0xFF
        return (rolled ^ material).astype(np.uint8)
    t = (states ^ material).astype(np.uint16)
    return (((t >> rot) | (t << (8 - rot))) & 0xFF).astype(np.uint8)


def _shift_amounts(material_byte: np.ndarray) -> np.ndarray:
    """Four 2-bit amounts packed MSB-first into one material byte."""
    shifts = np.arange(6, -1, -2)
    return (material_byte[..., None] >> shifts) & 3


def _row_shift(states: np.ndarray, material: np.ndarray, inverse: bool) -> np.ndarray:
    amounts = _shift_amounts(material[..., 0].astype(np.int64))  # (..., 4)
    row = np.arange(16) // 4
    col = np.arange(16) % 4
    sign = -1 if inverse else 1
    src = row * 4 + (col + sign * amounts[..., row]) % 4
    if src.ndim == 1:
        return states[..., src]
    return np.take_along_axis(states, np.broadcast_to(src, states.shape), axis=-1)


_COLS = np.arange(4)


def _rotate_columns(grid: np.ndarray, src: np.ndarray) -> np.ndarray:
    # src holds, per (row, column), the row to read from
    if src.ndim == 2:
        return grid[..., src, _COLS]
    return np.take_along_axis(grid, np.broadcast_to(src, grid.shape), axis=-2)


def _column_mix(states: np.ndarray, material: np.ndarray, inverse: bool) -> np.ndarray:
    grid = states.reshape(states.shape[:-1] + (4, 4)).copy()
    amounts = _shift_amounts(material[..., 1].astype(np.int64))  # (..., 4) per column
    k = np.arange(4)[:, None]
    if not inverse:
        grid[..., 0, :] ^= grid[..., 1, :]
        grid[..., 2, :] ^= grid[..., 3, :]
        grid[..., 1, :] ^= grid[..., 0, :]
        grid[..., 3, :] ^= grid[..., 2, :]
        grid = _rotate_columns(grid, (k - amounts[..., None, :]) % 4)  # downward
    else:
        grid = _rotate_columns(grid, (k + amounts[..., None, :]) % 4)
        grid[..., 3, :] ^= grid[..., 2, :]
        grid[..., 1, :] ^= grid[..., 0, :]
        grid[..., 2, :] ^= grid[..., 3, :]
        grid[..., 0, :] ^= grid[..., 1, :]
    return grid.reshape(states.shape)


def byte_substitution(state: bytes, material: bytes, direction: str = "forward") -> bytes:
    """Per-byte rotation by a material-chosen amount, then XOR with material."""
    inverse = _parse_direction(direction)
    arr = np.frombuffer(_check_block(state, "state"), dtype=np.uint8)
    m = np.frombuffer(_check_block(material, "material"), dtype=np.uint8)
    return _byte_sub(arr, m, inverse).tobytes()


def row_shift(state: bytes, material: bytes, direction: str = "forward") -> bytes:
    """Rotate each 4-byte row by a 2-bit amount taken from the material."""
    inverse = _parse_direction(direction)
    arr = np.frombuffer(_check_block(state, "state"), dtype=np.uint8)
    m = np.frombuffer(_check_block(material, "material"), dtype=np.uint8)
    return _row_shift(arr, m, inverse).tobytes()


def column_mix(state: bytes, material: bytes, direction: str = "forward") -> bytes:
    """XOR network down each column followed by a material-chosen rotation."""
    inverse = _parse_direction(direction)
    arr = np.frombuffer(_check_block(state, "state"), dtype=np.uint8)
    m = np.frombuffer(_check_block(material, "material"), dtype=np.uint8)
    return _column_mix(arr, m, inverse).tobytes()


def add_round_key(state: bytes, material: bytes) -> bytes:
    """Bitwise XOR whitening; its own inverse."""
    arr = np.frombuffer(_check_block(state, "state"), dtype=np.uint8)
    m = np.frombuffer(_check_block(material, "material"), dtype=np.uint8)
    return (arr ^ m).tobytes()


def _round_forward_arr(states: np.ndarray, material: np.ndarray) -> np.ndarray:
    m_sub, m_row, m_mix, m_key = material
    states = _byte_sub(states, m_sub, inverse=False)
    states = _row_shift(states, m_row, inverse=False)
    states = _column_mix(states, m_mix, inverse=False)
    return states ^ m_key


def _round_inverse_arr(states: np.ndarray, material: np.ndarray) -> np.ndarray:
    m_sub, m_row, m_mix, m_key = material
    states = states ^ m_key
    states = _column_mix(states, m_mix, inverse=True)
    states = _row_shift(states, m_row, inverse=True)
    return _byte_sub(states, m_sub, inverse=True)


def round_forward(state: bytes, key: SecretKey, round_index: int) -> bytes:
    """One full round: substitution, row shift, column mix, key addition."""
    arr = np.frombuffer(_check_block(state, "state"), dtype=np.uint8)
    return _round_forward_arr(arr, _round_material(key, round_index)).tobytes()


def round_inverse(state: bytes, key: SecretKey, round_index: int) -> bytes:
    """Inverse of round_forward: the four inverse transforms in reverse order."""
    arr = np.frombuffer(_check_block(state, "state"), dtype=np.uint8)
    return _round_inverse_arr(arr, _round_material(key, round_index)).tobytes()


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


def caf_core_encrypt(
    state: bytes, rid: bytes, key: SecretKey, caf_steps: int
) -> tuple[bytes, bytes]:
    """Run the block-wide automaton forward from (rid, state).

    Returns (ciphertext, final data), the latter still unmasked.
    """
    if caf_steps < MIN_CAF_STEPS:
        raise ValueError(f"caf_steps must be >= {MIN_CAF_STEPS}")
    state_row = np.frombuffer(_check_block(state, "state"), dtype=np.uint8)
    rid_row = np.frombuffer(_check_block(rid, "rid"), dtype=np.uint8)
    c, final = _caf_forward(state_row, rid_row, key, caf_steps)
    return c.tobytes(), final.tobytes()


def caf_core_decrypt(ciphertext: bytes, final_data: bytes, key: SecretKey, caf_steps: int) -> bytes:
    """Run the automaton backward from (ciphertext, final data) to the state."""
    c = np.frombuffer(_check_block(ciphertext, "ciphertext"), dtype=np.uint8)
    final = np.frombuffer(_check_block(final_data, "final_data"), dtype=np.uint8)
    return _caf_backward(c, final, key, caf_steps).tobytes()


def mask_final_data(final_data: bytes, key: SecretKey) -> bytes:
    """Vernam-mask the final data with the 128-bit key segment; self-inverse."""
    value = np.frombuffer(_check_block(final_data, "final_data"), dtype=np.uint8)
    mask = np.frombuffer(key.caf_segment, dtype=np.uint8)
    return (value ^ mask).tobytes()


# --- single-block API --------------------------------------------------------

def encrypt_block(
    plaintext: bytes, key: SecretKey, params: CipherParams, rid: bytes
) -> CipherRecord:
    """Encrypt one 16-byte block with caller-supplied random initial data."""
    _check_block(plaintext, "plaintext")
    _check_block(rid, "rid")
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
    states = np.frombuffer(padded, dtype=np.uint8).reshape(n_blocks, BLOCK_BYTES)
    for material in _round_materials(key.raw)[: params.rounds]:
        states = _round_forward_arr(states, material)
    rid_rows = np.frombuffer(rids, dtype=np.uint8).reshape(n_blocks, BLOCK_BYTES)
    cipher_bytes, final_bytes = _caf_forward(states, rid_rows, key, params.caf_steps)
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
    for material in reversed(_round_materials(key.raw)[: params.rounds]):
        states = _round_inverse_arr(states, material)
    return states.tobytes()


def encrypt_stream(
    plaintext: bytes,
    key: SecretKey,
    params: CipherParams,
    rid_source: Callable[[], bytes],
) -> np.ndarray:
    """Pad and encrypt a byte string, one fresh rid per block.

    Returns the read-only (n, 32) uint8 record array, one wire record per row.
    """
    padded = pad(plaintext)
    n_blocks = len(padded) // BLOCK_BYTES
    rids = []
    for _ in range(n_blocks):
        rid = rid_source()
        if len(rid) != BLOCK_BYTES:
            raise ValueError("rid_source must yield 16-byte values")
        rids.append(rid)
    return _encrypt_padded(padded, key, params, b"".join(rids))


def decrypt_stream(records: np.ndarray, key: SecretKey, params: CipherParams) -> bytes:
    """Decrypt an (n, 32) record array and strip the padding."""
    return unpad(_decrypt_records_raw(records, key, params))


# --- rid sources ---------------------------------------------------------------

def os_rid_source() -> bytes:
    """Fresh random initial data from the operating system's entropy pool."""
    return secrets.token_bytes(BLOCK_BYTES)


class SeededRidSource:
    """Deterministic rid stream for reproducible runs; thread-safe."""

    def __init__(self, seed: bytes):
        self._seed = bytes(seed)
        self._counter = 0
        self._lock = threading.Lock()

    def __call__(self) -> bytes:
        with self._lock:
            n = self._counter
            self._counter += 1
        digest = hashlib.sha256(self._seed + n.to_bytes(8, "big")).digest()
        return digest[:BLOCK_BYTES]
