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

Nothing here unpacks bits. _rounds runs on (16, n) byte-position rows, row
j holding byte j of every block, from the key's schedule: one read-only
(64, 4, 16) array of each round's four material rows. It looks up the
constants they select once per call, so a round is three gathers and a few
XORs. For a fixed round count the rounds are one affine map over GF(2), so
a stream runs them as the key's map (_map_tables): per byte position, 256
images to gather and XOR, built from the rounds of 17 columns. The core
steps block-major rows, one gather per step from the key's window table
(packed_rule_table: 128 KiB, of which the steps read the 32 KiB in use at
radius 3). A SecretKey builds its schedule, window table and maps (64 KiB
per direction, for the last round count used) on first use and keeps them
while it lives, so reuse one SecretKey for a key's traffic.

All operations here are pure given an explicit rid. A stream's records are
one read-only (n, 32) uint8 array, row i holding block i's 16 ciphertext
bytes, then its 16 masked final-data bytes; only _halves knows this layout,
and _records and _unmask mask its uint64 words. CipherParams holds the
parameters, as the container header does on disk; CipherRecord is one
block's record.
"""
from __future__ import annotations

import hashlib
import secrets
import threading
from dataclasses import dataclass
from functools import cached_property
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
        object.__setattr__(self, "raw", bytes(memoryview(self.raw)))  # TypeError unless bytes-like
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

    # The key's expansion, built on first use and freed with the key. The
    # builders are looked up as module globals so perfbench can span them.
    @cached_property
    def _key_schedule(self) -> np.ndarray:
        return _round_materials(self.raw)

    @cached_property
    def _window_table(self) -> np.ndarray:
        return packed_rule_table(_caf_rule(self.caf_segment))

    @cached_property
    def _mask_words(self) -> tuple:  # the CAF segment as two uint64 scalars, for _mask
        return tuple(np.frombuffer(self.caf_segment, np.uint64))

    def _round_map(self, rounds: int, inverse: bool) -> np.ndarray:
        """The first `rounds` rounds as _map_tables; one map per direction is kept."""
        maps = self.__dict__.setdefault("_maps", {})  # inverse -> (rounds, map)
        held = maps.get(inverse, (0, None))
        if held[0] != rounds:  # return the map built here: a thread may replace it
            held = maps[inverse] = rounds, _map_tables(self._key_schedule[:rounds], inverse)
        return held[1]

    def __reduce__(self):
        # a pickled or copied key carries its 32 bytes, not its expansion
        return SecretKey, (self.raw,)


def parse_key(raw: bytes) -> SecretKey:
    """Validate and split 32 raw key bytes into the three rule segments."""
    return SecretKey(raw)


@dataclass(frozen=True)
class CipherParams:
    """Round count and CA step count; echoed by CipherRecord and the container header."""

    rounds: int = DEFAULT_ROUNDS
    caf_steps: int = DEFAULT_CAF_STEPS

    def __post_init__(self) -> None:
        ca.as_count(self.rounds, "rounds", MIN_ROUNDS, MAX_ROUNDS)
        ca.as_count(self.caf_steps, "caf_steps", MIN_CAF_STEPS, MAX_CAF_STEPS)


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
        """The 32-byte wire record, its halves placed as _halves reads them."""
        row = np.empty((1, RECORD_BYTES), np.uint8)
        for half, value in zip(_halves(row), (self.ciphertext, self.encrypted_final_data)):
            half[0] = np.frombuffer(value, np.uint64)
        return row.tobytes()


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


def _round_materials(raw_key: bytes) -> np.ndarray:
    """The key's schedule: a read-only (MAX_ROUNDS, 4, 16) uint8 array.

    Round i's rows are its material m_sub, m_row, m_mix and m_key, each a CAL
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

    A read-only (4, 16) uint8 view of the key's schedule whose rows are
    m_sub, m_row, m_mix and m_key.
    """
    return key._key_schedule[ca.as_count(round_index, "round_index", 0, MAX_ROUNDS - 1)]


# --- the four round transforms ----------------------------------------------
#
# They run on (16, n) byte-position rows, _map_tables' (16, 17) columns or a
# (16, 1) column in the single-round and stage functions, and return new
# rows. Only _constants knows which material byte selects which constant.

_ROWS, _COLS = np.divmod(np.arange(BLOCK_BYTES), 4)  # grid position of each byte
_BYTES = np.arange(256)
_NEXT = np.roll(np.arange(BLOCK_BYTES), -1)  # byte j rotates by material byte j + 1
# Entry 256·s + v is v rotated left by s (2 KiB): byte sub's one gather.
_ROTATED = (_BYTES << _BYTES[:8, None] | _BYTES >> 8 - _BYTES[:8, None]).astype(np.uint8).ravel()
# Indexed by direction (forward, inverse) and a material byte. _OFFSETS: the
# byte's low 3 bits as an offset into _ROTATED, a left rotation (inverse:
# right). The (16,) source rows: its 2-bit fields, MSB first, rotate grid
# row r left by field r (row shift) or grid column c down by field c (column
# rotation); the inverse rotates them back. They stay intp: take then casts
# no indices.
_SIGNS = np.array([1, -1])[:, None, None]
_FIELDS = (_BYTES[:, None] >> np.arange(6, -1, -2)) & 3
_OFFSETS = (_SIGNS[:, 0] * _BYTES & 7) << 8
_ROW_SHIFTS = 4 * _ROWS + (_COLS + _SIGNS * _FIELDS[:, _ROWS]) % 4
_COLUMN_ROTATIONS = 4 * ((_ROWS - _SIGNS * _FIELDS[:, _COLS]) % 4) + _COLS
_MAP_BLOCKS = 8192  # blocks per chunk of _through_rounds: 128 KiB of output
# _map_tables' (16, 17) columns: column i holds 1 in byte i, column 16 zero
_UNITS = np.eye(BLOCK_BYTES, BLOCK_BYTES + 1, dtype=np.uint8)
_ROTATIONS = _BYTES[:8, None] << 8  # offsets into _ROTATED of a left rotation by b


def _parse_direction(direction: str) -> bool:
    if direction == "forward":
        return False
    if direction == "inverse":
        return True
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def _constants(materials: np.ndarray, inverse: bool):
    """The constants (R, 4, 16) round materials select, for all R rounds at once.

    Returns (R, 16, 1) offsets into _ROTATED, byte j's from m_sub byte j + 1
    (mod 16), and (R, 16) row sources from m_row byte 0 and column sources
    from m_mix byte 1. For the inverse, each undoes the forward one.
    """
    d = int(inverse)
    return (_OFFSETS[d, materials[:, 0, _NEXT, None]], _ROW_SHIFTS[d, materials[:, 1, 0]],
            _COLUMN_ROTATIONS[d, materials[:, 2, 1]])


def _sub(y: np.ndarray, m_sub: np.ndarray, offsets: np.ndarray, inverse: bool) -> np.ndarray:
    """Byte substitution: rotate row j by its offset into _ROTATED, then XOR m_sub.

    The inverse XORs first.
    """
    if inverse:
        return _ROTATED.take(offsets + (y ^ m_sub))
    return _ROTATED.take(offsets + y) ^ m_sub


def _mix(y: np.ndarray, sources: np.ndarray, inverse: bool) -> np.ndarray:
    """Column mix of (16, n) rows: an XOR network, then the rotation `sources`.

    Down each grid column rows 0 ^= 1 and 2 ^= 3, then 1 ^= 0 and 3 ^= 2, so
    each pair (a, b) becomes (a ^ b, a). The inverse, given the inverse's
    sources, undoes both, last first.
    """
    if inverse:
        y = y.take(sources, axis=0)
    pairs = y.reshape(2, 2, 4, -1)  # pairs[p, q] is grid row 2p + q
    first, second = pairs[:, 0], pairs[:, 1]
    if inverse:  # (a ^ b, a) back to (a, b)
        return np.concatenate((second, first ^ second), axis=1).reshape(BLOCK_BYTES, -1)
    mixed = np.concatenate((first ^ second, first), axis=1).reshape(BLOCK_BYTES, -1)
    return mixed.take(sources, axis=0)


def _rounds(y: np.ndarray, materials: np.ndarray, inverse: bool) -> np.ndarray:
    """Run the rounds of `materials` (R, 4, 16) over (16, n) rows; inverse undoes them.

    Returns new C-ordered (16, n) rows; `y` is never written.
    """
    offsets, rows, columns = _constants(materials, inverse)
    steps = list(zip(materials[:, 0, :, None], materials[:, 3, :, None], offsets, rows, columns))
    for m_sub, m_key, offset, row, column in reversed(steps) if inverse else steps:
        if inverse:
            y = _sub(_mix(y ^ m_key, column, True).take(row, axis=0), m_sub, offset, True)
        else:
            y = _mix(_sub(y, m_sub, offset, False).take(row, axis=0), column, False) ^ m_key
    return y


def _map_tables(materials: np.ndarray, inverse: bool) -> np.ndarray:
    """The rounds of `materials` (R, 4, 16) as read-only (16, 256, 2) uint64 tables.

    For fixed rounds the cipher's rounds are affine over GF(2), x -> Ax ^ c.
    Entry v of table i is the image of the block whose byte i is v and whose
    other bytes are 0, with c folded into table 0, so a block's image is the
    XOR of its 16 bytes' entries. _rounds runs once, on the 16 blocks whose
    byte i is 1 and the zero block. A's steps rotate single bytes, move bytes
    and XOR whole bytes, so A commutes with rotating every byte left by b:
    byte i = 2^b's image is byte i = 1's with every byte so rotated, one
    gather from _ROTATED. The entries are then filled by doubling over v.
    """
    images = np.ascontiguousarray(_rounds(_UNITS, materials, inverse).T)
    linear = (images[:BLOCK_BYTES] ^ images[BLOCK_BYTES])[:, None]
    units = _ROTATED.take(linear + _ROTATIONS).view(np.uint64).reshape(BLOCK_BYTES, 8, 2, 1)
    halves = np.zeros((BLOCK_BYTES, 2, 256), np.uint64)  # v last: inner loops run over v
    halves[0, :, 0] = images[BLOCK_BYTES].view(np.uint64)
    for b in range(8):
        np.bitwise_xor(halves[..., : 1 << b], units[:, b], out=halves[..., 1 << b : 2 << b])
    tables = np.empty((BLOCK_BYTES, 256, 2), np.uint64)
    tables[..., 0], tables[..., 1] = halves[:, 0], halves[:, 1]  # faster than one transpose
    tables.flags.writeable = False
    return tables


def _through_rounds(blocks: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """(n, 16) uint8 blocks through the rounds `tables` hold (see _map_tables).

    Returns new C-ordered (n, 16) rows. Each chunk of _MAP_BLOCKS blocks takes
    one gather of table rows per byte position, XORed into the first.
    """
    out = np.empty((len(blocks), 2), np.uint64)
    got = np.empty((min(len(blocks), _MAP_BLOCKS), 2), np.uint64)
    xor = np.bitwise_xor
    for a in range(0, len(blocks), _MAP_BLOCKS):
        chunk, image = blocks[a : a + _MAP_BLOCKS], out[a : a + _MAP_BLOCKS]
        got = got[: len(chunk)]  # only the last chunk is shorter
        (table, column), *rest = zip(tables, chunk.T)
        table.take(column, 0, image, "clip")  # bytes never clip
        for table, column in rest:
            xor(image, table.take(column, 0, got, "clip"), image)
    return out.view(np.uint8)


def _stage(state: bytes, material: bytes, direction: str):
    """A block and a material as (16, 1) columns, the direction, and the
    (offsets, row sources, column sources) the material selects (_constants)."""
    inverse = _parse_direction(direction)
    m = _block(material, "material")
    constants = _constants(np.broadcast_to(m, (1, 4, BLOCK_BYTES)), inverse)
    return _block(state, "state")[:, None], m[:, None], inverse, [c[0] for c in constants]


def byte_substitution(state: bytes, material: bytes, direction: str = "forward") -> bytes:
    """Per-byte rotation by a material-chosen amount, then XOR with material."""
    y, m, inverse, (offsets, _, _) = _stage(state, material, direction)
    return _sub(y, m, offsets, inverse).tobytes()


def row_shift(state: bytes, material: bytes, direction: str = "forward") -> bytes:
    """Rotate each 4-byte row by a 2-bit amount taken from the material."""
    y, _, _, (_, rows, _) = _stage(state, material, direction)
    return y.take(rows, axis=0).tobytes()


def column_mix(state: bytes, material: bytes, direction: str = "forward") -> bytes:
    """XOR network down each column followed by a material-chosen rotation."""
    y, _, inverse, (_, _, columns) = _stage(state, material, direction)
    return _mix(y, columns, inverse).tobytes()


def add_round_key(state: bytes, material: bytes) -> bytes:
    """Bitwise XOR whitening; its own inverse."""
    return (_block(state, "state") ^ _block(material, "material")).tobytes()


def round_forward(state: bytes, key: SecretKey, round_index: int) -> bytes:
    """One full round: substitution, row shift, column mix, key addition."""
    y = _block(state, "state")[:, None]
    return _rounds(y, derive_round_material(key, round_index)[None], False).tobytes()


def round_inverse(state: bytes, key: SecretKey, round_index: int) -> bytes:
    """Inverse of round_forward: the four inverse transforms in reverse order."""
    y = _block(state, "state")[:, None]
    return _rounds(y, derive_round_material(key, round_index)[None], True).tobytes()


# --- the 128-cell core -------------------------------------------------------

def _caf_forward(states: np.ndarray, rids: np.ndarray, key: SecretKey, caf_steps: int):
    """Run the block-wide automaton forward from (rid, state) rows of bytes.

    Returns (ciphertext, final data) as byte rows: the pair of configurations
    left at the end of the run, next-to-last first.
    """
    return so_iterate_packed(rids, states, key._window_table, caf_steps)


def _caf_backward(
    ciphertext: np.ndarray, final_data: np.ndarray, key: SecretKey, caf_steps: int
) -> np.ndarray:
    """Run the automaton backward to the state rows; the recovered rid is discarded."""
    states, _ = so_iterate_packed(final_data, ciphertext, key._window_table, caf_steps)
    return states


def _halves(records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The wire layout: the (n, 2) uint64 words of the ciphertext, then of the
    masked final data, of (n, 32) uint8 records. Views of the records, or of a
    C-ordered copy when a row's bytes are not contiguous; unaligned is fine."""
    words = np.ascontiguousarray(records).view(np.uint64)
    return words[:, :2], words[:, 2:]


def _mask(words: np.ndarray, key: SecretKey, out: np.ndarray) -> np.ndarray:
    """`words` (n, 2) XOR the CAF segment into `out`, a column of uint64 at a time."""
    for j, m in enumerate(key._mask_words):
        np.bitwise_xor(words[:, j], m, out=out[:, j])
    return out


def _records(ciphertext: np.ndarray, final_data: np.ndarray, key: SecretKey) -> np.ndarray:
    """Read-only row-major (n, 32) records: ciphertext rows, then masked final data."""
    records = np.empty((len(ciphertext), RECORD_BYTES), np.uint8)
    cipher_words, final_words = _halves(records)
    cipher_words.view(np.uint8)[:], final_words.view(np.uint8)[:] = ciphertext, final_data
    _mask(final_words, key, final_words)
    records.flags.writeable = False
    return records


def _unmask(records: np.ndarray, key: SecretKey) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of _records: the (ciphertext, final data) byte rows of (n, 32) records."""
    cipher_words, masked = _halves(records)
    final = _mask(masked, key, np.empty((len(masked), 2), np.uint64))
    return cipher_words.view(np.uint8), final.view(np.uint8)


def mask_final_data(final_data: bytes, key: SecretKey) -> bytes:
    """Vernam-mask the final data with the 128-bit key segment; self-inverse."""
    return (_block(final_data, "final_data") ^ np.frombuffer(key.caf_segment, np.uint8)).tobytes()


# --- single-block API --------------------------------------------------------

def encrypt_block(
    plaintext: bytes, key: SecretKey, params: CipherParams, rid: bytes
) -> CipherRecord:
    """Encrypt one 16-byte block with caller-supplied random initial data."""
    _block(plaintext, "plaintext")
    _block(rid, "rid")
    ciphertext, masked = _halves(_encrypt_padded(plaintext, key, params, rid))
    return CipherRecord(
        ciphertext=ciphertext.tobytes(),
        encrypted_final_data=masked.tobytes(),
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
    y = _through_rounds(blocks, key._round_map(params.rounds, False))
    rid_rows = np.frombuffer(rids, dtype=np.uint8).reshape(n_blocks, BLOCK_BYTES)
    cipher_bytes, final_bytes = _caf_forward(y, rid_rows, key, params.caf_steps)
    del y, rids, rid_rows  # freed before the records are built, which sets the peak
    return _records(cipher_bytes, final_bytes, key)


def _decrypt_records_raw(records: np.ndarray, key: SecretKey, params: CipherParams) -> bytes:
    """Decrypt an (n, 32) record array to the padded byte stream (no padding removal)."""
    records = np.asarray(records)
    if records.dtype != np.uint8 or records.shape[1:] != (RECORD_BYTES,) or not len(records):
        raise RecordFormatError(
            f"records must be a non-empty (n, {RECORD_BYTES}) uint8 array, "
            f"got {records.dtype} {records.shape}"
        )
    states = _caf_backward(*_unmask(records, key), key, params.caf_steps)
    return _through_rounds(states, key._round_map(params.rounds, True)).tobytes()


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
    return secrets.token_bytes(BLOCK_BYTES * ca.as_count(n, "rid count", 0))


class SeededRidSource:
    """Deterministic rid stream for reproducible runs; thread-safe.

    Rid i of the stream is sha256(seed || i as 8 big-endian bytes)[:16]; a
    call for n rids takes the next n indices and returns their 16·n bytes.
    The rids are joined 2^12 at a time and then the batches, so a call holds
    about twice its output, not one 16-byte object per rid.
    """

    _BATCH = 1 << 12

    def __init__(self, seed: bytes):
        self._seed = bytes(seed)
        self._counter = 0
        self._lock = threading.Lock()

    def __call__(self, n: int = 1) -> bytes:
        n = ca.as_count(n, "rid count", 0)
        with self._lock:
            start = self._counter
            self._counter += n
        end = start + n
        return b"".join([  # a single batch comes back as it is
            b"".join([hashlib.sha256(self._seed + i.to_bytes(8, "big")).digest()[:BLOCK_BYTES]
                      for i in range(lo, min(lo + self._BATCH, end))])
            for lo in range(start, end, self._BATCH)
        ])
