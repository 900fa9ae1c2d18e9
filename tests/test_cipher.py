import copy
import gc
import hashlib
import pickle
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpca import cipher
from rpca.ca import Boundary
from rpca.cipher import (
    CipherParams,
    CipherRecord,
    KeyFormatError,
    PaddingError,
    ParameterMismatchError,
    RecordFormatError,
    SeededRidSource,
    add_round_key,
    byte_substitution,
    column_mix,
    decrypt_block,
    decrypt_stream,
    derive_round_material,
    encrypt_block,
    encrypt_stream,
    expand_rule_segment,
    mask_final_data,
    os_rid_source,
    parse_key,
    round_forward,
    round_inverse,
    row_shift,
)
from rpca.container import ContainerHeader, read_container, write_container
from rpca.second_order import SecondOrderState, so_iterate_backward, so_iterate_forward

from helpers import (
    bits_of_bytes,
    naive_add_round_key,
    naive_byte_sub,
    naive_column_mix,
    naive_decrypt_block,
    naive_encrypt_block,
    naive_round,
    naive_round_materials,
    naive_row_shift,
    naive_so_run,
)

ZERO_KEY = parse_key(bytes(32))
FAST = CipherParams(rounds=1, caf_steps=2)
SMALL = CipherParams(rounds=3, caf_steps=8)


def rand_key(rng):
    return parse_key(rng.bytes(32))


def rand_block(rng):
    return rng.bytes(16)


def row(data):
    return np.frombuffer(data, dtype=np.uint8)


class TestParseKey:
    def test_zero_key_segments(self):
        key = parse_key(bytes(32))
        assert key.cal_segment == bytes(8)
        assert key.car_segment == bytes(8)
        assert key.caf_segment == bytes(16)

    def test_segment_offsets(self):
        raw = bytearray(32)
        raw[8] = 0x80  # key bit 64
        key = parse_key(bytes(raw))
        assert key.car_segment[0] == 0x80
        assert key.cal_segment == bytes(8)

        raw = bytearray(32)
        raw[16] = 0x80  # key bit 128
        key = parse_key(bytes(raw))
        assert key.caf_segment[0] == 0x80

    def test_segments_partition_raw(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            key = rand_key(rng)
            assert key.cal_segment + key.car_segment + key.caf_segment == key.raw

    @pytest.mark.parametrize("n", [0, 16, 31, 33, 64])
    def test_wrong_length_rejected(self, n):
        with pytest.raises(KeyFormatError):
            parse_key(bytes(n))

    @pytest.mark.parametrize("raw", [32, "x" * 32, list(range(32))], ids=["int", "str", "list"])
    def test_non_bytes_like_key_refused(self, raw):
        for build in (parse_key, cipher.SecretKey):
            with pytest.raises(TypeError):
                build(raw)

    @pytest.mark.parametrize("build", [parse_key, cipher.SecretKey])
    def test_bytes_like_key_holds_its_own_copy(self, build):
        raw = bytes(range(32))
        buffer = bytearray(raw)
        key, want = build(buffer), parse_key(raw)
        assert key.raw == raw and type(key.raw) is bytes
        assert key == want and hash(key) == hash(want)

        def sealed_by(k):
            return encrypt_stream(b"sixteen byte msg", k, FAST, SeededRidSource(b"k"))

        records = sealed_by(key)  # builds the key's expansion before the write below
        buffer[:] = bytes(32)  # a later write to the caller's buffer reaches neither key
        assert key.raw == raw
        assert np.array_equal(sealed_by(key), records) and np.array_equal(sealed_by(want), records)
        assert decrypt_stream(records, key, FAST) == b"sixteen byte msg"

    def test_uint8_array_key_parses(self):
        raw = np.arange(32, dtype=np.uint8)
        assert parse_key(raw) == parse_key(raw.tobytes())

    def test_key_space_is_exactly_256_bits(self):
        # structural claim: the three segment widths tile the raw key
        assert 2 ** (8 * 8) * 2 ** (8 * 8) * 2 ** (16 * 8) == 2**256


class TestExpandRuleSegment:
    def test_zero_segment(self):
        rule = expand_rule_segment(bytes(8))
        assert rule.number == 0
        assert not rule.table.any()

    def test_ones_segment(self):
        rule = expand_rule_segment(b"\xff" * 8)
        assert rule.table.all()
        assert rule.number == (1 << 128) - 1

    def test_bit5_lands_on_entries_5_and_69(self):
        segment = bytes([0b00000100]) + bytes(7)  # segment bit 5 set
        rule = expand_rule_segment(segment)
        assert rule.number == (1 << 5) | (1 << 69)
        set_entries = np.flatnonzero(rule.table)
        assert list(set_entries) == [5, 69]

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            expand_rule_segment(bytes(7))


class TestRoundMaterial:
    def test_deterministic(self):
        rng = np.random.default_rng(1)
        key = rand_key(rng)
        assert np.array_equal(derive_round_material(key, 3), derive_round_material(key, 3))

    def test_zero_key_round0_matches_straight_line_oracle(self):
        got = derive_round_material(ZERO_KEY, 0)
        expected = naive_round_materials(ZERO_KEY.raw, 0)
        assert [m.tobytes() for m in got] == expected

    def test_random_keys_match_straight_line_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            key = rand_key(rng)
            index = int(rng.integers(0, 12))
            got = derive_round_material(key, index)
            expected = naive_round_materials(key.raw, index)
            assert [m.tobytes() for m in got] == expected

    def test_rounds_differ(self):
        a = derive_round_material(ZERO_KEY, 0)
        b = derive_round_material(ZERO_KEY, 1)
        assert not np.array_equal(a, b)

    def test_last_round_matches_straight_line_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(2):
            key = rand_key(rng)
            got = derive_round_material(key, cipher.MAX_ROUNDS - 1)
            expected = naive_round_materials(key.raw, cipher.MAX_ROUNDS - 1)
            assert [m.tobytes() for m in got] == expected

    def test_material_independent_of_total_rounds(self):
        rng = np.random.default_rng(3)
        key = rand_key(rng)
        m = derive_round_material(key, 2)
        rows = [row.tobytes() for row in cipher._round_materials(key.raw)[2, :4]]
        assert rows == [row.tobytes() for row in m]

    def test_material_array_is_read_only(self):
        materials = cipher._round_materials(ZERO_KEY.raw)
        assert materials.shape == (cipher.MAX_ROUNDS, 4, 16)
        with pytest.raises(ValueError):
            materials[0, 0, 0] = 1
        row = derive_round_material(ZERO_KEY, 0)
        assert row.shape == (4, 16)
        with pytest.raises(ValueError):
            row[0, 0] = 1

    def test_schedule_materials_match_oracle_in_every_round(self):
        rng = np.random.default_rng(27)
        for _ in range(3):
            raw = rng.bytes(32)
            schedule = cipher._round_materials(raw)
            for index in range(cipher.MAX_ROUNDS):
                rows = [row.tobytes() for row in schedule[index, :4]]
                assert rows == naive_round_materials(raw, index)

    def test_key_expansion_built_once_per_key(self, monkeypatch):
        # count through the module attributes perfbench's key-setup span wraps;
        # a rounds map is counted with its round count and direction
        builds = []
        for name in ("_round_materials", "_caf_rule", "_map_tables"):
            def counted(*args, _build=getattr(cipher, name), _name=name):
                builds.append((_name, len(args[0]), args[1]) if _name == "_map_tables" else _name)
                return _build(*args)
            monkeypatch.setattr(cipher, name, counted)
        key = parse_key(bytes(range(32)))
        for seed in (b"a", b"b"):
            records = encrypt_stream(b"built once" * 5, key, SMALL, SeededRidSource(seed))
            assert decrypt_stream(records, key, SMALL) == b"built once" * 5
        derive_round_material(key, 5)
        round_forward(bytes(16), key, 2)
        maps = [("_map_tables", 3, False), ("_map_tables", 3, True)]
        assert sorted(builds, key=repr) == ["_caf_rule", "_round_materials", *maps]
        # a key keeps one map per direction: another round count replaces it
        builds.clear()
        for params in (FAST, FAST, SMALL):
            block = encrypt_block(bytes(16), key, params, bytes(16))
            assert decrypt_block(block, key, params) == bytes(16)
        assert builds == [("_map_tables", 1, False), ("_map_tables", 1, True), *maps]
        # the expansion lives on the key object: an equal key builds its own
        builds.clear()
        derive_round_material(parse_key(key.raw), 0)
        assert builds == ["_round_materials"]

    def test_key_expansion_freed_with_key(self):
        key = parse_key(bytes(range(32)))
        for params in (SMALL, FAST, CipherParams(64, 2)):
            decrypt_stream(encrypt_stream(b"", key, params, SeededRidSource(b"freed")), key, params)
        assert sorted((inverse, rounds) for inverse, (rounds, _) in key._maps.items()) == [
            (False, 64), (True, 64)]
        tables = [tables for _, tables in key._maps.values()]
        assert sum(t.nbytes for t in tables) == 128 * 1024
        refs = [weakref.ref(x) for x in (key._key_schedule, key._window_table, *tables)]
        del key, tables
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_threads_sharing_a_key_each_get_their_round_count(self):
        key = parse_key(bytes(range(32)))
        cases = [(CipherParams(rounds, 2), bytes([rounds]) * 48) for rounds in (1, 2, 3, 5)]
        want = [cipher._encrypt_padded(padded, parse_key(key.raw), params, bytes(48)).tobytes()
                for params, padded in cases]
        wrong = []

        def run(k):
            for j in range(k, k + 40):
                (params, padded), expected = cases[j % 4], want[j % 4]
                records = cipher._encrypt_padded(padded, key, params, bytes(48))
                if (records.tobytes() != expected
                        or cipher._decrypt_records_raw(records, key, params) != padded):
                    wrong.append((k, j))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert len(key._maps) == 2

    def test_pickled_key_carries_only_its_bytes(self):
        key = parse_key(bytes(range(32)))
        derive_round_material(key, 0)
        for clone in (pickle.loads(pickle.dumps(key)), copy.copy(key), copy.deepcopy(key)):
            assert vars(clone) == {"raw": key.raw}
            assert clone == key
            schedule = clone._key_schedule
            assert np.array_equal(schedule, key._key_schedule)
            assert not schedule.flags.writeable
        assert len(pickle.dumps(key)) < 100

    def test_negative_round_rejected(self):
        for index in (-1, cipher.MAX_ROUNDS):
            with pytest.raises(ValueError, match=r"0\.\.63"):
                derive_round_material(ZERO_KEY, index)
            with pytest.raises(ValueError, match=r"0\.\.63"):
                round_forward(bytes(16), ZERO_KEY, index)
            with pytest.raises(ValueError, match=r"0\.\.63"):
                round_inverse(bytes(16), ZERO_KEY, index)


class TestByteSubstitution:
    def test_zero_material_is_identity(self):
        state = bytes(range(16))
        assert byte_substitution(state, bytes(16)) == state

    def test_hand_example(self):
        out = byte_substitution(b"\x01" * 16, b"\x01" * 16)
        assert out == b"\x03" * 16  # rotate 0x01 left by 1, then xor 0x01

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            s, m = rand_block(rng), rand_block(rng)
            assert byte_substitution(byte_substitution(s, m), m, "inverse") == s

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            byte_substitution(bytes(16), bytes(16), "backwards")


class TestRowShift:
    def test_zero_shift_byte_is_identity(self):
        rng = np.random.default_rng(5)
        state = rand_block(rng)
        material = bytes(1) + rand_block(rng)[1:]
        assert row_shift(state, material) == state

    def test_single_row_rotation(self):
        state = bytes(range(16))
        material = bytes([0b00010000]) + bytes(15)  # s_1 = 1, other rows fixed
        out = row_shift(state, material)
        assert out[0:4] == state[0:4]
        assert out[4:8] == bytes([5, 6, 7, 4])  # (a,b,c,d) -> (b,c,d,a)
        assert out[8:16] == state[8:16]

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            s, m = rand_block(rng), rand_block(rng)
            assert row_shift(row_shift(s, m), m, "inverse") == s


class TestColumnMix:
    def test_zero_column_stays_zero(self):
        assert column_mix(bytes(16), bytes(16)) == bytes(16)

    def test_xor_network_hand_example(self):
        state = bytearray(16)
        state[0] = 1  # column 0 = (1, 0, 0, 0)
        out = column_mix(bytes(state), bytes(16))
        assert (out[0], out[4], out[8], out[12]) == (1, 1, 0, 0)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            s, m = rand_block(rng), rand_block(rng)
            assert column_mix(column_mix(s, m), m, "inverse") == s


class TestAddRoundKey:
    def test_zero_material_is_identity(self):
        assert add_round_key(b"\xaa" * 16, bytes(16)) == b"\xaa" * 16

    def test_self_cancelling(self):
        assert add_round_key(b"\x5c" * 16, b"\x5c" * 16) == bytes(16)

    def test_leading_bytes(self):
        s = b"\xff\x00" + bytes(14)
        m = b"\x0f\xf0" + bytes(14)
        assert add_round_key(s, m)[:2] == b"\xf0\xf0"


@pytest.mark.parametrize("stage", [byte_substitution, row_shift, column_mix, add_round_key])
@pytest.mark.parametrize("state,material,what", [
    (bytes(15), bytes(16), "state must be 16 bytes, got 15"),
    (bytes(16), bytes(17), "material must be 16 bytes, got 17"),
])
def test_stage_rejects_a_wrong_length(stage, state, material, what):
    with pytest.raises(ValueError, match=what):
        stage(state, material)


class TestRound:
    def test_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            key, s = rand_key(rng), rand_block(rng)
            index = int(rng.integers(0, 10))
            assert round_inverse(round_forward(s, key, index), key, index) == s

    def test_matches_stage_composition_with_oracle_material(self):
        m_sub, m_row, m_mix, m_key = naive_round_materials(ZERO_KEY.raw, 0)
        s = bytes(16)
        expected = add_round_key(
            column_mix(row_shift(byte_substitution(s, m_sub), m_row), m_mix), m_key
        )
        assert round_forward(s, ZERO_KEY, 0) == expected

    def test_round_indices_give_different_outputs(self):
        rng = np.random.default_rng(9)
        key, s = rand_key(rng), rand_block(rng)
        outputs = {round_forward(s, key, i) for i in range(8)}
        assert len(outputs) == 8


BLOCKS = st.binary(min_size=16, max_size=16)


class TestStageOracles:
    """Each public stage and round equals its straight-line oracle in helpers."""

    @pytest.mark.parametrize(
        "stage, oracle",
        [(byte_substitution, naive_byte_sub), (row_shift, naive_row_shift),
         (column_mix, naive_column_mix)],
    )
    @given(state=BLOCKS, material=BLOCKS, inverse=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_stage_matches_oracle(self, stage, oracle, state, material, inverse):
        direction = "inverse" if inverse else "forward"
        assert stage(state, material, direction) == oracle(state, material, inverse)

    @given(state=BLOCKS, material=BLOCKS)
    @settings(max_examples=50, deadline=None)
    def test_add_round_key_matches_oracle(self, state, material):
        assert add_round_key(state, material) == naive_add_round_key(state, material)

    @given(raw=st.binary(min_size=32, max_size=32), state=BLOCKS,
           index=st.integers(0, cipher.MAX_ROUNDS - 1))
    @settings(max_examples=30, deadline=None)
    def test_round_matches_oracle(self, raw, state, index):
        key = parse_key(raw)
        materials = naive_round_materials(raw, index)
        assert round_forward(state, key, index) == naive_round(state, materials)
        assert round_inverse(state, key, index) == naive_round(state, materials, inverse=True)

    @pytest.mark.parametrize("inverse", [False, True])
    def test_byte_sub_every_value_and_amount(self, inverse):
        # material byte j+1 sets row j's rotation: rows 0..15 get 0..7 twice
        rng = np.random.default_rng(26)
        material = (rng.integers(0, 256, 16, dtype=np.uint8) & 0xF8) | np.roll(np.arange(16) % 8, 1)
        material = material.astype(np.uint8)
        y = np.tile(np.arange(256, dtype=np.uint8), (16, 1))  # column v = sixteen bytes of v
        offsets = cipher._constants(np.broadcast_to(material, (1, 4, 16)), inverse)[0][0]
        got = cipher._sub(y, material[:, None], offsets, inverse)
        assert got.shape == (16, 256)
        for v in range(256):
            expected = naive_byte_sub(bytes([v]) * 16, material.tobytes(), inverse)
            assert got[:, v].tobytes() == expected

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize(
        "stage, oracle, selector",
        [(row_shift, naive_row_shift, 0), (column_mix, naive_column_mix, 1)],
    )
    def test_every_value_of_the_selecting_byte(self, stage, oracle, selector, inverse):
        # m_row byte 0 and m_mix byte 1 each pick one of 256 source rows
        rng = np.random.default_rng(30 + selector)
        state = bytes(rng.permutation(256)[:16].astype(np.uint8))  # distinct bytes
        material = bytearray(rand_block(rng))
        direction = "inverse" if inverse else "forward"
        for v in range(256):
            material[selector] = v
            assert stage(state, bytes(material), direction) == oracle(state, material, inverse)

    @given(
        rounds=st.integers(1, cipher.MAX_ROUNDS),
        n=st.sampled_from([1, 2, 3, 257]) | st.integers(1, 600),
        layout=st.sampled_from(["c", "read-only", "fortran", "strided"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rounds=cipher.MAX_ROUNDS, n=257, layout="c", seed=0)
    @example(rounds=cipher.MAX_ROUNDS, n=600, layout="fortran", seed=1)
    @settings(max_examples=60, deadline=None)
    def test_batched_rounds_match_oracle(self, rounds, n, layout, seed):
        rng = np.random.default_rng(seed)
        materials = rng.integers(0, 256, (rounds, 4, 16), dtype=np.uint8)
        blocks = rng.integers(0, 256, (n, 16), dtype=np.uint8)
        if layout == "read-only":
            y = np.frombuffer(blocks.T.tobytes(), dtype=np.uint8).reshape(16, n)
        elif layout == "fortran":
            y = blocks.T  # (16, n) view of C-ordered blocks: Fortran order
        elif layout == "strided":
            wide = np.zeros((32, 2 * n), dtype=np.uint8)
            wide[::2, ::2] = blocks.T
            y = wide[::2, ::2]
        else:
            y = np.ascontiguousarray(blocks.T)
        before = y.copy()
        forward = cipher._rounds(y, materials, inverse=False)
        inverse = cipher._rounds(y, materials, inverse=True)
        assert np.array_equal(y, before)  # the input is never written
        assert forward.shape == inverse.shape == (16, n)
        assert forward.flags.c_contiguous and inverse.flags.c_contiguous
        rows = [[m.tobytes() for m in round_materials] for round_materials in materials]
        checked = sorted({0, n - 1, *rng.integers(0, n, 6).tolist()})
        for i in checked:
            fwd = inv = blocks[i].tobytes()
            for round_materials in rows:
                fwd = naive_round(fwd, round_materials)
            for round_materials in reversed(rows):
                inv = naive_round(inv, round_materials, inverse=True)
            assert forward[:, i].tobytes() == fwd
            assert inverse[:, i].tobytes() == inv
        assert np.array_equal(cipher._rounds(forward, materials, inverse=True), before)

    def test_oracle_round_trips(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            state = rand_block(rng)
            materials = [rand_block(rng) for _ in range(4)]
            assert naive_round(naive_round(state, materials), materials, inverse=True) == state

    @pytest.mark.parametrize("rounds", [1, 10, 64])
    def test_rounds_are_one_affine_map_over_gf2(self, rounds):
        """For a fixed key and round count the rounds are x -> Ax ^ c on the 128 block bits.

        A and c come from the oracle alone, on the zero block and the 128 unit
        blocks, under a random key. `_rounds` is then checked on a megabyte of
        random blocks: forward against Ax ^ c, inverse as undoing it. The float32
        matmul is exact, as its entries are sums of at most 128 ones.
        """
        rng = np.random.default_rng(rounds)
        raw = rng.bytes(32)
        schedule = [naive_round_materials(raw, i) for i in range(rounds)]

        def oracle_bits(block):
            for materials in schedule:
                block = naive_round(block, materials)
            return np.array(bits_of_bytes(block), dtype=np.uint8)

        c = oracle_bits(bytes(16))
        units = [(1 << (127 - j)).to_bytes(16, "big") for j in range(128)]
        a = np.stack([oracle_bits(u) ^ c for u in units], axis=1).astype(np.float32)

        blocks = rng.integers(0, 256, (16, 62_501), dtype=np.uint8)
        materials = cipher._round_materials(raw)[:rounds]
        forward = cipher._rounds(blocks, materials, inverse=False)
        x = np.unpackbits(blocks.T, axis=1).astype(np.float32)
        expected = (x @ a.T).astype(np.uint8) & 1 ^ c
        assert np.array_equal(np.unpackbits(forward.T, axis=1), expected)
        assert np.array_equal(cipher._rounds(forward, materials, inverse=True), blocks)
        # the key's map: the XOR of each byte's table entry is A·unit ^ c, and c for 0
        tables = cipher._map_tables(materials, inverse=False)
        inputs = np.frombuffer(b"".join(units) + bytes(16), np.uint8).reshape(129, 16)
        images = np.bitwise_xor.reduce(tables[np.arange(16), inputs], axis=1)
        bits = np.unpackbits(images.view(np.uint8), axis=1)
        assert np.array_equal(bits, np.vstack([a.T.astype(np.uint8) ^ c, c]))

    @given(
        rounds=st.integers(1, cipher.MAX_ROUNDS),
        inverse=st.booleans(),
        n=st.sampled_from([1, 8191, 8192, 8193]) | st.integers(1, 20_000),
        layout=st.sampled_from(["c", "fortran", "strided"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rounds=cipher.MAX_ROUNDS, inverse=True, n=8193, layout="fortran", seed=0)
    @example(rounds=1, inverse=False, n=8192, layout="strided", seed=1)
    @settings(max_examples=40, deadline=None)
    def test_map_matches_rounds(self, rounds, inverse, n, layout, seed):
        rng = np.random.default_rng(seed)
        materials = rng.integers(0, 256, (rounds, 4, 16), dtype=np.uint8)
        blocks = rng.integers(0, 256, (n, 16), dtype=np.uint8)
        if layout == "fortran":  # as the core returns its rows
            blocks = np.asfortranarray(blocks)
        elif layout == "strided":
            wide = np.zeros((2 * n, 32), dtype=np.uint8)
            wide[::2, ::2] = blocks
            blocks = wide[::2, ::2]
        tables = cipher._map_tables(materials, inverse)
        assert tables.shape == (16, 256, 2) and not tables.flags.writeable
        got = cipher._through_rounds(blocks, tables)
        assert got.dtype == np.uint8 and got.flags.c_contiguous
        assert np.array_equal(got, cipher._rounds(blocks.T, materials, inverse).T)


class TestCafCore:
    def test_round_trip(self):
        rng = np.random.default_rng(10)
        for steps in (2, 8, 32):
            key, state, rid = rand_key(rng), rand_block(rng), rand_block(rng)
            c, final = cipher._caf_forward(row(state), row(rid), key, steps)
            assert cipher._caf_backward(c, final, key, steps).tobytes() == state

    def test_rid_is_recovered_by_the_backward_pass(self):
        rng = np.random.default_rng(11)
        key, state, rid = rand_key(rng), rand_block(rng), rand_block(rng)
        c, final = cipher._caf_forward(row(state), row(rid), key, 8)
        pair = SecondOrderState(np.unpackbits(c), np.unpackbits(final))
        back = so_iterate_backward(pair, cipher._caf_rule(key.caf_segment), Boundary.CYCLIC, 8)
        assert np.packbits(back.prev).tobytes() == rid

    def test_zero_rule_trajectory_matches_oracle(self):
        # all-zero CAF segment gives the all-zero rule: each step inverts prev
        _, _, history = naive_so_run([0] * 128, [0] * 128, 0, 3, "cyclic", 2)
        c, final = cipher._caf_forward(row(bytes(16)), row(bytes(16)), ZERO_KEY, 2)
        assert list(np.unpackbits(c)) == history[0]
        assert list(np.unpackbits(final)) == history[1]
        assert c.tobytes() == b"\xff" * 16  # NOT of the all-zero rid
        assert final.tobytes() == b"\xff" * 16

    def test_rid_changes_the_ciphertext(self):
        rng = np.random.default_rng(12)
        key, state = rand_key(rng), rand_block(rng)
        c1, _ = cipher._caf_forward(row(state), row(rand_block(rng)), key, 32)
        c2, _ = cipher._caf_forward(row(state), row(rand_block(rng)), key, 32)
        assert c1.tobytes() != c2.tobytes()

    def test_tampered_ciphertext_breaks_recovery(self):
        rng = np.random.default_rng(13)
        key, state, rid = rand_key(rng), rand_block(rng), rand_block(rng)
        c, final = cipher._caf_forward(row(state), row(rid), key, 32)
        tampered = c.copy()
        tampered[0] ^= 0x80
        assert cipher._caf_backward(tampered, final, key, 32).tobytes() != state

    def test_zero_decrypt_steps_rejected(self):
        # a bare loop over zero steps would hand back its input unchanged
        with pytest.raises(ValueError, match="steps must be >= 1"):
            cipher._caf_backward(row(bytes(16)), row(bytes(16)), ZERO_KEY, 0)

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_peak_memory_is_a_small_multiple_of_the_input(self, direction):
        rng = np.random.default_rng(16)
        key = rand_key(rng)
        a = rng.integers(0, 256, (4096, 16), dtype=np.uint8)
        b = rng.integers(0, 256, (4096, 16), dtype=np.uint8)
        run = cipher._caf_forward if direction == "forward" else cipher._caf_backward
        run(a[:1], b[:1], key, 32)  # builds and caches the key's table outside the trace
        tracemalloc.start()
        try:
            run(a, b, key, 32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12 * a.nbytes, f"peak {peak / a.nbytes:.1f}x the input"

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_peak_memory_does_not_grow_with_the_steps(self, direction):
        # each step works in buffers made once per block, so 64 steps peak as 2
        # do, give or take the few Python objects tracemalloc also counts
        rng = np.random.default_rng(17)
        key = rand_key(rng)
        a, b = rng.integers(0, 256, (2, 4096, 16), dtype=np.uint8)
        run = cipher._caf_forward if direction == "forward" else cipher._caf_backward
        run(a, b, key, 2)  # builds and caches the key's table outside the trace
        _, few = traced_peak(lambda: run(a, b, key, 2))
        _, many = traced_peak(lambda: run(a, b, key, 64))
        assert abs(many - few) < 1024, f"peak {few} bytes at 2 steps, {many} at 64"


class TestMaskFinalData:
    def test_zero_final_data_yields_the_segment(self):
        rng = np.random.default_rng(14)
        key = rand_key(rng)
        assert mask_final_data(bytes(16), key) == key.caf_segment

    def test_first_byte_xor(self):
        raw = bytes(16) + bytes([0b10110010]) + bytes(15)
        key = parse_key(raw)
        masked = mask_final_data(bytes([0b01010101]) + bytes(15), key)
        assert masked[0] == 0b11100111

    def test_involution(self):
        rng = np.random.default_rng(15)
        key, f = rand_key(rng), rand_block(rng)
        assert mask_final_data(mask_final_data(f, key), key) == f

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="final_data must be 16 bytes, got 15"):
            mask_final_data(bytes(15), ZERO_KEY)


class TestBlockApi:
    @pytest.mark.parametrize("params", [CipherParams(10, 32), CipherParams(1, 2)])
    def test_round_trip(self, params):
        rng = np.random.default_rng(16)
        for _ in range(40):
            key, p, rid = rand_key(rng), rand_block(rng), rand_block(rng)
            record = encrypt_block(p, key, params, rid)
            assert decrypt_block(record, key, params) == p

    def test_payload_is_256_bits(self):
        rng = np.random.default_rng(17)
        record = encrypt_block(rand_block(rng), rand_key(rng), FAST, rand_block(rng))
        assert len(record.payload()) == 32

    def test_deterministic_given_rid(self):
        rng = np.random.default_rng(18)
        key, p, rid = rand_key(rng), rand_block(rng), rand_block(rng)
        a = encrypt_block(p, key, SMALL, rid)
        b = encrypt_block(p, key, SMALL, rid)
        assert a == b

    def test_fresh_rid_randomizes_the_ciphertext(self):
        rng = np.random.default_rng(19)
        key, p = rand_key(rng), rand_block(rng)
        a = encrypt_block(p, key, SMALL, rand_block(rng))
        b = encrypt_block(p, key, SMALL, rand_block(rng))
        assert a.ciphertext != b.ciphertext

    def test_wrong_key_garbles_the_plaintext(self):
        rng = np.random.default_rng(20)
        key, p, rid = rand_key(rng), rand_block(rng), rand_block(rng)
        record = encrypt_block(p, key, SMALL, rid)
        assert decrypt_block(record, rand_key(rng), SMALL) != p

    def test_parameter_echo_is_enforced(self):
        rng = np.random.default_rng(21)
        key, p, rid = rand_key(rng), rand_block(rng), rand_block(rng)
        record = encrypt_block(p, key, SMALL, rid)
        with pytest.raises(ParameterMismatchError):
            decrypt_block(record, key, CipherParams(rounds=4, caf_steps=8))

    @pytest.mark.parametrize("plaintext,rid,what", [
        (bytes(15), bytes(16), "plaintext must be 16 bytes, got 15"),
        (bytes(16), bytes(17), "rid must be 16 bytes, got 17"),
    ])
    def test_wrong_block_length_rejected(self, plaintext, rid, what):
        with pytest.raises(ValueError, match=what):
            encrypt_block(plaintext, ZERO_KEY, FAST, rid)

    def test_truncated_record_rejected(self):
        record = CipherRecord(bytes(15), bytes(16), SMALL.rounds, SMALL.caf_steps)
        with pytest.raises(RecordFormatError):
            decrypt_block(record, ZERO_KEY, SMALL)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            CipherParams(rounds=0)
        with pytest.raises(ValueError):
            CipherParams(rounds=65)
        with pytest.raises(ValueError):
            CipherParams(caf_steps=1)
        with pytest.raises(ValueError):
            CipherParams(caf_steps=1025)

    @pytest.mark.parametrize("field", ["rounds", "caf_steps"])
    @pytest.mark.parametrize("value", [10.5, 10.0, "10", None, [10]])
    def test_param_must_be_an_integer(self, field, value):
        # rounds=10.5 was accepted and failed later in a slice; "10" raised a bare TypeError
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            CipherParams(**{field: value})

    def test_param_takes_numpy_integers(self):
        params = CipherParams(rounds=np.int64(3), caf_steps=np.uint16(8))
        assert (params.rounds, params.caf_steps) == (3, 8)


class TestStreams:
    @pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 33, 1000])
    def test_round_trip(self, size):
        rng = np.random.default_rng(100 + size)
        key = rand_key(rng)
        data = rng.bytes(size)
        records = encrypt_stream(data, key, SMALL, SeededRidSource(b"t"))
        assert len(records) == size // 16 + 1
        assert decrypt_stream(records, key, SMALL) == data

    @pytest.mark.parametrize("layout", ["unaligned", "strided", "fortran"])
    def test_records_in_any_layout_decrypt_alike(self, layout):
        # the mask is applied to the records as uint64 words: read_container's view
        # starts at byte 18, so those words are not 8-byte aligned
        rng = np.random.default_rng(24)
        key, data = rand_key(rng), rng.bytes(1000)
        records = encrypt_stream(data, key, SMALL, SeededRidSource(b"layout"))
        if layout == "unaligned":
            header = ContainerHeader(SMALL.rounds, SMALL.caf_steps, len(data))
            laid = read_container(write_container(header, records))[1]
            assert laid.ctypes.data % 8
        elif layout == "strided":
            wide = np.zeros((2 * len(records), 32), np.uint8)
            wide[::2] = records
            laid = wide[::2]
        else:
            laid = np.asfortranarray(records)
        assert np.array_equal(laid, records)
        assert decrypt_stream(laid, key, SMALL) == data
        for got, want in zip(cipher._unmask(laid, key), cipher._unmask(records, key)):
            assert np.array_equal(got, want)

    def test_empty_input_is_one_padding_block(self):
        records = encrypt_stream(b"", ZERO_KEY, FAST, SeededRidSource(b"x"))
        assert len(records) == 1
        assert decrypt_stream(records, ZERO_KEY, FAST) == b""

    def test_stream_matches_per_block_encryption(self):
        rng = np.random.default_rng(22)
        key = rand_key(rng)
        data = rng.bytes(40)
        records = encrypt_stream(data, key, SMALL, SeededRidSource(b"seed"))
        rid_source = SeededRidSource(b"seed")
        padded = cipher.pad(data)
        for i, record in enumerate(records):
            block = padded[16 * i : 16 * (i + 1)]
            assert record.tobytes() == encrypt_block(block, key, SMALL, rid_source()).payload()

    def test_blocks_decrypt_independently(self):
        rng = np.random.default_rng(23)
        key = rand_key(rng)
        data = rng.bytes(50)
        records = encrypt_stream(data, key, SMALL, SeededRidSource(b"i"))
        padded = cipher.pad(data)
        for i in range(len(records)):
            block = cipher._decrypt_records_raw(records[i : i + 1], key, SMALL)
            assert block == padded[16 * i : 16 * (i + 1)]

    def test_empty_record_sequence_rejected(self):
        with pytest.raises(RecordFormatError):
            decrypt_stream([], ZERO_KEY, SMALL)

    def test_invalid_padding_detected(self):
        # a lone block whose trailer byte is 0 can never be valid padding
        records = cipher._encrypt_padded(bytes(16), ZERO_KEY, FAST, bytes(16))
        with pytest.raises(PaddingError):
            decrypt_stream(records, ZERO_KEY, FAST)

    @pytest.mark.parametrize("data", [bytes(15), bytes(17)])
    def test_unpad_rejects_a_length_that_is_not_a_block_multiple(self, data):
        with pytest.raises(PaddingError, match="non-empty multiple of 16 bytes"):
            cipher.unpad(data)

    def test_empty_padded_payload_rejected(self):
        with pytest.raises(ValueError, match="non-empty multiple of 16 bytes"):
            cipher._encrypt_padded(b"", ZERO_KEY, FAST, b"")

    def test_bad_rid_source_rejected(self):
        with pytest.raises(ValueError):
            encrypt_stream(b"zz", ZERO_KEY, FAST, lambda n: b"short")

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=40, deadline=None)
    def test_padding_round_trip(self, data):
        padded = cipher.pad(data)
        assert len(padded) % 16 == 0
        assert len(padded) > len(data)
        assert cipher.unpad(padded) == data


def traced_peak(run):
    """run() and the peak bytes it allocated, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStages:
    """_encrypt_padded and _decrypt_records_raw are fixed sequences of stages,
    each a module-level name that a caller can look up and time."""

    def test_each_stage_runs_once_in_order(self, monkeypatch):
        rng = np.random.default_rng(30)
        key, padded, rids = rand_key(rng), rng.bytes(48), rng.bytes(48)
        want = cipher._encrypt_padded(padded, key, SMALL, rids)
        calls = []
        for name in ("_through_rounds", "_caf_forward", "_records", "_unmask", "_caf_backward"):
            def recorded(*args, name=name, stage=getattr(cipher, name), **kwargs):
                calls.append(name)
                return stage(*args, **kwargs)
            monkeypatch.setattr(cipher, name, recorded)
        records = cipher._encrypt_padded(padded, key, SMALL, rids)
        assert calls == ["_through_rounds", "_caf_forward", "_records"]
        assert records.tobytes() == want.tobytes()
        calls.clear()
        assert cipher._decrypt_records_raw(records, key, SMALL) == padded
        assert calls == ["_unmask", "_caf_backward", "_through_rounds"]

    def test_unmask_inverts_records(self):
        rng = np.random.default_rng(31)
        key = rand_key(rng)
        c, f = (rng.integers(0, 256, (5, 16), dtype=np.uint8) for _ in range(2))
        records = cipher._records(c, f, key)
        assert not records.flags.writeable
        assert records[2].tobytes() == c[2].tobytes() + mask_final_data(f[2].tobytes(), key)
        back_c, back_f = cipher._unmask(records, key)
        np.testing.assert_array_equal(back_c, c)
        np.testing.assert_array_equal(back_f, f)

    @pytest.mark.parametrize("params", [CipherParams(), CipherParams(64, 2)])
    def test_peak_memory_of_a_chunk_is_a_small_multiple_of_its_payload(self, params):
        # one CLI chunk: 2^16 blocks, 1 MiB. The peaks are 4.0x; freeing the rounds'
        # output late in encryption, or the unmasked rows late in decryption, makes 5.0x.
        size = 1 << 20
        rng = np.random.default_rng(32)
        key, padded, rids = rand_key(rng), rng.bytes(size), rng.bytes(size)
        cipher._encrypt_padded(padded[:16], key, params, rids[:16])  # expands the key untraced
        records, enc = traced_peak(lambda: cipher._encrypt_padded(padded, key, params, rids))
        plain, dec = traced_peak(lambda: cipher._decrypt_records_raw(records, key, params))
        assert plain == padded
        assert enc < 4.5 * size, f"encrypt peak {enc / size:.2f}x the payload"
        assert dec < 4.5 * size, f"decrypt peak {dec / size:.2f}x the payload"


class TestWholeBlockOracle:
    @given(
        raw=st.binary(min_size=32, max_size=32),
        rounds=st.integers(1, cipher.MAX_ROUNDS),
        steps=st.integers(2, 64),
        n=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(raw=bytes(range(32)), rounds=cipher.MAX_ROUNDS, steps=64, n=300, seed=0)
    @settings(max_examples=20, deadline=None)
    def test_streams_match_oracle(self, raw, rounds, steps, n, seed):
        key, params = parse_key(raw), CipherParams(rounds, steps)
        rng = np.random.default_rng(seed)
        padded, rids, records = rng.bytes(16 * n), rng.bytes(16 * n), rng.bytes(32 * n)
        encrypted = cipher._encrypt_padded(padded, key, params, rids)
        decrypted = cipher._decrypt_records_raw(
            np.frombuffer(records, dtype=np.uint8).reshape(n, 32), key, params
        )
        for i in sorted({0, n - 1, *rng.integers(0, n, 6).tolist()}):
            block, rid = padded[16 * i : 16 * (i + 1)], rids[16 * i : 16 * (i + 1)]
            record = encrypted[i].tobytes()
            assert record == naive_encrypt_block(raw, rounds, steps, block, rid)
            assert naive_decrypt_block(raw, rounds, steps, record) == block
            assert decrypted[16 * i : 16 * (i + 1)] == naive_decrypt_block(
                raw, rounds, steps, records[32 * i : 32 * (i + 1)]
            )


class TestRidSources:
    def test_os_source_shape(self):
        a, b = os_rid_source(), os_rid_source()
        assert len(a) == len(b) == 16
        assert a != b

    def test_seeded_source_is_reproducible(self):
        s1, s2 = SeededRidSource(b"k"), SeededRidSource(b"k")
        seq1 = [s1() for _ in range(5)]
        seq2 = [s2() for _ in range(5)]
        assert seq1 == seq2
        assert len(set(seq1)) == 5
        assert [len(r) for r in seq1] == [16] * 5

    def test_os_source_batch(self):
        rids = os_rid_source(5)
        assert len(rids) == 80
        assert len({rids[i : i + 16] for i in range(0, 80, 16)}) == 5

    def test_seeded_stream_is_the_hash_of_seed_and_counter(self):
        rids = SeededRidSource(b"k")(3)
        expected = b"".join(
            hashlib.sha256(b"k" + i.to_bytes(8, "big")).digest()[:16] for i in range(3)
        )
        assert rids == expected

    def test_batch_equals_single_calls(self):
        singles = SeededRidSource(b"b")
        assert SeededRidSource(b"b")(7) == b"".join(singles() for _ in range(7))

    def test_consecutive_batches_continue_the_counter(self):
        source = SeededRidSource(b"c")
        assert source(2) + source(0) + source(3) + source() == SeededRidSource(b"c")(6)

    def test_a_call_across_hash_batches_is_the_hash_of_seed_and_counter(self):
        source = SeededRidSource(b"k")
        source(4095)  # the next call starts one rid before a batch edge
        n = 2 * SeededRidSource._BATCH + 3
        expected = b"".join(
            hashlib.sha256(b"k" + i.to_bytes(8, "big")).digest()[:16]
            for i in range(4095, 4095 + n)
        )
        assert source(n) == expected

    def test_a_megabyte_of_rids_holds_about_twice_its_output(self):
        # one 16-byte bytes object per rid, alive until the join, traced 9.2 MiB here
        n = 62501  # a 1 MB stream's blocks
        tracemalloc.start()
        try:
            SeededRidSource(b"m")(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 16 * n

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            SeededRidSource(b"n")(-1)

    def test_rejected_count_leaves_the_counter_alone(self):
        # the counter used to advance by 1.5 before range() failed, so every later call failed
        source = SeededRidSource(b"n")
        with pytest.raises(ValueError, match="rid count must be an integer, got 1.5"):
            source(1.5)
        assert source(1) == SeededRidSource(b"n")(1)

    def test_threads_draw_disjoint_ranges(self):
        # more threads than cores and a short switch interval, so a counter
        # update lost between threads would hand two batches the same rids
        source = SeededRidSource(b"threads")
        drawn = [[] for _ in range(6)]

        def draw(out):
            for k in range(200):
                out.append(source(1 + k % 5))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(out,)) for out in drawn]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        rids = b"".join(b"".join(out) for out in drawn)
        total = len(rids) // 16
        assert total == 6 * sum(1 + k % 5 for k in range(200))
        stream = SeededRidSource(b"threads")(total)
        as_set = lambda blob: {blob[i : i + 16] for i in range(0, len(blob), 16)}  # noqa: E731
        assert as_set(rids) == as_set(stream)
        assert len(as_set(stream)) == total

    def test_short_batch_rejected(self):
        with pytest.raises(ValueError):
            encrypt_stream(bytes(40), ZERO_KEY, FAST, lambda n: bytes(16 * (n - 1)))


class TestReducedVariantBijectivity:
    """Exhaustive bijectivity check on an 8-bit build of the same pipeline."""

    ROUNDS = 3
    STEPS = 6

    @staticmethod
    def _mini_byte_sub(state, material_byte, inverse):
        # on the one-byte ring the byte rotates by its own material byte
        offset = cipher._OFFSETS[int(inverse), material_byte]
        return cipher._sub(state, material_byte, offset, inverse)

    def _mini_encrypt(self, key, pt, rid):
        state = np.array([pt], dtype=np.uint8)
        for i in range(self.ROUNDS):
            m = derive_round_material(key, i)
            state = self._mini_byte_sub(state, m[0, 0], False)
            state = state ^ m[3, :1]
        pair = SecondOrderState(np.unpackbits(np.array([rid], np.uint8)), np.unpackbits(state))
        out = so_iterate_forward(
            pair, cipher._caf_rule(key.caf_segment), Boundary.CYCLIC, self.STEPS
        )
        cipher_byte = int(np.packbits(out.prev)[0])
        masked = int(np.packbits(out.curr)[0]) ^ key.caf_segment[0]
        return cipher_byte, masked

    def _mini_decrypt(self, key, cipher_byte, masked):
        final = masked ^ key.caf_segment[0]
        pair = SecondOrderState(
            np.unpackbits(np.array([cipher_byte], np.uint8)),
            np.unpackbits(np.array([final], np.uint8)),
        )
        back = so_iterate_backward(
            pair, cipher._caf_rule(key.caf_segment), Boundary.CYCLIC, self.STEPS
        )
        state = np.packbits(back.curr)
        for i in reversed(range(self.ROUNDS)):
            m = derive_round_material(key, i)
            state = state ^ m[3, :1]
            state = self._mini_byte_sub(state, m[0, 0], True)
        return int(state[0])

    def test_exhaustive_bijectivity(self):
        rng = np.random.default_rng(24)
        key = rand_key(rng)
        rid = int(rng.integers(0, 256))
        table = {pt: self._mini_encrypt(key, pt, rid) for pt in range(256)}
        assert len(set(table.values())) == 256  # injective in the plaintext
        for pt, (c, ed) in table.items():
            assert self._mini_decrypt(key, c, ed) == pt
