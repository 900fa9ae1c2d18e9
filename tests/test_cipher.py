import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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
    SecretKey,
    SeededRidSource,
    add_round_key,
    byte_substitution,
    caf_core_decrypt,
    caf_core_encrypt,
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
from rpca.second_order import SecondOrderState, so_iterate_backward, so_iterate_forward

from helpers import naive_round_materials, naive_so_run

ZERO_KEY = parse_key(bytes(32))
FAST = CipherParams(rounds=1, caf_steps=2)
SMALL = CipherParams(rounds=3, caf_steps=8)


def rand_key(rng):
    return parse_key(rng.bytes(32))


def rand_block(rng):
    return rng.bytes(16)


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
        assert derive_round_material(key, 3) == derive_round_material(key, 3)

    def test_zero_key_round0_matches_straight_line_oracle(self):
        got = derive_round_material(ZERO_KEY, 0)
        expected = naive_round_materials(ZERO_KEY.raw, 0)
        assert [got.m_sub, got.m_row, got.m_mix, got.m_key] == expected

    def test_random_keys_match_straight_line_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            key = rand_key(rng)
            index = int(rng.integers(0, 12))
            got = derive_round_material(key, index)
            expected = naive_round_materials(key.raw, index)
            assert [got.m_sub, got.m_row, got.m_mix, got.m_key] == expected

    def test_rounds_differ(self):
        a = derive_round_material(ZERO_KEY, 0)
        b = derive_round_material(ZERO_KEY, 1)
        assert a != b

    def test_last_round_matches_straight_line_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(2):
            key = rand_key(rng)
            got = derive_round_material(key, cipher.MAX_ROUNDS - 1)
            expected = naive_round_materials(key.raw, cipher.MAX_ROUNDS - 1)
            assert [got.m_sub, got.m_row, got.m_mix, got.m_key] == expected

    def test_material_independent_of_total_rounds(self):
        rng = np.random.default_rng(3)
        key = rand_key(rng)
        m = derive_round_material(key, 2)
        rows = [row.tobytes() for row in cipher._round_materials(key.raw)[2]]
        assert rows == [m.m_sub, m.m_row, m.m_mix, m.m_key]

    def test_material_array_is_read_only(self):
        materials = cipher._round_materials(ZERO_KEY.raw)
        assert materials.shape == (cipher.MAX_ROUNDS, 4, 16)
        with pytest.raises(ValueError):
            materials[0, 0, 0] = 1

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


class TestCafCore:
    def test_round_trip(self):
        rng = np.random.default_rng(10)
        for steps in (2, 8, 32):
            key, state, rid = rand_key(rng), rand_block(rng), rand_block(rng)
            c, final = caf_core_encrypt(state, rid, key, steps)
            assert caf_core_decrypt(c, final, key, steps) == state

    def test_rid_is_recovered_by_the_backward_pass(self):
        rng = np.random.default_rng(11)
        key, state, rid = rand_key(rng), rand_block(rng), rand_block(rng)
        c, final = caf_core_encrypt(state, rid, key, 8)
        pair = SecondOrderState(
            cipher.bits_from_bytes(c), cipher.bits_from_bytes(final)
        )
        back = so_iterate_backward(pair, cipher._caf_rule(key.caf_segment), Boundary.CYCLIC, 8)
        assert np.packbits(back.prev).tobytes() == rid

    def test_zero_rule_trajectory_matches_oracle(self):
        # all-zero CAF segment gives the all-zero rule: each step inverts prev
        _, _, history = naive_so_run([0] * 128, [0] * 128, 0, 3, "cyclic", 2)
        c, final = caf_core_encrypt(bytes(16), bytes(16), ZERO_KEY, 2)
        assert list(cipher.bits_from_bytes(c)) == history[0]
        assert list(cipher.bits_from_bytes(final)) == history[1]
        assert c == b"\xff" * 16  # NOT of the all-zero rid
        assert final == b"\xff" * 16

    def test_rid_changes_the_ciphertext(self):
        rng = np.random.default_rng(12)
        key, state = rand_key(rng), rand_block(rng)
        c1, _ = caf_core_encrypt(state, rand_block(rng), key, 32)
        c2, _ = caf_core_encrypt(state, rand_block(rng), key, 32)
        assert c1 != c2

    def test_tampered_ciphertext_breaks_recovery(self):
        rng = np.random.default_rng(13)
        key, state, rid = rand_key(rng), rand_block(rng), rand_block(rng)
        c, final = caf_core_encrypt(state, rid, key, 32)
        tampered = bytes([c[0] ^ 0x80]) + c[1:]
        assert caf_core_decrypt(tampered, final, key, 32) != state

    def test_step_bound(self):
        with pytest.raises(ValueError):
            caf_core_encrypt(bytes(16), bytes(16), ZERO_KEY, 1)

    def test_zero_decrypt_steps_rejected(self):
        # a bare loop over zero steps would hand back its input unchanged
        with pytest.raises(ValueError, match="steps must be >= 1"):
            caf_core_decrypt(bytes(16), bytes(16), ZERO_KEY, 0)

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


class TestStreams:
    @pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 33, 1000])
    def test_round_trip(self, size):
        rng = np.random.default_rng(100 + size)
        key = rand_key(rng)
        data = rng.bytes(size)
        records = encrypt_stream(data, key, SMALL, SeededRidSource(b"t"))
        assert len(records) == size // 16 + 1
        assert decrypt_stream(records, key, SMALL) == data

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

    def test_bad_rid_source_rejected(self):
        with pytest.raises(ValueError):
            encrypt_stream(b"zz", ZERO_KEY, FAST, lambda: b"short")

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=40, deadline=None)
    def test_padding_round_trip(self, data):
        padded = cipher.pad(data)
        assert len(padded) % 16 == 0
        assert len(padded) > len(data)
        assert cipher.unpad(padded) == data


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


class TestReducedVariantBijectivity:
    """Exhaustive bijectivity check on an 8-bit build of the same pipeline."""

    ROUNDS = 3
    STEPS = 6

    def _mini_encrypt(self, key, pt, rid):
        state = np.array([pt], dtype=np.uint8)
        for i in range(self.ROUNDS):
            m = derive_round_material(key, i)
            state = cipher._byte_sub(state, np.frombuffer(m.m_sub, np.uint8)[:1], False)
            state = state ^ np.frombuffer(m.m_key, np.uint8)[:1]
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
            state = state ^ np.frombuffer(m.m_key, np.uint8)[:1]
            state = cipher._byte_sub(state, np.frombuffer(m.m_sub, np.uint8)[:1], True)
        return int(state[0])

    def test_exhaustive_bijectivity(self):
        rng = np.random.default_rng(24)
        key = rand_key(rng)
        rid = int(rng.integers(0, 256))
        table = {pt: self._mini_encrypt(key, pt, rid) for pt in range(256)}
        assert len(set(table.values())) == 256  # injective in the plaintext
        for pt, (c, ed) in table.items():
            assert self._mini_decrypt(key, c, ed) == pt
