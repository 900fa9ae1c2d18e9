import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpca.cipher import CipherParams, SeededRidSource, encrypt_stream, parse_key
from rpca.container import (
    ContainerError,
    ContainerHeader,
    ContainerLengthError,
    ContainerValidationError,
    UnsupportedFormatError,
    read_container,
    write_container,
)

KEY = parse_key(bytes(range(32)))
PARAMS = CipherParams(rounds=3, caf_steps=4)


def make_container(data: bytes, params: CipherParams = PARAMS) -> bytes:
    records = encrypt_stream(data, KEY, params, SeededRidSource(b"c"))
    header = ContainerHeader(params.rounds, params.caf_steps, len(data))
    return write_container(header, records)


class TestRoundTrip:
    def test_empty_payload_is_fifty_bytes(self):
        blob = make_container(b"")
        assert len(blob) == 18 + 32

    @pytest.mark.parametrize("size", [0, 1, 16, 40, 100])
    def test_write_read_identity(self, size):
        rng = np.random.default_rng(size)
        data = rng.bytes(size)
        records = encrypt_stream(data, KEY, PARAMS, SeededRidSource(b"c"))
        header = ContainerHeader(PARAMS.rounds, PARAMS.caf_steps, len(data))
        blob = write_container(header, records)
        got_header, got_records = read_container(blob)
        assert got_header == header
        assert np.array_equal(got_records, records)
        assert write_container(got_header, got_records) == blob

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=0, max_size=96))
    def test_random_payload_round_trip(self, data):
        blob = make_container(data)
        header, records = read_container(blob)
        assert header.plaintext_length == len(data)
        assert write_container(header, records) == blob

    def test_write_copies_the_records_once(self):
        # tobytes() and then header + body held two copies at once, and so did a
        # column-major record array, which encrypt_stream used to return
        data = bytes((1 << 20) - 1)
        records = encrypt_stream(data, KEY, PARAMS, SeededRidSource(b"c"))  # 2 MiB
        header = ContainerHeader(PARAMS.rounds, PARAMS.caf_steps, len(data))
        tracemalloc.start()
        try:
            blob = write_container(header, records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * records.nbytes
        assert blob[18:] == records.tobytes()

    def test_strided_record_array_writes_its_rows(self):
        records = encrypt_stream(bytes(100), KEY, PARAMS, SeededRidSource(b"c"))[::-1]
        header = ContainerHeader(PARAMS.rounds, PARAMS.caf_steps, 100)
        for layout in (records, np.asfortranarray(records)):
            assert write_container(header, layout)[18:] == records.tobytes()


class TestRejection:
    def test_corrupted_magic(self):
        blob = bytearray(make_container(b"hello"))
        blob[0] ^= 0xFF
        with pytest.raises(UnsupportedFormatError):
            read_container(bytes(blob))

    def test_unknown_version(self):
        blob = bytearray(make_container(b"hello"))
        blob[4] = 9
        with pytest.raises(UnsupportedFormatError):
            read_container(bytes(blob))

    def test_truncated_header(self):
        blob = make_container(b"hello")
        with pytest.raises(ContainerLengthError):
            read_container(blob[:10])

    def test_truncated_record(self):
        blob = make_container(b"hello")
        with pytest.raises(ContainerLengthError):
            read_container(blob[:-5])

    def test_missing_record(self):
        blob = make_container(b"x" * 20)  # two records
        with pytest.raises(ContainerLengthError):
            read_container(blob[:-32])

    def test_extra_record(self):
        blob = make_container(b"hello")
        with pytest.raises(ContainerLengthError):
            read_container(blob + bytes(32))

    def test_out_of_range_rounds(self):
        blob = bytearray(make_container(b"hello"))
        blob[5] = 0
        with pytest.raises(ContainerValidationError):
            read_container(bytes(blob))
        blob[5] = 65
        with pytest.raises(ContainerValidationError):
            read_container(bytes(blob))

    def test_out_of_range_steps(self):
        blob = bytearray(make_container(b"hello"))
        blob[6:8] = (1).to_bytes(2, "big")
        with pytest.raises(ContainerValidationError):
            read_container(bytes(blob))
        blob[6:8] = (2000).to_bytes(2, "big")
        with pytest.raises(ContainerValidationError):
            read_container(bytes(blob))

    def test_write_rejects_wrong_record_count(self):
        records = encrypt_stream(b"hello", KEY, PARAMS, SeededRidSource(b"c"))
        header = ContainerHeader(PARAMS.rounds, PARAMS.caf_steps, 40)
        with pytest.raises(ContainerLengthError):
            write_container(header, records)

    def test_write_rejects_misshaped_record_array(self):
        records = encrypt_stream(b"x" * 20, KEY, PARAMS, SeededRidSource(b"c"))  # two records
        header = ContainerHeader(PARAMS.rounds, PARAMS.caf_steps, 20)
        for bad in (records.reshape(-1), records.reshape(4, 16), records.reshape(2, 2, 16),
                    records.astype(np.int64), [records[0].tobytes(), records[1].tobytes()]):
            with pytest.raises(ContainerValidationError):
                write_container(header, bad)

    @pytest.mark.parametrize("offset", [16, 17])
    def test_nonzero_reserved_field(self, offset):
        blob = bytearray(make_container(b"hello"))
        blob[offset] = 1
        with pytest.raises(ContainerValidationError, match="reserved.*offset 16..17"):
            read_container(bytes(blob))

    def test_header_validate_bounds(self):
        with pytest.raises(ContainerValidationError):
            ContainerHeader(0, 4, 0).validate()
        with pytest.raises(ContainerValidationError):
            ContainerHeader(1, 1025, 0).validate()
        with pytest.raises(ContainerValidationError):
            ContainerHeader(1, 4, -1).validate()

    @pytest.mark.parametrize("length", [1.5, "3", None])
    def test_write_rejects_a_non_integer_plaintext_length(self, length):
        # 1.5 raised struct.error and the others TypeError, none of them a ContainerError
        records = encrypt_stream(b"abc", KEY, PARAMS, SeededRidSource(b"c"))
        header = ContainerHeader(PARAMS.rounds, PARAMS.caf_steps, length)
        with pytest.raises(ContainerValidationError, match="plaintext_length must be an integer"):
            write_container(header, records)

    @pytest.mark.parametrize("rounds,caf_steps", [(10.5, 4), ("10", 4), (10, 4.0)])
    def test_header_validate_non_integer_params(self, rounds, caf_steps):
        with pytest.raises(ContainerValidationError, match="must be an integer"):
            ContainerHeader(rounds, caf_steps, 0).validate()


class TestHeaderEncoding:
    def test_big_endian_fields(self):
        blob = make_container(b"", CipherParams(rounds=2, caf_steps=0x0304))
        assert blob[:4] == b"RPC1"
        assert blob[4] == 1
        assert blob[5] == 2
        assert blob[6:8] == b"\x03\x04"
        assert blob[8:16] == (0).to_bytes(8, "big")
        assert blob[16:18] == b"\x00\x00"

    def test_plaintext_length_encoding(self):
        blob = make_container(b"z" * 300)
        assert blob[8:16] == (300).to_bytes(8, "big")

    def test_record_wire_layout_ciphertext_then_final_data(self):
        records = encrypt_stream(b"abc", KEY, PARAMS, SeededRidSource(b"c"))
        header = ContainerHeader(PARAMS.rounds, PARAMS.caf_steps, 3)
        blob = write_container(header, records)
        assert blob[18:34] == records[0, :16].tobytes()
        assert blob[34:50] == records[0, 16:].tobytes()


VALID = [make_container(bytes(range(size))) for size in (0, 5, 40)]


def assert_parses_or_rejects(blob: bytes) -> None:
    """Only ContainerError may escape; an accepted input must round-trip exactly."""
    try:
        header, records = read_container(blob)
    except ContainerError:
        return
    assert records.shape == (header.expected_records(), 32)
    assert write_container(header, records) == blob


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes(self, blob):
        assert_parses_or_rejects(blob)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_after_a_valid_prefix(self, tail):
        assert_parses_or_rejects(b"RPC1\x01" + tail)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(VALID), st.data())
    def test_truncations(self, blob, data):
        cut = data.draw(st.integers(0, len(blob)))
        assert_parses_or_rejects(blob[:cut])

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(VALID), st.data())
    def test_single_bit_flips(self, blob, data):
        bit = data.draw(st.integers(0, 8 * len(blob) - 1))
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 0x80 >> (bit % 8)
        assert_parses_or_rejects(bytes(flipped))
