"""Known-answer vectors: single-block records and whole containers, byte for byte.

`tests/data/kat_v1.json` pins the output of seeded keys, seeded rids and
seeded plaintexts. The tests regenerate every vector from its seeds and
compare bytes exactly, so any change to the wire bytes fails here. Each
vector is also checked against the independent oracles in `helpers.py`: the
masked record is unmasked and run backwards by `naive_so_run`, which must
reach the block's rid and the state `naive_round` makes from the plaintext
under `naive_round_materials`.

Regenerate the file (only when the format is meant to change) with
`PYTHONPATH=src python tests/test_kat.py --write`.
"""
import json
import sys
from pathlib import Path

import pytest

from rpca import cli
from rpca.cipher import (
    CipherParams,
    CipherRecord,
    SeededRidSource,
    decrypt_block,
    decrypt_stream,
    derive_round_material,
    encrypt_block,
    encrypt_stream,
    pad,
    parse_key,
)
from rpca.container import ContainerHeader, read_container, write_container

from helpers import (
    bits_of_bytes,
    bytes_of_bits,
    naive_caf_rule_number,
    naive_round,
    naive_round_materials,
    naive_so_run,
)

KAT_PATH = Path(__file__).parent / "data" / "kat_v1.json"

BLOCK_PARAMS = [(10, 32), (1, 2), (64, 2), (1, 1024)]
BLOCKS_PER_PARAMS = 2
CONTAINER_SIZES = [0, 1, 15, 16, 17, 4096]
CONTAINER_PARAMS = (10, 32)


def seeded_bytes(seed: str, n: int) -> bytes:
    source = SeededRidSource(seed.encode())
    return b"".join(source() for _ in range(-(-n // 16)))[:n]


def block_vector(key_seed: str, rid_seed: str, pt_seed: str, rounds: int, steps: int) -> dict:
    key = parse_key(seeded_bytes(key_seed, 32))
    rid = SeededRidSource(rid_seed.encode())()
    plaintext = seeded_bytes(pt_seed, 16)
    record = encrypt_block(plaintext, key, CipherParams(rounds, steps), rid)
    return {
        "key_seed": key_seed, "rid_seed": rid_seed, "plaintext_seed": pt_seed,
        "rounds": rounds, "caf_steps": steps,
        "key": key.raw.hex(), "rid": rid.hex(), "plaintext": plaintext.hex(),
        "record": record.payload().hex(),
    }


def container_vector(key_seed: str, rid_seed: str, pt_seed: str, size: int) -> dict:
    rounds, steps = CONTAINER_PARAMS
    key = parse_key(seeded_bytes(key_seed, 32))
    plaintext = seeded_bytes(pt_seed, size)
    records = encrypt_stream(plaintext, key, CipherParams(rounds, steps),
                             SeededRidSource(rid_seed.encode()))
    blob = write_container(ContainerHeader(rounds, steps, size), records)
    return {
        "key_seed": key_seed, "rid_seed": rid_seed, "plaintext_seed": pt_seed,
        "rounds": rounds, "caf_steps": steps,
        "key": key.raw.hex(), "plaintext": plaintext.hex(), "container": blob.hex(),
    }


def build_vectors() -> dict:
    blocks = [
        block_vector(f"kat-v1/key/{rounds}-{steps}-{j}", f"kat-v1/rid/{rounds}-{steps}-{j}",
                     f"kat-v1/plaintext/{rounds}-{steps}-{j}", rounds, steps)
        for rounds, steps in BLOCK_PARAMS
        for j in range(BLOCKS_PER_PARAMS)
    ]
    containers = [
        container_vector(f"kat-v1/key/container-{size}", f"kat-v1/rid/container-{size}",
                         f"kat-v1/plaintext/container-{size}", size)
        for size in CONTAINER_SIZES
    ]
    return {
        "format": "rpca known-answer vectors v1",
        "seeds": "key = first 32 bytes, plaintext = first L bytes, of the SeededRidSource "
                 "stream of the seed string; each rid is the next value of "
                 "SeededRidSource(rid_seed)",
        "blocks": blocks,
        "containers": containers,
    }


@pytest.fixture(scope="module")
def kat() -> dict:
    return json.loads(KAT_PATH.read_text())


def staged_rounds(block: bytes, materials: list) -> bytes:
    for round_materials in materials:
        block = naive_round(block, round_materials)
    return block


def check_record_against_oracle(record: bytes, key_raw: bytes, steps: int, rid: bytes,
                                expected_state: bytes) -> None:
    ciphertext, masked = record[:16], record[16:]
    final = bytes(a ^ b for a, b in zip(masked, key_raw[16:32]))
    # backwards from (ciphertext, final data): the rows reached are (state, rid)
    state_bits, rid_bits, _ = naive_so_run(bits_of_bytes(final), bits_of_bytes(ciphertext),
                                           naive_caf_rule_number(key_raw), 3, "cyclic", steps)
    assert bytes_of_bits(rid_bits) == rid
    assert bytes_of_bits(state_bits) == expected_state


def oracle_materials(key_raw: bytes, rounds: int) -> list:
    materials = [naive_round_materials(key_raw, i) for i in range(rounds)]
    key = parse_key(key_raw)
    for i, expected in enumerate(materials):
        got = derive_round_material(key, i)
        assert [m.tobytes() for m in got] == expected
    return materials


def test_vector_set_is_complete(kat):
    assert [(v["rounds"], v["caf_steps"]) for v in kat["blocks"]] == [
        p for p in BLOCK_PARAMS for _ in range(BLOCKS_PER_PARAMS)
    ]
    assert [len(bytes.fromhex(v["plaintext"])) for v in kat["containers"]] == CONTAINER_SIZES


def test_block_vectors_regenerate_exactly(kat):
    for vector in kat["blocks"]:
        seeds = (vector["key_seed"], vector["rid_seed"], vector["plaintext_seed"])
        assert block_vector(*seeds, vector["rounds"], vector["caf_steps"]) == vector


def test_container_vectors_regenerate_exactly(kat):
    for vector in kat["containers"]:
        seeds = (vector["key_seed"], vector["rid_seed"], vector["plaintext_seed"])
        size = len(bytes.fromhex(vector["plaintext"]))
        assert container_vector(*seeds, size) == vector


def test_block_vectors_decrypt(kat):
    for vector in kat["blocks"]:
        raw = bytes.fromhex(vector["record"])
        record = CipherRecord(raw[:16], raw[16:], vector["rounds"], vector["caf_steps"])
        params = CipherParams(vector["rounds"], vector["caf_steps"])
        key = parse_key(bytes.fromhex(vector["key"]))
        assert decrypt_block(record, key, params) == bytes.fromhex(vector["plaintext"])


def test_container_vectors_decrypt(kat):
    for vector in kat["containers"]:
        header, records = read_container(bytes.fromhex(vector["container"]))
        params = CipherParams(header.rounds, header.caf_steps)
        plaintext = decrypt_stream(records, parse_key(bytes.fromhex(vector["key"])), params)
        assert plaintext == bytes.fromhex(vector["plaintext"])


@pytest.mark.parametrize("chunk_blocks", [cli._CHUNK_BLOCKS, 4])
def test_cli_reproduces_and_opens_every_container(kat, tmp_path, capsys, monkeypatch,
                                                  chunk_blocks):
    # `rpca encrypt --seed` streams the file in chunks; 4-block chunks put edges in 4096 bytes
    monkeypatch.setattr(cli, "_CHUNK_BLOCKS", chunk_blocks)
    plain, sealed, opened = tmp_path / "plain", tmp_path / "sealed.rpca", tmp_path / "opened"
    for vector in kat["containers"]:
        plain.write_bytes(bytes.fromhex(vector["plaintext"]))
        assert cli.main([
            "encrypt", "--key", vector["key"], "--in", str(plain), "--out", str(sealed),
            "--rounds", str(vector["rounds"]), "--steps", str(vector["caf_steps"]),
            "--seed", vector["rid_seed"].encode().hex(),
        ]) == 0
        assert sealed.read_bytes().hex() == vector["container"]
        assert cli.main(["decrypt", "--key", vector["key"], "--in", str(sealed),
                         "--out", str(opened)]) == 0
        assert opened.read_bytes() == plain.read_bytes()
    capsys.readouterr()


def test_block_vectors_match_oracles(kat):
    for vector in kat["blocks"]:
        key_raw = bytes.fromhex(vector["key"])
        materials = oracle_materials(key_raw, vector["rounds"])
        expected_state = staged_rounds(bytes.fromhex(vector["plaintext"]), materials)
        check_record_against_oracle(bytes.fromhex(vector["record"]), key_raw,
                                    vector["caf_steps"], bytes.fromhex(vector["rid"]),
                                    expected_state)


def test_container_vectors_match_oracles(kat):
    for vector in kat["containers"]:
        key_raw = bytes.fromhex(vector["key"])
        blob = bytes.fromhex(vector["container"])
        plaintext = bytes.fromhex(vector["plaintext"])
        rounds, steps = vector["rounds"], vector["caf_steps"]
        assert blob[:18] == (b"RPC1" + bytes([1, rounds]) + steps.to_bytes(2, "big")
                             + len(plaintext).to_bytes(8, "big") + b"\x00\x00")
        padded = pad(plaintext)
        assert len(blob) == 18 + 2 * len(padded)
        materials = oracle_materials(key_raw, rounds)
        rids = SeededRidSource(vector["rid_seed"].encode())
        for i in range(len(padded) // 16):
            check_record_against_oracle(blob[18 + 32 * i : 50 + 32 * i], key_raw, steps, rids(),
                                        staged_rounds(padded[16 * i : 16 * (i + 1)], materials))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_kat.py --write")
    KAT_PATH.write_text(json.dumps(build_vectors(), indent=1) + "\n")
    print(f"wrote {KAT_PATH}")
