"""Set-up probe, run in a fresh interpreter by run.py for the setup_s metric.

Imports rpca, parses the key and encrypts the first block, which builds the
round materials and the CAF rule for that key. Prints "ready" the moment the
block exists, then "ok" if it decrypts back.

    python3 perfbench/setup_probe.py SRC_DIR KEY_HEX ROUNDS STEPS
"""
import sys

sys.path.insert(0, sys.argv[1])

from rpca.cli import load_key  # noqa: E402
from rpca.cipher import CipherParams, SeededRidSource, decrypt_stream, encrypt_stream  # noqa: E402

key = load_key(sys.argv[2])
params = CipherParams(rounds=int(sys.argv[3]), caf_steps=int(sys.argv[4]))
records = encrypt_stream(b"", key, params, SeededRidSource(b"setup"))
print("ready", flush=True)
print("ok" if decrypt_stream(records, key, params) == b"" else "wrong", flush=True)
