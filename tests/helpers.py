"""Independent straight-line oracles used to pin expected values.

Everything here is deliberately written as plain Python loops over cell
lists, with rule outputs taken straight from the rule number's bits. None of
it shares code with the package under test. `child_peak_mib` measures the
package from outside, in a fresh interpreter.
"""
from __future__ import annotations

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def naive_step(cells, rule_numbers, radius, boundary):
    """One synchronous CA update, cell by cell, straight from rule bits."""
    n = len(cells)
    if len(rule_numbers) == 1:
        rule_numbers = list(rule_numbers) * n
    out = []
    for i in range(n):
        idx = 0
        for off in range(-radius, radius + 1):
            j = i + off
            if boundary == "cyclic":
                bit = cells[j % n]
            else:
                bit = cells[j] if 0 <= j < n else 0
            idx = (idx << 1) | bit
        out.append((rule_numbers[i] >> idx) & 1)
    return out


def naive_cycle_walk(succ):
    """Cycles and transients of a successor map, found by walking from every state.

    Starts ascend. A walk stops at the first state already marked; if that
    state is on the walk itself, the walk from there on is a new cycle.
    Transients are every state on no cycle, ascending.
    """
    succ = [int(v) for v in succ]
    mark = bytearray(len(succ))  # 0 unvisited, 1 on this walk, 2 done, 3 on a cycle
    cycles = []
    for start in range(len(succ)):
        path = []
        v = start
        while not mark[v]:
            mark[v] = 1
            path.append(v)
            v = succ[v]
        at = path.index(v) if mark[v] == 1 else len(path)
        for i, u in enumerate(path):
            mark[u] = 2 if i < at else 3
        if at < len(path):
            cycles.append(path[at:])
    return cycles, [s for s, m in enumerate(mark) if m != 3]


def naive_so_step(prev, curr, rule_number, radius, boundary):
    """Second-order update via explicit rule/complement selection per cell.

    A cell whose previous state was 1 uses the given rule, otherwise the
    complement rule (every table bit flipped).
    """
    entries = 1 << (2 * radius + 1)
    comp = (1 << entries) - rule_number - 1
    n = len(curr)
    new = []
    for i in range(n):
        idx = 0
        for off in range(-radius, radius + 1):
            j = i + off
            if boundary == "cyclic":
                bit = curr[j % n]
            else:
                bit = curr[j] if 0 <= j < n else 0
            idx = (idx << 1) | bit
        chosen = rule_number if prev[i] == 1 else comp
        new.append((chosen >> idx) & 1)
    return list(curr), new


def naive_so_run(prev, curr, rule_number, radius, boundary, steps):
    """Iterate naive_so_step, returning the list of curr rows (newest last)."""
    history = []
    for _ in range(steps):
        prev, curr = naive_so_step(prev, curr, rule_number, radius, boundary)
        history.append(list(curr))
    return prev, curr, history


def bits_of_bytes(data):
    """Bytes to bit list, MSB of byte 0 first."""
    out = []
    for byte in data:
        for k in range(7, -1, -1):
            out.append((byte >> k) & 1)
    return out


def bytes_of_bits(bits):
    assert len(bits) % 8 == 0
    out = bytearray()
    for i in range(0, len(bits), 8):
        byte = 0
        for b in bits[i : i + 8]:
            byte = (byte << 1) | b
        out.append(byte)
    return bytes(out)


def naive_expanded_rule_number(segment):
    """Radius-3 rule number from 8 key bytes: entry p = segment bit p mod 64."""
    bits = bits_of_bytes(segment)
    return sum(bits[p % 64] << p for p in range(128))


def naive_round_materials(key_raw, round_index):
    """The four material values of one round, by straight-line evaluation.

    Mirrors the contract: each 64-cell automaton starts from (round constant,
    key segment), runs four second-order steps, and the four newest rows of
    each side are joined left-to-right, newest pair first.
    """
    rc = bits_of_bytes(bytes([(round_index + 1) % 256]) * 8)
    histories = []
    for segment in (key_raw[0:8], key_raw[8:16]):
        number = naive_expanded_rule_number(segment)
        _, _, hist = naive_so_run(rc, bits_of_bytes(segment), number, 3, "cyclic", 4)
        histories.append(hist[::-1])  # newest first
    left, right = histories
    return [bytes_of_bits(left[k] + right[k]) for k in range(4)]


# --- the four round transforms, byte by byte ---------------------------------
#
# A block is 16 bytes read as a 4x4 grid, byte 4*r + c in row r, column c.
# Each material value is 16 bytes; the forward round applies substitution,
# row shift, column mix and key addition in that order, and the inverse
# round undoes them last first.


def _two_bit_fields(byte):
    """Four 2-bit amounts packed into one byte, most significant pair first."""
    return [(byte >> shift) & 3 for shift in (6, 4, 2, 0)]


def naive_byte_sub(block, material, inverse=False):
    """Rotate byte j left by the low 3 bits of material byte j+1 (mod 16), then XOR material byte j."""
    out = []
    for j in range(16):
        amount = material[(j + 1) % 16] & 7
        if inverse:
            t = block[j] ^ material[j]
            out.append(((t >> amount) | (t << (8 - amount))) & 0xFF)
        else:
            t = ((block[j] << amount) | (block[j] >> (8 - amount))) & 0xFF
            out.append(t ^ material[j])
    return bytes(out)


def naive_row_shift(block, material, inverse=False):
    """Rotate row r left by the r-th 2-bit field of material byte 0: (a,b,c,d) -> (b,c,d,a) for 1."""
    amounts = _two_bit_fields(material[0])
    out = bytearray(16)
    for r in range(4):
        for c in range(4):
            moved = 4 * r + (c + amounts[r]) % 4
            if inverse:
                out[moved] = block[4 * r + c]
            else:
                out[4 * r + c] = block[moved]
    return bytes(out)


def naive_column_mix(block, material, inverse=False):
    """XOR network down each column, then rotate column c down by the c-th 2-bit field of material byte 1.

    With a column read top to bottom as (a, b, c, d), the network is
    a ^= b, c ^= d, b ^= a, d ^= c; rotating down by 1 gives (d, a, b, c).
    """
    amounts = _two_bit_fields(material[1])
    out = bytearray(16)
    for col in range(4):
        cells = [block[4 * k + col] for k in range(4)]
        shift = amounts[col]
        if inverse:
            a, b, c, d = [cells[(k + shift) % 4] for k in range(4)]
            d ^= c
            b ^= a
            c ^= d
            a ^= b
            cells = [a, b, c, d]
        else:
            a, b, c, d = cells
            a ^= b
            c ^= d
            b ^= a
            d ^= c
            cells = [[a, b, c, d][(k - shift) % 4] for k in range(4)]
        for k in range(4):
            out[4 * k + col] = cells[k]
    return bytes(out)


def naive_add_round_key(block, material):
    """Byte-wise XOR with the material; its own inverse."""
    return bytes(x ^ m for x, m in zip(block, material))


def naive_round(block, materials, inverse=False):
    """One round with materials (m_sub, m_row, m_mix, m_key), or its inverse."""
    m_sub, m_row, m_mix, m_key = materials
    if inverse:
        block = naive_add_round_key(block, m_key)
        block = naive_column_mix(block, m_mix, inverse=True)
        block = naive_row_shift(block, m_row, inverse=True)
        return naive_byte_sub(block, m_sub, inverse=True)
    block = naive_byte_sub(block, m_sub)
    block = naive_row_shift(block, m_row)
    block = naive_column_mix(block, m_mix)
    return naive_add_round_key(block, m_key)


# --- a whole block ------------------------------------------------------------


def naive_caf_rule_number(key_raw):
    """Radius-3 rule number of the 128-cell core: table entry p = bit p of key bytes 16..31."""
    return sum(bit << p for p, bit in enumerate(bits_of_bytes(key_raw[16:32])))


@lru_cache(maxsize=8)
def _naive_schedule(key_raw, rounds):
    # 55 ms for 64 rounds; the differential tests ask for one key many times
    return tuple(tuple(naive_round_materials(key_raw, i)) for i in range(rounds))


def naive_encrypt_block(key_raw, rounds, steps, block, rid):
    """The 32-byte wire record of one block.

    The rounds run first. The core then runs `steps` second-order steps from
    (rid, state); the record is the next-to-last row, then the last row XORed
    with key bytes 16..31.
    """
    for materials in _naive_schedule(key_raw, rounds):
        block = naive_round(block, materials)
    ciphertext, final, _ = naive_so_run(bits_of_bytes(rid), bits_of_bytes(block),
                                        naive_caf_rule_number(key_raw), 3, "cyclic", steps)
    masked = bytes(a ^ b for a, b in zip(bytes_of_bits(final), key_raw[16:32]))
    return bytes_of_bits(ciphertext) + masked


def naive_decrypt_block(key_raw, rounds, steps, record):
    """Inverse of naive_encrypt_block: the 16-byte block behind a 32-byte record."""
    final = bytes(a ^ b for a, b in zip(record[16:], key_raw[16:32]))
    # backwards from (ciphertext, final data): the rows reached are (state, rid)
    state, _, _ = naive_so_run(bits_of_bytes(final), bits_of_bytes(record[:16]),
                               naive_caf_rule_number(key_raw), 3, "cyclic", steps)
    block = bytes_of_bits(state)
    for materials in reversed(_naive_schedule(key_raw, rounds)):
        block = naive_round(block, materials, inverse=True)
    return block


def child_peak_mib(code):
    """Peak RSS, in MiB, of a fresh interpreter that imports rpca.ca and runs `code`.

    Read from VmHWM, not ru_maxrss: Linux carries the parent's peak into a child's
    ru_maxrss across exec, so under a large test process both children would read it.
    `code` may print; the peak is printed last.
    """
    script = (f"from rpca import ca\n{code}\n"
              "print(next(line.split()[1] for line in open('/proc/self/status')\n"
              "           if line.startswith('VmHWM:')))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    return int(run.stdout.split()[-1]) / 1024
