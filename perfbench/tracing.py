"""In-memory spans around calls into the rpca modules, and the per-layer
metrics derived from them.

Wrappers go on the module attributes that callers resolve at call time. For
example ``encrypt_stream`` finds ``so_iterate_forward`` through the cipher
module's globals, so wrapping ``rpca.cipher.so_iterate_forward`` yields the
CAF-core span inside it. Nothing under src/ is edited; ``uninstall`` puts
every original back.

A span carries a name, a start, an end and its parent's id. Spans stay in
memory until the run ends. A span's self time is its duration minus the time
its child spans cover; calls are single-threaded, so children never overlap.
"""
from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

MIB = 1 << 20


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    count: int = 0  # work items the call handled: blocks, records, cell updates, states
    error: str | None = None  # exception type name when the call raised
    peak_alloc: int = 0  # bytes above the span's starting traced memory (alloc pass only)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while ``enabled``; with ``track_alloc`` also tracemalloc peaks."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.enabled = False
        self.track_alloc = False
        # one frame per open span: [span id, traced bytes at start, highest traced bytes]
        self._stack: list[list[int]] = []
        self._originals: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        self.spans = []
        self.counters = defaultdict(int)

    def install(self, owner, attr: str, name, count: Callable | None = None) -> None:
        """Wrap ``owner.attr`` in a span; ``name`` is a string or a function of the args.

        ``count(args, result)`` gives the span's work count. A missing
        attribute is reported and skipped, so the layers that remain are
        still measured.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            print(f"trace: {_qualname(owner)}.{attr} not found; its span is not recorded",
                  file=sys.stderr)
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self._record(fn, name(args) if callable(name) else name, count, args, kwargs)

        self._originals.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install_counter(self, owner, attr: str, name: str) -> None:
        """Count calls to ``owner.attr`` without a span (for calls too frequent to span)."""
        fn = getattr(owner, attr, None)
        if fn is None:
            print(f"trace: {_qualname(owner)}.{attr} not found; {name} is not counted",
                  file=sys.stderr)
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.counters[name] += 1
            return fn(*args, **kwargs)

        self._originals.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    def _record(self, fn, span_name, count, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(None)
        frame = [sid, 0, 0]
        if self.track_alloc:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)
            tracemalloc.reset_peak()
            frame[1] = frame[2] = current
        self._stack.append(frame)
        result = error = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            peak_alloc = 0
            if self.track_alloc:
                frame[2] = max(frame[2], tracemalloc.get_traced_memory()[1])
                peak_alloc = frame[2] - frame[1]
                if self._stack:
                    self._stack[-1][2] = max(self._stack[-1][2], frame[2])
            n = count(args, result) if count is not None and error is None else 0
            self.spans[sid] = Span(sid, span_name, parent, start, end, n, error, peak_alloc)


def _qualname(owner) -> str:
    return getattr(owner, "__name__", type(owner).__name__)


# --- the rpca call sites ------------------------------------------------------

def _so_cells(args, result) -> int:
    state, _rule, _boundary, steps = args[:4]
    return int(state.prev.size) * int(steps)


def install_rpca(tracer: Tracer) -> None:
    """Wrap every rpca entry point the workloads reach, at its callers' lookup name."""
    from rpca import ca, cipher, cli, container, pca

    cli_name = lambda args: f"cli.{(args[0] or ['?'])[0]}"  # noqa: E731  argv[0] is the subcommand
    tracer.install(cli, "main", cli_name)

    # encrypt_stream: pad and the rid loop (self), then _encrypt_padded, which
    # runs the rounds, bit packing, CAF core and record objects.
    for owner in (cli, cipher):
        tracer.install(owner, "encrypt_stream", "cipher.encrypt_stream")
        tracer.install(owner, "decrypt_stream", "cipher.decrypt_stream",
                       count=lambda args, result: len(args[0]))
    tracer.install(cipher, "_encrypt_padded", "cipher.encrypt_blocks",
                   count=lambda args, result: len(args[0]) // cipher.BLOCK_BYTES)
    tracer.install(cipher, "_round_materials", "cipher.key_setup")
    tracer.install(cipher, "_caf_rule", "cipher.key_setup")
    tracer.install_counter(cipher.SeededRidSource, "__call__", "cipher.rid_calls")
    tracer.install(cipher, "so_iterate_forward", "second_order.forward", count=_so_cells)
    tracer.install(cipher, "so_iterate_backward", "second_order.backward", count=_so_cells)

    for owner in (cli, container):
        tracer.install(owner, "write_container", "container.write",
                       count=lambda args, result: len(args[1]))
        tracer.install(owner, "read_container", "container.read",
                       count=lambda args, result: len(result[1]))

    tracer.install(ca, "cycle_structure", "ca.cycle_structure",
                   count=lambda args, result: 1 << int(args[2]))
    tracer.install(ca, "global_map", "ca.global_map")
    tracer.install(ca, "enumerate_reversible_elementary", "ca.enumerate")
    tracer.install_counter(ca, "step", "ca.step")
    tracer.install(pca, "cycle_encipher", "pca.orbit")
    tracer.install(pca, "cycle_decipher", "pca.orbit")


# --- per-layer metrics ----------------------------------------------------------

# name -> unit, in the order they are printed; must match BENCHMARK.json's per_layer.
LAYER_UNITS = {
    "second_order.forward_s": "s",
    "second_order.backward_s": "s",
    "second_order.cell_updates": "count",
    "second_order.ns_per_cell_update": "ns",
    "second_order.encrypt_share": "frac",
    "second_order.peak_alloc_MiB": "MiB",
    "cipher.encrypt_self_s": "s",
    "cipher.decrypt_self_s": "s",
    "cipher.blocks": "count",
    "cipher.rid_s": "s",
    "cipher.rid_calls": "count",
    "cipher.key_setup_s": "s",
    "cipher.key_setup_ms": "ms",
    "cipher.peak_alloc_MiB": "MiB",
    "container.write_s": "s",
    "container.read_s": "s",
    "container.records": "count",
    "container.rejects": "count",
    "container.peak_alloc_MiB": "MiB",
    "cli.encrypt_self_s": "s",
    "cli.decrypt_self_s": "s",
    "ca.global_map_s": "s",
    "ca.cycle_walk_s": "s",
    "ca.states": "count",
    "pca.orbit_s": "s",
    "pca.orbit_steps": "count",
    "analysis.encrypt_2w_MBps": "MB/s",
    "analysis.decrypt_2w_MBps": "MB/s",
    "analysis.parallel_efficiency": "frac",
    "bench.trace_overhead_frac": "frac",
    "bench.traced_ops": "count",
}


def _in_key_setup(span: Span, by_id: dict[int, Span]) -> bool:
    # the material automata run by key setup are second-order too, but not the CAF core
    return span.parent is not None and by_id[span.parent].name == "cipher.key_setup"


def _self_times(spans: list[Span]) -> dict[int, float]:
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def time_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-operation layer times and counts from the spans of ``ops`` traced operations."""
    spans = [s for s in tracer.spans if s is not None]
    by_id = {s.id: s for s in spans}
    own = _self_times(spans)
    names = defaultdict(list)
    for s in spans:
        if not _in_key_setup(s, by_id):
            names[s.name].append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in names[name])

    def self_total(name: str) -> float:
        return sum(own[s.id] for s in names[name])

    def count(name: str) -> int:
        return sum(s.count for s in names[name])

    fwd, bwd = total("second_order.forward"), total("second_order.backward")
    cells = count("second_order.forward") + count("second_order.backward")
    encrypt_wall = total("cli.encrypt") or total("cipher.encrypt_stream")
    per_op = {
        "second_order.forward_s": fwd,
        "second_order.backward_s": bwd,
        "second_order.cell_updates": cells,
        "cipher.encrypt_self_s": self_total("cipher.encrypt_blocks"),
        "cipher.decrypt_self_s": self_total("cipher.decrypt_stream"),
        "cipher.blocks": count("cipher.encrypt_blocks") + count("cipher.decrypt_stream"),
        "cipher.rid_s": self_total("cipher.encrypt_stream"),
        "cipher.rid_calls": tracer.counters["cipher.rid_calls"],
        "cipher.key_setup_s": total("cipher.key_setup"),
        "container.write_s": total("container.write"),
        "container.read_s": total("container.read"),
        "container.records": count("container.write") + count("container.read"),
        "container.rejects": sum(1 for s in names["container.read"] if s.error),
        "cli.encrypt_self_s": self_total("cli.encrypt"),
        "cli.decrypt_self_s": self_total("cli.decrypt"),
        "ca.global_map_s": total("ca.global_map"),
        "ca.cycle_walk_s": self_total("ca.cycle_structure"),
        "ca.states": count("ca.cycle_structure"),
        "pca.orbit_s": total("pca.orbit"),
        "pca.orbit_steps": tracer.counters["ca.step"],
    }
    out = {k: v / ops for k, v in per_op.items()}
    out["second_order.ns_per_cell_update"] = (fwd + bwd) / cells * 1e9 if cells else 0.0
    out["second_order.encrypt_share"] = fwd / encrypt_wall if encrypt_wall else 0.0
    return out


def alloc_metrics(tracer: Tracer) -> dict[str, float]:
    """Highest tracemalloc peak per layer over the spans of the allocation pass."""
    peaks: dict[str, int] = defaultdict(int)
    by_id = {s.id: s for s in tracer.spans if s is not None}
    for s in by_id.values():
        if _in_key_setup(s, by_id) or s.name == "cipher.key_setup":
            continue
        layer = s.name.split(".")[0]
        peaks[layer] = max(peaks[layer], s.peak_alloc)
    return {f"{layer}.peak_alloc_MiB": peaks[layer] / MIB
            for layer in ("second_order", "cipher", "container")}


def span_summary(tracer: Tracer) -> list[str]:
    """One line per span name: calls, total seconds, self seconds."""
    spans = [s for s in tracer.spans if s is not None]
    own = _self_times(spans)
    rows: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        row = rows[s.name]
        row[0] += 1
        row[1] += s.duration
        row[2] += own[s.id]
    lines = [f"{'span':<28} {'calls':>8} {'total_s':>10} {'self_s':>10}"]
    for name, (calls, tot, slf) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:<28} {calls:>8d} {tot:>10.4f} {slf:>10.4f}")
    for name, n in sorted(tracer.counters.items()):
        lines.append(f"{name:<28} {n:>8d} (counted calls)")
    return lines
