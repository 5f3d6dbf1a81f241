"""Layer spans recorded from outside the library.

A :class:`Tracer` replaces public functions, as bound in the modules that
call them, with wrappers that record one span per call: name, start, end
and parent span, plus the ``tracemalloc`` peak inside the spans named in
``PEAK_SPANS``. Nothing in the library is edited; :meth:`Tracer.uninstall`
puts every original binding back. A binding that no longer exists is
skipped, so a layer that a refactor stops calling reports zero calls
instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
import tracemalloc
from collections import defaultdict

EIGH = "numpy.linalg.eigh"

# tracemalloc slows every Python allocation (label tables several times
# over), so it runs only inside the spans whose peak is reported
PEAK_SPANS = {"subspaces.decompose_zq", "properties.verify_order_preservation"}

# span name -> bindings to wrap, as (module, attribute); the optional third
# item extracts counts from the call's result into the span record
TARGETS = {
    "cli.main": [("mqspace.cli", "main")],
    "diffusion.run_blockwise": [("mqspace", "run_blockwise"), ("mqspace.cli", "run_blockwise")],
    "diffusion.run_diffusion": [("mqspace", "run_diffusion"), ("mqspace.cli", "run_diffusion")],
    "diffusion.channel_discrepancy": [("mqspace.cli", "channel_discrepancy")],
    "dynamics.build_hamiltonian": [
        ("mqspace.diffusion", "build_hamiltonian"),
        ("mqspace.cli", "build_hamiltonian"),
    ],
    "dynamics.blockwise_conjugate": [("mqspace.diffusion", "blockwise_conjugate")],
    "dynamics.amplitude_profile": [("mqspace.diffusion", "amplitude_profile")],
    "subspaces.decompose_zq": [("mqspace.diffusion", "decompose_zq")],
    "subspaces.zq_offdiagonal_cells": [
        ("mqspace.diffusion", "zq_offdiagonal_cells"),
        ("mqspace.dynamics", "zq_offdiagonal_cells"),
        ("mqspace.properties", "zq_offdiagonal_cells"),
    ],
    "subspaces.verify_closure": [("mqspace.cli", "verify_closure")],
    "properties.verify_order_preservation": [
        ("mqspace.cli", "verify_order_preservation", lambda r: {"checks": r.checks})
    ],
    "properties.verify_extreme_states": [
        ("mqspace.cli", "verify_extreme_states", lambda r: {"checks": r.checks})
    ],
    # mqspace.cascade is the function; importlib reaches the module
    "cascade.cascade": [
        ("mqspace.cli", "cascade", lambda r: {"fallbacks": sum(map(bool, r.fallbacks))})
    ],
    "cascade.stage_reduce": [("mqspace.cascade", "stage_reduce")],
    EIGH: [("numpy.linalg", "eigh", lambda r: {"dim3": _dim3(r[0])})],
}


def _dim3(eigenvalues) -> int:
    """Sum of d**3 over the matrices an ``eigh`` call decomposed."""
    *batch, d = eigenvalues.shape
    return math.prod(batch) * d**3


class Tracer:
    """Collects spans from wrapped bindings while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for name, bindings in self.targets.items():
            for module_name, attr, *extract in bindings:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, *extract))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, extract=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
                if extract is not None:
                    span.update(extract(result))
                return result
            finally:
                self._exit(span)

        return wrapper

    def _enter(self, name: str) -> dict:
        span = {"name": name, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        if name in PEAK_SPANS and not tracemalloc.is_tracing():
            tracemalloc.start()
            span["peak_bytes"] = 0
        span["start"] = time.perf_counter()
        return span

    def _exit(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        if "peak_bytes" in span:
            span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals derived from one traced call.

    ``<span>_s`` and ``<span>_calls`` total every span of that name and
    ``<span>_peak_mb`` is its largest ``tracemalloc`` peak. ``<layer>.self_s``
    sums the self time of every span of the layer. ``eigh`` spans are
    credited to the layer of the span that encloses them.
    """
    out: dict[str, float] = defaultdict(float)
    own = self_times(spans)
    for i, s in enumerate(spans):
        duration = s["end"] - s["start"]
        if s["name"] == EIGH:
            layer = _enclosing_layer(spans, i)
            out[f"{layer}.eigh_s"] += duration
            out[f"{layer}.eigh_calls"] += 1
            out[f"{layer}.eigh_dim3_sum"] += s.get("dim3", 0)
            continue
        layer = s["name"].split(".", 1)[0]
        out[f"{s['name']}_s"] += duration
        out[f"{s['name']}_calls"] += 1
        if "peak_bytes" in s:
            peak_mb = s["peak_bytes"] / 2**20
            out[f"{s['name']}_peak_mb"] = max(out[f"{s['name']}_peak_mb"], peak_mb)
        out[f"{layer}.self_s"] += own[i]
        if "checks" in s:
            out[f"{layer}.checks_run"] += s["checks"]
        if "fallbacks" in s:
            out[f"{layer}.fallbacks"] += s["fallbacks"]
    return dict(out)


def _enclosing_layer(spans: list[dict], i: int) -> str:
    parent = spans[i]["parent"]
    return "top" if parent is None else spans[parent]["name"].split(".", 1)[0]
