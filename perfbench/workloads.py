"""Workload inputs, expected outputs, work sizes and memory estimates.

Everything here is plain data derived from the workload seed with the
standard library only, so the runner can plan, pre-flight and document a
run without importing the program under test. ``child.py`` turns these
parameters into library calls and checks the results against
``expected``.
"""

from __future__ import annotations

import math
import random

MATRIX_BYTES = 16  # one complex128 entry
BASE_BYTES = 64 * 2**20  # interpreter, numpy and mqspace after import
LABEL_BYTES = 150  # one binned amplitude held in a per-label dict

WHY = {
    "transfer_n10": (
        "library run_blockwise, 10-spin dipolar chain, 9 times: block engine at its "
        "largest size here; dense assembly, label tables and full-size temporaries dominate"
    ),
    "evolve_cli_n8": (
        "mqspace evolve, 8-spin chain, 129 times, engine both, JSON file: per-time binning "
        "and serialization dominate; dense engine and discrepancy run too"
    ),
    "verify_n5": (
        "mqspace verify --n 5, 100 trials, 50 combos: the 16^n unit stack of "
        "verify_order_preservation; never touches dynamics or diffusion"
    ),
    "cascade_n10": (
        "mqspace cascade --n 10, random Hermitian operator: stage_reduce and dense "
        "eigh; the only workload that measures the cascade layer"
    ),
}
NAMES = tuple(WHY)


def _chain(n: int, seed: int) -> list[list]:
    rng = random.Random(seed)
    return [[k, k + 1, rng.uniform(0.3, 1.0)] for k in range(1, n)]


def params(name: str, seed: int, **overrides) -> dict:
    """Inputs of one workload; ``overrides`` shrink it for tests.

    ``reference_offset`` is added to the dense reference of
    ``transfer_n10``; tests set it to plant a wrong reference.
    """
    p = {
        "transfer_n10": {"n": 10, "points": 9, "reference_offset": 0.0},
        "evolve_cli_n8": {"n": 8, "points": 129},
        "verify_n5": {"n": 5, "trials": 100, "combos": 50},
        "cascade_n10": {"n": 10},
    }[name]
    p = {**p, **overrides, "seed": seed}
    if name in ("transfer_n10", "evolve_cli_n8"):
        p["couplings"] = _chain(p["n"], seed)
    return p


def expected(name: str, p: dict) -> dict:
    """Output counts the checks demand, derived from the inputs alone."""
    n = p["n"]
    zq = math.comb(2 * n, n)
    if name == "evolve_cli_n8":
        return {"channels": zq - 1, "points": p["points"]}
    if name == "verify_n5":
        trials, combos = p["trials"], p["combos"]
        return {
            "checks_run": [
                3 * trials * 4**n,
                2 * (zq - 2**n) + 2 * combos,
                3 * trials,
                3 * trials,
                3 * trials,
            ]
        }
    return {}


def work_sizes(name: str, n: int) -> dict[str, int]:
    """Arithmetic sizes a later change can quote its scaling against."""
    blocks = [math.comb(n, k) for k in range(n + 1)]
    sizes = {
        "n": n,
        "4^n": 4**n,
        "sum_d2": sum(d**2 for d in blocks),
        "sum_d3": sum(d**3 for d in blocks),
        "8^n": 8**n,
    }
    if name == "verify_n5":
        sizes["16^n"] = 16**n
    return sizes


def memory_estimate(name: str, p: dict) -> int:
    """Bytes a run may hold at its peak, from n and the grid alone.

    Each term counts dense ``2^n x 2^n`` complex matrices alive at once,
    the ``16^n``-entry unit stack of ``verify``, and the per-label amplitude
    dicts of the transfer engines (one entry per zero-quantum cell and
    time point).
    """
    n = p["n"]
    dense = MATRIX_BYTES * 4**n
    labels = LABEL_BYTES * math.comb(2 * n, n)
    if name == "transfer_n10":
        return BASE_BYTES + 20 * dense + labels * p["points"]
    if name == "evolve_cli_n8":
        return BASE_BYTES + 40 * dense + 2 * labels * p["points"]
    if name == "verify_n5":
        return BASE_BYTES + 8 * MATRIX_BYTES * 16**n + 20 * dense
    return BASE_BYTES + 24 * dense


def available_memory() -> int:
    """``MemAvailable`` from ``/proc/meminfo``, in bytes."""
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    raise OSError("/proc/meminfo has no MemAvailable line")
