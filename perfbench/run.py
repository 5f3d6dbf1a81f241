"""mqspace benchmark runner.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition runs in a fresh Python process (``child.py``), one at a
time: a closed loop with a single caller. Each ``mqspace`` CLI call and
each new script pays the cold label tables and caches, so the benchmark
pays them too. BLAS and OpenMP threads are capped at the number of usable
cores.

``--trace 0`` first starts a few processes that only set up, then makes
the public call once and again while another repetition fits in
``--seconds``, and reports the end-to-end metrics: the medians of
``wall_s``, ``setup_s`` and ``peak_rss_mb``. ``--trace 1`` alternates an untraced and a traced
repetition and reports the per-layer metrics that ``spans.py`` records.
Every repetition's outputs are checked; a failed check, a crash or a run
refused by the memory pre-flight counts in ``failed``. The last line of
standard output is the JSON result; a full record, with the environment
and the spans, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_SPAWNS = 8
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "traced_wall_s": "s",
    "trace_overhead_s": "s",
    "dynamics.build_hamiltonian_s": "s",
    "dynamics.blockwise_conjugate_s": "s",
    "dynamics.blockwise_conjugate_calls": "count",
    "dynamics.amplitude_profile_s": "s",
    "dynamics.eigh_s": "s",
    "dynamics.eigh_calls": "count",
    "dynamics.eigh_dim3_sum": "count",
    "subspaces.decompose_zq_s": "s",
    "subspaces.decompose_zq_peak_mb": "MB",
    "subspaces.zq_offdiagonal_cells_s": "s",
    "subspaces.verify_closure_s": "s",
    "diffusion.run_blockwise_s": "s",
    "diffusion.run_diffusion_s": "s",
    "diffusion.channel_discrepancy_s": "s",
    "diffusion.self_s": "s",
    "properties.verify_order_preservation_s": "s",
    "properties.verify_order_preservation_peak_mb": "MB",
    "properties.verify_extreme_states_s": "s",
    "properties.checks_run": "count",
    "cascade.stage_reduce_s": "s",
    "cascade.stage_reduce_calls": "count",
    "cascade.eigh_s": "s",
    "cascade.eigh_calls": "count",
    "cascade.eigh_dim3_sum": "count",
    "cascade.self_s": "s",
    "cascade.fallbacks": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
}


def thread_caps() -> dict[str, str]:
    cores = str(len(os.sched_getaffinity(0)))
    return {var: cores for var in THREAD_VARS}


def git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def summary(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


class Run:
    """Spawns the child processes of one benchmark run and keeps their results."""

    def __init__(self, workload: str, p: dict, workdir: str):
        self.started = time.monotonic()
        self.workdir = workdir
        self.job = {
            "workload": workload,
            "params": p,
            "expected": workloads.expected(workload, p),
            "workdir": workdir,
        }
        self.env = {**os.environ, **thread_caps(), "PYTHONPATH": str(SRC)}
        self.spawned = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, mode: str, rep: int, **extra) -> dict:
        """Start one child, wait for it and return its result."""
        self.spawned += 1
        job_path = os.path.join(self.workdir, f"job-{self.spawned}.json")
        result_path = os.path.join(self.workdir, f"result-{self.spawned}.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump({**self.job, **extra, "mode": mode, "rep": rep, "result": result_path}, fh)
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        spawn_time = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), job_path, repr(spawn_time)],
                env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"failures": [f"{mode} process killed after {timeout:.0f} s"]}
        try:
            with open(result_path, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            tail = proc.stderr.strip().splitlines()[-3:]
            return {"failures": [f"{mode} process exited {proc.returncode}: {' | '.join(tail)}"]}

    def repeat(self, modes: tuple[str, ...], seconds: float) -> list[dict]:
        """Cycle through ``modes`` once, then while another cycle fits in ``seconds``."""
        reps = []
        measuring = time.monotonic()
        longest = 0.0
        while not reps or time.monotonic() - measuring + longest <= seconds:
            begun = time.monotonic()
            for mode in modes:
                result = self.spawn(mode, len(reps))
                result["mode"] = mode
                reps.append(result)
            longest = max(longest, time.monotonic() - begun)
        return reps


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, **overrides) -> dict:
    """One benchmark run; ``overrides`` change workload parameters (tests only)."""
    p = workloads.params(workload, seed, **overrides)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "work_sizes": workloads.work_sizes(workload, p["n"]),
        "memory_estimate_mb": workloads.memory_estimate(workload, p) / 2**20,
        "memory_available_mb": workloads.available_memory() / 2**20,
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "threads": thread_caps(),
            "commit": git_commit(),
        },
        "errors": [],
    }
    if record["memory_estimate_mb"] > record["memory_available_mb"]:
        reason = (
            f"refused: estimated {record['memory_estimate_mb']:.0f} MB exceeds "
            f"{record['memory_available_mb']:.0f} MB available"
        )
        return {**record, "errors": [reason], "attempted": 1, "failed": 1, "reps": []}

    STATE.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=STATE)
    try:
        run = Run(workload, p, workdir)
        setups = [] if trace else [run.spawn("setup", -1) for _ in range(SETUP_SPAWNS)]
        modes = ("timed", "traced") if trace else ("timed",)
        reps = run.repeat(modes, seconds)
        if workload == "transfer_n10":
            ref = run.spawn("reference", -1, reps=list(range(len(reps))))
            record["errors"] += ref["failures"]
            for i, rep in enumerate(reps):
                rep["failures"] += ref.get("rep_failures", {}).get(str(i), ["no reference"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for s in setups:
        record["errors"] += s["failures"]
    record["env"].update(next((r["env"] for r in setups + reps if "env" in r), {}))
    record["reps"] = reps
    record["attempted"] = len(reps)
    record["failed"] = sum(1 for r in reps if r["failures"])
    record["samples"] = {
        "wall_s": [r["wall_s"] for r in reps if r["mode"] == "timed" and "wall_s" in r],
        "setup_s": [r["setup_s"] for r in setups + reps if "setup_s" in r],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps if r["mode"] == "timed" and "peak_rss_mb" in r],
    }
    if trace:
        traced = [r for r in reps if r["mode"] == "traced" and "layers" in r]
        record["samples"]["traced_wall_s"] = [r["wall_s"] for r in traced]
        for name in PER_LAYER:
            if name not in ("traced_wall_s", "trace_overhead_s"):
                record["samples"][name] = [r["layers"].get(name, 0.0) for r in traced]
    return record


def metrics(record: dict) -> dict:
    """Median of every reported metric; a metric without samples is left out."""
    stats = {name: summary(v) for name, v in record.get("samples", {}).items()}
    units = PER_LAYER if record["trace"] else END_TO_END
    out = {}
    for name, unit in units.items():
        if name == "trace_overhead_s":
            if stats["traced_wall_s"]["n"] and stats["wall_s"]["n"]:
                value = stats["traced_wall_s"]["median"] - stats["wall_s"]["median"]
                out[name] = {"value": value, "unit": unit}
        elif stats.get(name, {}).get("n"):
            out[name] = {"value": stats[name]["median"], "unit": unit}
    return out


def report(record: dict) -> dict:
    """Print the human-readable lines and return the result object."""
    found = metrics(record)
    attempted, failed = record["attempted"], record["failed"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}")
    print(f"work_sizes {json.dumps(record['work_sizes'])}")
    print(f"memory_estimate_mb {record['memory_estimate_mb']:.1f} "
          f"available_mb {record['memory_available_mb']:.1f}")
    print(f"env {json.dumps(record['env'], sort_keys=True)}")
    for name, m in found.items():
        s = summary(record["samples"].get(name, []))
        spread = f" (n={s['n']}, q1={s['q1']:.6g}, q3={s['q3']:.6g})" if s["n"] else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{spread}")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} runs)")
    problems = record["errors"] + [f for r in record["reps"] for f in r["failures"]]
    for problem in problems:
        print(f"failure: {problem}")
    units = PER_LAYER if record["trace"] else END_TO_END
    correct = not problems and set(found) == set(units)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": found}


def save(record: dict) -> None:
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (results / name).write_text(json.dumps(record, indent=1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mqspace" / "__init__.py").is_file():
        print(f"error: no mqspace source under {SRC}", file=sys.stderr)
        return 2
    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report(record)
    save(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
