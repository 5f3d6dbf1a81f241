"""One repetition of a workload, in a fresh interpreter.

Usage: ``python3 child.py JOB_JSON SPAWN_TIME``. ``SPAWN_TIME`` is the
runner's ``time.monotonic()`` just before it started this process, so
``setup_s`` covers interpreter start, ``import mqspace`` and building and
validating the inputs. The job's ``mode`` selects what follows set-up:

- ``setup``: nothing; only set-up is measured.
- ``timed``: one untraced public call, then the output checks.
- ``traced``: the same call with layer spans recorded (``spans.py``).
- ``reference``: the dense engine on the same inputs, compared with the
  channels every earlier repetition saved (``transfer_n10`` only).

The result goes to the job's ``result`` path as JSON. A failed check or an
exception is reported there; only a crash leaves no result behind.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import resource
import sys
import time
import traceback

TOL = 1e-10


class Transfer:
    """``run_blockwise`` called from the library on a dipolar chain."""

    def __init__(self, job: dict):
        import mqspace

        p = job["params"]
        self.mqspace = mqspace
        self.offset = p["reference_offset"]
        self.workdir = job["workdir"]
        self.rep = job["rep"]
        self.output_bytes = 0
        self.config = mqspace.DiffusionConfig(
            system=mqspace.SpinSystem(p["n"]),
            hamiltonian=mqspace.HamiltonianSpec(
                "dipolar_secular", couplings=tuple(map(tuple, p["couplings"]))
            ),
            initial="I1z",
            times=mqspace.linear_times(0.0, 4.0, p["points"]),
        )

    def call(self):
        return self.mqspace.run_blockwise(self.config)

    def _channels(self, trace):
        import numpy as np

        return np.stack([trace.channels[lab] for lab in self.config.tracked_labels()])

    def _saved(self, rep: int) -> str:
        return os.path.join(self.workdir, f"channels-{rep}.npy")

    def check(self, trace) -> list[str]:
        import numpy as np

        failures = []
        c = trace.conserved
        drift = float(np.max(np.abs(c - c[0])) / abs(c[0]))
        if drift > TOL:
            failures.append(f"conserved-sum drift {drift:.3e} > {TOL:.0e}")
        residual = max(p.residual for p in trace.profiles)
        if residual > TOL:
            failures.append(f"out-of-pattern residual {residual:.3e} > {TOL:.0e}")
        np.save(self._saved(self.rep), self._channels(trace))
        return failures

    def reference(self, reps: list[int]) -> dict[str, list[str]]:
        """Dense ``run_diffusion`` channels against each saved repetition."""
        import numpy as np

        dense = self._channels(self.mqspace.run_diffusion(self.config)) + self.offset
        out = {}
        for rep in reps:
            try:
                gap = float(np.max(np.abs(np.load(self._saved(rep)) - dense)))
            except OSError as exc:
                out[str(rep)] = [f"no saved channels: {exc}"]
                continue
            out[str(rep)] = (
                [f"channels differ from dense engine by {gap:.3e} > {TOL:.0e}"]
                if gap > TOL
                else []
            )
        return out


class Cli:
    """A ``mqspace`` subcommand run through ``mqspace.cli.main``."""

    def __init__(self, job: dict):
        self.cli = importlib.import_module("mqspace.cli")
        self.p = job["params"]
        self.expected = job["expected"]
        self.out = os.path.join(job["workdir"], f"out-{job['rep']}.json")
        self.output_bytes = 0
        args = self.arguments(self.p)
        self.argv = [str(a) for a in args] + ["--format", "json", "--out", self.out]

    def call(self):
        return self.cli.main(self.argv)

    def check(self, code: int) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        self.output_bytes = os.path.getsize(self.out)
        with open(self.out, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(self.out)
        return self.check_doc(doc)


class EvolveCli(Cli):
    def arguments(self, p):
        couplings = [x for k, l, j in p["couplings"] for x in ("--coupling", f"{k},{l},{j!r}")]
        return ["evolve", "--n", p["n"], "--model", "dipolar_secular", *couplings,
                "--times", f"0:4:{p['points']}", "--engine", "both"]

    def check_doc(self, doc):
        failures = []
        gap = max(doc["max_channel_discrepancy"])
        if gap > TOL:
            failures.append(f"max_channel_discrepancy {gap:.3e} > {TOL:.0e}")
        want = self.expected["channels"]
        if len(doc["channels"]) != want:
            failures.append(f"{len(doc['channels'])} channels, expected {want}")
        points = self.expected["points"]
        if any(len(series) != points for series in doc["channels"].values()):
            failures.append(f"a channel does not hold {points} points")
        return failures


class VerifyCli(Cli):
    def arguments(self, p):
        return ["verify", "--n", p["n"], "--seed", p["seed"],
                "--trials", p["trials"], "--combos", p["combos"]]

    def check_doc(self, doc):
        failures = [] if doc["passed"] is True else ["verify did not pass"]
        counts = [c["checks_run"] for c in doc["checks"]]
        if counts != self.expected["checks_run"]:
            failures.append(f"checks_run {counts}, expected {self.expected['checks_run']}")
        return failures


class CascadeCli(Cli):
    def arguments(self, p):
        return ["cascade", "--n", p["n"], "--seed", p["seed"]]

    def check_doc(self, doc):
        import numpy as np
        import mqspace

        # the CLI draws its target exactly like this; cascade's own
        # tolerance is relative to the target's norm
        target = mqspace.random_operator(
            mqspace.SpinSystem(self.p["n"]), np.random.default_rng(self.p["seed"]), hermitian=True
        )
        limit = importlib.import_module("mqspace.cascade").STAGE_TOL * max(target.norm(), 1.0)
        errors = {**doc["residuals"], "spectrum_error": doc["spectrum_error"]}
        failures = [f"{k} {v:.3e} > {limit:.3e}" for k, v in errors.items() if v > limit]
        failures += [f"{k} is false" for k, v in doc["stage_memberships"].items() if v is not True]
        if len(doc["residuals"]) != 3 or len(doc["fallbacks"]) != 3:
            failures.append("cascade did not report three stages")
        return failures


WORKLOADS = {
    "transfer_n10": Transfer,
    "evolve_cli_n8": EvolveCli,
    "verify_n5": VerifyCli,
    "cascade_n10": CascadeCli,
}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def run(job: dict, spawn_time: float, result: dict) -> None:
    workload = WORKLOADS[job["workload"]](job)
    result["setup_s"] = time.monotonic() - spawn_time
    mode = job["mode"]
    if mode == "reference":
        result["rep_failures"] = workload.reference(job["reps"])
    elif mode in ("timed", "traced"):
        tracer = None
        if mode == "traced":
            from spans import Tracer, layer_metrics

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        try:
            out = workload.call()
        finally:
            result["wall_s"] = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["failures"] += workload.check(out)
        if tracer is not None:
            result["layers"] = layer_metrics(tracer.spans)
            result["layers"]["cli.output_bytes"] = workload.output_bytes
            result["spans"] = tracer.spans
    result["env"] = environment()


def main(job_path: str, spawn_time: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    result = {"failures": []}
    try:
        run(job, float(spawn_time), result)
    except Exception:  # reported to the runner, which counts the failure
        result["failures"].append(traceback.format_exc(limit=8))
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
