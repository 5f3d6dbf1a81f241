"""Run every benchmark workload once, briefly, and fail on a wrong output.

Usage, from the repository root::

    python3 .github/check_workloads.py

The workload names come from ``BENCHMARK.json``, which is only read. Each
workload runs through ``perfbench/run.py`` for one second with seed 1 and
no tracing; the last line of its output is the JSON result, whose
end-to-end metrics are printed (no threshold) as
``<workload> <metric> <value> <unit>`` lines before the check that the
run was correct and no repetition failed.
"""

import json
import subprocess
import sys


def main() -> None:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    for w in names:
        run = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", w, "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        r = json.loads(run.stdout.splitlines()[-1])
        for name, m in r["metrics"].items():
            print(w, name, format(m["value"], ".6g"), m["unit"], flush=True)
        if not (r["correct"] is True and r["failed"] == 0):
            sys.exit(f"{w}: {r}")


if __name__ == "__main__":
    main()
