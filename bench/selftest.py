#!/usr/bin/env python3
"""Quick self-test of the benchmark (about two minutes).

    python3 bench/selftest.py

Runs every workload at toy size, untraced and traced with one seed and
untraced with another, and checks that:
  - BENCHMARK.json names exactly the metrics run.py prints, with the
    same units, and every printed metric carries a unit;
  - no operation failed (error_frac == 0);
  - one seed reproduces the input hash and the program's counts, and
    another seed changes the inputs.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402


def run_all(seed: int, trace: int) -> tuple[dict, dict[str, dict]]:
    """Returns the final result line and each workload's report."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all",
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd[1:])} exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    reports = {}
    for line in lines[:-1]:
        if line.startswith("{"):
            report = json.loads(line)["report"]
            reports[report["workload"]] = report
    return json.loads(lines[-1]), reports


def main() -> int:
    problems: list[str] = []

    def check(ok: bool, message: str) -> None:
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            problems.append(message)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json names run.py's workloads")
    for key, catalogue in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        check(listed == catalogue, f"BENCHMARK.json {key} matches run.py's names and units")

    runs = {}
    for seed, trace in ((1, 0), (1, 1), (2, 0)):
        final, reports = run_all(seed, trace)
        runs[seed, trace] = reports
        names = END_TO_END if trace == 0 else PER_LAYER
        want = {f"{w}.{n}": u for w in WORKLOADS for n, u in names.items()}
        got = {k: m.get("unit") for k, m in final["metrics"].items()}
        check(got == want, f"seed {seed} trace {trace}: every metric printed with its unit")
        check(all(isinstance(m["value"], (int, float)) for m in final["metrics"].values()),
              f"seed {seed} trace {trace}: every metric value is a number")
        check(final["attempted"] > 0 and final["failed"] == 0 and final["correct"],
              f"seed {seed} trace {trace}: error_frac == 0 "
              f"({final['failed']} of {final['attempted']})")

    for w in WORKLOADS:
        a, b, c = runs[1, 0][w], runs[1, 1][w], runs[2, 0][w]
        check(a["input_sha256"] == b["input_sha256"], f"{w}: one seed, one input hash")
        check(a["counts"] == b["counts"], f"{w}: one seed, the same program counts")
        check(a["input_sha256"] != c["input_sha256"], f"{w}: another seed, other inputs")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
