"""Smoke check of the benchmark itself, on tiny inputs (about a minute).

    python3 perfbench/smoke.py

For every workload it runs the benchmark untraced and traced and checks
that the last line is the result object, that it carries exactly the
metrics BENCHMARK.json declares, each with its declared unit, and that both
runs saw the same operation outcomes. It also checks that the benchmark
fails, without a result, in a copy that lacks the program. Exits 1 on the
first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIMEOUT_S = 170


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S)


def outcomes(stdout: str) -> list:
    return [line for line in stdout.splitlines() if line.startswith("outcome ")]


def check_workload(workload: str) -> list:
    problems = []
    seen = {}
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = run(ROOT, workload, trace)
        where = f"{workload} --trace {trace}"
        if proc.returncode != 0:
            return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{where}: result keys {sorted(result)}")
        if result["correct"] is not True or result["attempted"] < 1:
            problems.append(f"{where}: correct={result['correct']} "
                            f"attempted={result['attempted']}")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in declared}
        if got != want:
            problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                            f"missing {sorted(set(want) - set(got))}, "
                            f"extra {sorted(set(got) - set(want))}, "
                            f"units {[k for k in want if k in got and got[k] != want[k]]}")
        seen[trace] = outcomes(proc.stdout)
    if seen[0] != seen[1]:
        problems.append(f"{workload}: traced and untraced outcomes differ")
    return problems


def check_without_program() -> list:
    bare = ROOT / ".perfbench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
        return ["the benchmark did not fail in a copy without the program"]
    return []


def main() -> int:
    problems = check_without_program()
    for w in SPEC["workloads"]:
        problems += check_workload(w["name"])
    for p in problems:
        print(f"smoke: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
