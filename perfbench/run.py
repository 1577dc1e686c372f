"""Benchmark of the liechannel CLI.

    python3 perfbench/run.py --workload dupin-verify --seed 0 --seconds 30 --trace 0

Runs one workload in this process, in a closed loop with one client: each
operation is one ``liechannel.cli.main(argv)`` call on generated input files,
started after the previous one returned. The last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of one traced
pass with ``--trace 1``. See perfbench/README.md for workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: every kernel works on 6 x k matrices, where a second
# thread only spins and makes the timings measure the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_run"
SETUP_REPEATS = 3
# the metrics of an untraced run that go into the result object; the others
# (per-command throughputs, failed_frac, raw times) are printed lines only,
# because not every workload runs every command
END_TO_END = ("passed_vps", "wall_s", "setup_s", "peak_rss_mb")


@dataclass
class Outcome:
    seconds: float
    failure: Optional[str]      # None when the operation passed its check
    unstable: bool = False      # output differs from the op's first execution
    probe: float = 0.0          # mean probe() reading just before and after it


# A probe is a fixed kernel of plain Python and 6 x k numpy work, the mix
# the program runs, timed between operations. It calls nothing of the
# program, so it reads the same on every version of it. The shared host
# slows everything by up to 1.8x in phases of seconds, and CPU time rises
# with wall time, so every execution is scaled to one host speed: its time
# times PROBE_REF_S over the mean of the probe readings just before and
# after it. PROBE_REF_S is about the fastest probe reading on the 2-core
# host of the recorded figures (README.md), where the fastest reading of a
# run was 5.1 to 5.8 ms. It is fixed, not the fastest reading of the run,
# because in a loaded run even the fastest of some 200 readings is up to 12%
# slower than in a quiet one.
PROBE_REF_S = 0.005
PROBE_MATRIX = np.random.default_rng(0).standard_normal((6, 6))


def probe() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    m = PROBE_MATRIX
    for _ in range(300):
        m = np.tanh(PROBE_MATRIX @ m)
        np.linalg.svd(m[:, :4])
    return time.perf_counter() - t0


def run_op(cli, op, first: Optional[tuple]) -> "tuple[Outcome, Optional[tuple]]":
    """Time one CLI call, then check its output outside the timed region.

    ``first`` is the (output, check result) of the first execution of this
    op; a later execution must reproduce that output byte for byte and then
    inherits its check result instead of being checked again.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()   # the previous op's garbage is not this op's time
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except Exception as exc:   # a traceback the CLI let escape
            rc = None
            crash = f"uncaught {type(exc).__name__}: {exc}"
            trace = traceback.format_exc()
        elapsed = time.perf_counter() - t0
    if crash is not None:
        where = [ln.strip() for ln in trace.splitlines() if ln.lstrip().startswith("File ")][-1]
        return Outcome(elapsed, f"{crash} ({where})"), None
    if rc != 0:
        msg = err.getvalue().strip().splitlines() or out.getvalue().strip().splitlines()
        return Outcome(elapsed, f"exit {rc}: {msg[-1] if msg else ''}"), None
    produced = op.output.read_bytes() if op.output else out.getvalue().encode()
    if first is not None:
        if produced != first[0]:
            return Outcome(elapsed, "output differs from the first execution", True), first
        return Outcome(elapsed, first[1]), first
    msg = op.check(out.getvalue())
    return Outcome(elapsed, msg), (produced, msg)


def run_pass(cli, ops, firsts: Dict[int, tuple]) -> List[Outcome]:
    outcomes = []
    for k, op in enumerate(ops):
        oc, produced = run_op(cli, op, firsts.get(k))
        if produced is not None:
            firsts.setdefault(k, produced)
        outcomes.append(oc)
    return outcomes


def measure(cli, ops, seconds: float) -> List[List[Outcome]]:
    """Operations in pass order: two whole passes, so that every op runs at
    least twice, then on until ``seconds`` of operation time have been spent.
    The probe is read after every op. Returns all outcomes per op."""
    firsts: Dict[int, tuple] = {}
    per_op: List[List[Outcome]] = [[] for _ in ops]
    before = probe()
    spent, n = 0.0, 0
    while n < 2 * len(ops) or spent < seconds:
        k = n % len(ops)
        oc, produced = run_op(cli, ops[k], firsts.get(k))
        if produced is not None:
            firsts.setdefault(k, produced)
        after = probe()
        oc.probe = (before + after) / 2
        before = after
        per_op[k].append(oc)
        spent += oc.seconds
        n += 1
    return per_op


def end_to_end(ops, per_op, setup_s: float) -> Dict[str, tuple]:
    """Metrics of one pass at the reference host speed: an op takes the
    median of its executions, each scaled by PROBE_REF_S over its probe."""
    steady = [statistics.median(o.seconds * PROBE_REF_S / o.probe for o in runs)
              for runs in per_op]
    ok = [runs[0].failure is None for runs in per_op]
    metrics: Dict[str, tuple] = {}
    for cmd in dict.fromkeys(op.command for op in ops):
        idx = [k for k, op in enumerate(ops) if op.command == cmd]
        done = sum(ops[k].vertices for k in idx if ok[k])
        metrics[f"{cmd}_vps"] = (done / sum(steady[k] for k in idx), "vertex/s")
    # the throughput of work that succeeded; failures cost wall_s instead, so
    # the figure does not swing with how many inputs of a seed are refused
    passed = [k for k in range(len(ops)) if ok[k]]
    metrics["passed_vps"] = (sum(ops[k].vertices for k in passed)
                             / max(sum(steady[k] for k in passed), 1e-9), "vertex/s")
    metrics["wall_s"] = (sum(steady), "s")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    # as measured, without the scaling: the fastest execution of each op,
    # and how much slower than the reference the host ran in the median
    metrics["raw_wall_s"] = (sum(min(o.seconds for o in runs) for runs in per_op), "s")
    metrics["host_slowdown"] = (statistics.median(o.probe for runs in per_op for o in runs)
                                / PROBE_REF_S, "ratio")
    return metrics


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"env nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas.get('name')}-{blas.get('version')} "
            f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input sizes; 'tiny' is for the smoke check")
    args = p.parse_args(argv)

    # compile on every import, so that set-up costs the same in every run
    # and nothing is written into the source tree
    sys.dont_write_bytecode = True
    t_import = time.perf_counter()
    if not (ROOT / "src" / "liechannel").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'liechannel'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from liechannel import cli
        import workloads
        import tracing
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_import
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make_ops = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size]
    print(environment())

    # set-up: inputs, files and one untimed warm-up operation per command;
    # repeated so that the median is steady, the last one is measured. Each
    # set-up keeps the mean probe reading before and after it.
    before = probe()
    import_probe = before
    setups = []
    for r in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        work = WORK / f"{args.workload}-{os.getpid()}-{r}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        ops = make_ops(args.seed, work, size)
        warmed = set()
        for op in ops:
            if op.command not in warmed:
                warmed.add(op.command)
                run_op(cli, op, None)
        elapsed = time.perf_counter() - t0
        after = probe()
        setups.append((elapsed, (before + after) / 2))
        before = after
        if r:
            shutil.rmtree(WORK / f"{args.workload}-{os.getpid()}-{r - 1}")

    try:
        if args.trace:
            result = traced_run(cli, tracing, ops, args.workload)
        else:
            per_op = measure(cli, ops, args.seconds)
            # set-up at the reference host speed, like the operations
            setup_s = (import_s * PROBE_REF_S / import_probe
                       + statistics.median(t * PROBE_REF_S / pr for t, pr in setups))
            result = report(ops, per_op, args.workload,
                            end_to_end(ops, per_op, setup_s), END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def report(ops, per_op, workload: str, metrics: Dict[str, tuple], shown) -> dict:
    """Print outcomes, failures and metrics; return the result object with
    the metrics named in ``shown``."""
    # each operation counts once, whatever the number of its executions, so
    # that the counts depend on the inputs alone and not on the host's speed
    attempted = len(per_op)
    failed = sum(any(o.failure is not None for o in runs) for runs in per_op)
    for op, runs in zip(ops, per_op):
        status = "ok" if runs[0].failure is None else "failed"
        print(f"outcome {op.command} {op.input.replace(' ', '_')} {status}")
    for op, runs in zip(ops, per_op):
        if runs[0].failure is not None:
            print(f"failure {workload} | {op.command} {op.input} | {runs[0].failure}")
    print(f"metric failed_frac {failed / attempted!r} fraction")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    # program failures (refusals, tracebacks, outputs failing their check)
    # are counted in `failed`; `correct` says every outcome was reproducible
    return {"correct": not any(o.unstable for runs in per_op for o in runs),
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in shown}}


def traced_run(cli, tracing, ops, workload: str) -> dict:
    """One untraced and one traced pass over the same ops; the per-layer
    metrics come from the traced pass, the overhead from the difference."""
    firsts: Dict[int, tuple] = {}
    plain = run_pass(cli, ops, firsts)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(cli, ops, firsts)
    finally:
        tracer.remove()
    WORK.mkdir(exist_ok=True)
    tracer.save(WORK / f"trace-{workload}.npz")

    metrics = {k: (v, "s" if k.endswith((".s", "_s")) else "count")
               for k, v in tracer.layer_metrics().items()}
    metrics["io_json.report_bytes"] = (
        sum(op.output.stat().st_size for op in ops
            if op.output and op.command in ("verify", "curvature") and op.output.exists()),
        "byte")
    metrics["trace.overhead_s"] = (sum(o.seconds for o in traced) - sum(o.seconds for o in plain), "s")
    metrics["trace.spans"] = (len(tracer.start), "count")
    result = report(ops, [[a, b] for a, b in zip(plain, traced)], workload, metrics, metrics)
    same = all((a.failure is None) == (b.failure is None) for a, b in zip(plain, traced))
    if not same:
        print("error: traced and untraced passes differ in outcome", file=sys.stderr)
    result["correct"] = result["correct"] and same
    return result


if __name__ == "__main__":
    sys.exit(main())
