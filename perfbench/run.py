"""The repo benchmark: four closed-loop workloads, one command.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--out FILE]
    python3 perfbench/run.py --smoke

The first form is what ``BENCHMARK.json`` declares: one workload, and
as the last line of standard output one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  The second runs all four workloads both ways, prints
every metric by name with its unit and writes them to a results file
``perfbench/compare.py`` reads.  ``--smoke`` is the second form shrunk
to three operations per workload in this process (the tier-1 test).

A run is made of *rounds*.  Each round is a fresh child process, run
one at a time, that imports the program, sets the workload up, warms
it, and then times operations one after another until its share of
``--seconds`` is spent.  Untraced runs take three rounds, and set-up
time, peak memory and throughput are each the median of the three
rounds' own values, so one round that met a busy host moves nothing;
operation times are read as ``quiet`` describes.
A traced run takes one untraced and one traced round, and the
difference between the two is the tracing overhead.  See
``perfbench/README.md`` for every definition.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # Run as a script, sys.path[0] is perfbench/ itself, where trace.py
    # would shadow the standard library's ``trace``.
    sys.path[0] = str(ROOT)
if str(ROOT / "src") not in sys.path:
    sys.path.insert(1, str(ROOT / "src"))

from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, CheckFailed  # noqa: E402

ROUNDS = 3  # child processes of an untraced run
COUNT_OPS = 10  # leading measured ops every round runs: the exact-count window
KEEP_OPS = 3  # leading measured ops whose raw spans go into the trace file
SMOKE_OPS = 3
ROUND_TIMEOUT_S = 55
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: (name, unit, better, bound): the bound is the share of the parent
#: commit's median by which the metric may worsen (BENCHMARK.json).
#: Timings sit at the contract's ceiling because on the 2-core VM this
#: was sized on identical runs differ by up to 10 % on a busy day, and
#: the whole VM runs 20-60 % slower for minutes at a time
#: (perfbench/README.md has the runs).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

_clock = time.perf_counter


# ----------------------------------------------------------------------
# One round: set up, warm up, time operations
# ----------------------------------------------------------------------
def measure_round(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    smoke: bool,
    started: float,
    out_dir: Path,
) -> Dict[str, Any]:
    """Run one round of workload ``name`` in this process.

    Set-up runs from the start of the round's process to its first
    timed operation and is read as the user-mode CPU time the process
    has used by then; the wall time since ``started``, when the process
    was spawned, is kept beside it (see ``setup_s`` in the README for
    why that one cannot be gated on).  A traced round writes
    ``trace-<workload>.json`` into ``out_dir``.
    """
    begin = _clock()
    workload = WORKLOADS[name](seed, smoke)
    for module in workload.modules:
        importlib.import_module(module)
    imports_ms = 1e3 * (_clock() - begin)

    tracer: Optional[Tracer] = None
    min_ops = SMOKE_OPS if smoke else COUNT_OPS
    warmup = 0 if smoke else workload.warmup
    durations: List[float] = []
    fingerprints: List[Optional[str]] = []
    facts: Dict[int, Dict[str, float]] = {}
    errors: List[str] = []
    attempted = 0

    def operate(i: int) -> None:
        """Operation ``i`` of the round; the first ``warmup`` are not
        measured (their measured index ``op`` is negative)."""
        nonlocal attempted
        attempted += 1
        fingerprints.append(None)
        op = i - warmup
        if tracer is not None:
            tracer.begin_op(op, keep=0 <= op < KEEP_OPS)
        start = _clock()
        try:
            out = workload.run(i)
        except Exception as exc:  # an operation that raises has failed
            if tracer is not None:
                tracer.abort_op()
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            return
        end = _clock()
        if tracer is not None:
            tracer.end_op(start, end)
        try:
            fingerprints[-1], found = workload.check(i, out)
        except CheckFailed as exc:
            errors.append(f"op {i}: {exc}")
            return
        if op >= 0:
            facts[op] = found
            durations.append(end - start)

    if traced:
        layers = importlib.import_module("perfbench.layers")
        tracer = Tracer()
        tracer.install(layers.TARGETS)
    try:
        workload.setup()
        for i in range(warmup):
            operate(i)
        setup_wall_s = time.time() - started
        setup_s = resource.getrusage(resource.RUSAGE_SELF).ru_utime
        deadline = _clock() + seconds
        i = warmup
        while i < warmup + min_ops or _clock() < deadline:
            operate(i)
            i += 1
        extras = workload.extras() if traced else {}
    finally:
        if tracer is not None:
            tracer.uninstall()

    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "durations_ms": [1e3 * d for d in durations],
        "items_per_op": workload.items_per_op,
        "fingerprints": fingerprints,
        "attempted": attempted,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "host": host_facts(),
    }
    if tracer is not None:
        good = sorted(facts)
        window = [op for op in good if op < min_ops]
        for op in window:
            want = facts[op].get("cache_lookups")
            if want is not None and want != layers.top_cache_keys(tracer, op):
                errors.append(
                    f"op {warmup + op}: traced cache keys != "
                    f"report hits + misses ({want})"
                )
        per_layer = layers.derive(
            tracer, good, window, facts, workload.max_batch_size
        )
        per_layer.update(extras)
        per_layer["setup.imports_ms"] = imports_ms
        result["per_layer"] = per_layer
        result["trace_missing"] = tracer.missing
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(
            str(out_dir / f"trace-{name}.json"),
            workload=name,
            seed=seed,
            measured_ops=len(good),
        )
    return result


def host_facts() -> Dict[str, Any]:
    numpy = sys.modules.get("numpy")
    return {
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpus": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else None,
    }


def pin_cpus() -> None:
    """Keep this round on as many CPUs as it has BLAS threads, the last
    of those it may use.  A round is one interpreter thread plus that
    pool, so nothing is taken from it; what it loses is being moved
    between cores in mid-operation, which on the shared 2-core host
    this was sized on widened the spread of ``train_sptt_sim``'s p90
    between identical runs from 8 % to 13 %."""
    if hasattr(os, "sched_setaffinity"):
        threads = int(os.environ.get(THREAD_VARS[0]) or 1)
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-threads:])


def spawn_round(
    name: str, seed: int, seconds: float, traced: bool, out_dir: Path
) -> Dict[str, Any]:
    """One round in a fresh child process.

    BLAS/OMP threads are pinned to ``nproc - 1`` (at least 1, never
    more than the caller's own setting): a BLAS worker that spin-waits
    on the core the interpreter needs made set-up time bimodal (2 s or
    5 s) and tails fatter on the 2-core box this was sized on.
    """
    env = dict(os.environ)
    spare = max(1, (os.cpu_count() or 1) - 1)
    for var in THREAD_VARS:
        env[var] = str(min(int(env.get(var) or spare), spare))
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--round",
        "--workload", name,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", str(int(traced)),
        "--out", str(out_dir / "results.json"),
        "--started", repr(time.time()),
    ]
    # run() kills and reaps the child if the timeout fires.
    done = subprocess.run(
        command,
        env=env,
        cwd=str(ROOT),
        stdout=subprocess.PIPE,
        timeout=ROUND_TIMEOUT_S,
        check=True,
        text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Rounds -> metrics
# ----------------------------------------------------------------------
BLOCK_OPS = 10


def p90(values: Sequence[float]) -> float:
    """90th percentile, linearly interpolated (numpy's default)."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def quiet(rounds: Sequence[Sequence[float]], stat) -> float:
    """An operation-time statistic of the program, not of the host:
    every round's operations are cut into blocks of ``BLOCK_OPS``
    consecutive ones, ``stat`` is taken of each block, and the run
    reports the lower quartile of those.

    A shared host slows a run in stretches of seconds.  The p90 of a
    whole round sits inside such a stretch as soon as it covers a tenth
    of the round, and then measures the neighbours; a block lies inside
    a stretch or outside it, and the lower quartile is taken from those
    outside.  Slow operations the program makes itself - a collection
    pause, a rebuild every few steps - recur in every block and stay in
    the number.  The README has the spreads both ways.
    """
    values = [
        stat(times[i:i + BLOCK_OPS])
        for times in rounds
        for i in range(0, max(1, len(times) - BLOCK_OPS + 1), BLOCK_OPS)
    ]
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


#: Read off each round, and the run reports the median of its rounds.
PER_ROUND = {
    "setup_s": lambda r: r["setup_s"],
    "items_per_s": lambda r: 1e3 * r["items_per_op"] * len(r["durations_ms"])
    / sum(r["durations_ms"]),
    "peak_rss_mb": lambda r: r["peak_rss_mb"],
}
#: Read off blocks of consecutive operations, as ``quiet`` describes.
PER_BLOCK = {"op_ms_p50": statistics.median, "op_ms_p90": p90}


def summarise(rounds: Sequence[Dict[str, Any]], exact_ops: int) -> Dict[str, Any]:
    """Fold the rounds of one run into its metrics and verdict.

    Fingerprints must agree between rounds operation by operation (on
    the prefix all rounds reached); each disagreement is a failure.
    ``exact_ops`` operations from the start (warm-up plus the count
    window, which every round runs) make the run's own fingerprint.
    """
    untraced = [r for r in rounds if not r["traced"]]
    pooled = [d for r in untraced for d in r["durations_ms"]]
    errors = [e for r in rounds for e in r["errors"]]
    prints = [r["fingerprints"] for r in rounds]
    for i in range(min(len(p) for p in prints)):
        if len({p[i] for p in prints}) > 1:
            errors.append(f"op {i}: fingerprint differs between rounds")
    end_to_end: Dict[str, float] = {}
    timed = [r for r in untraced if len(r["durations_ms"]) > 1]
    if timed:
        end_to_end = {
            name: statistics.median(PER_ROUND[name](r) for r in timed)
            if name in PER_ROUND
            else quiet([r["durations_ms"] for r in timed], PER_BLOCK[name])
            for name, *_ in END_TO_END
        }
    out: Dict[str, Any] = {
        "end_to_end": end_to_end,
        "samples": len(pooled),
        "setup_wall_s": statistics.median(r["setup_wall_s"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": len(errors),
        "errors": errors[:10],
        "fingerprint": hashlib.sha1(
            repr(prints[0][:exact_ops]).encode()
        ).hexdigest()[:16],
        "host": rounds[0]["host"],
    }
    traced = [r for r in rounds if r["traced"]]
    if traced:
        per_layer = dict(traced[0]["per_layer"])
        slow = traced[0]["durations_ms"]
        if slow and pooled:
            base = statistics.median(pooled)
            per_layer["trace.overhead_share"] = (
                statistics.median(slow) - base
            ) / base
        out["per_layer"] = per_layer
        out["trace_missing"] = traced[0]["trace_missing"]
    return out


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    smoke: bool = False,
) -> Dict[str, Any]:
    """All rounds of one run of one workload, summarised."""
    plan = [False, True] if trace else [False] * (1 if smoke else ROUNDS)
    if smoke:
        rounds = [
            measure_round(name, seed, 0.0, traced, True, time.time(), out_dir)
            for traced in plan
        ]
    else:
        rounds = [
            spawn_round(name, seed, seconds / len(plan), traced, out_dir)
            for traced in plan
        ]
    window = SMOKE_OPS if smoke else WORKLOADS[name].warmup + COUNT_OPS
    return summarise(rounds, window)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def per_layer_table():
    # Imported late: perfbench.layers pulls in numpy, which a round
    # must not load before it starts timing the program's imports.
    return importlib.import_module("perfbench.layers").PER_LAYER


def contract_line(summary: Dict[str, Any], trace: bool) -> str:
    """The one-line result ``BENCHMARK.json`` promises the driver."""
    if trace:
        values = summary["per_layer"]
        # A metric whose traced target is gone is null in the results
        # file; here it must be a number, and no calls were recorded.
        metrics = {
            name: {"value": values[name] or 0.0, "unit": unit}
            for name, unit, _, _ in per_layer_table()
        }
    else:
        values = summary["end_to_end"]
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in END_TO_END
        }
    return json.dumps(
        {
            "correct": summary["failed"] == 0,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": metrics,
        }
    )


def print_metrics(name: str, summary: Dict[str, Any]) -> None:
    print(f"== {name}  ({summary['samples']} timed ops, "
          f"{summary['failed']} failed of {summary['attempted']}, "
          f"set-up {summary['setup_wall_s']:.2f} s on the wall)")
    rows = [(n, u, summary["end_to_end"].get(n)) for n, u, _, _ in END_TO_END]
    if "per_layer" in summary:
        rows += [
            (n, u, summary["per_layer"].get(n))
            for n, u, _, _ in per_layer_table()
        ]
    for metric, unit, value in rows:
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {metric:<34}{shown:>14} {unit}")
    for missing in summary.get("trace_missing", ()):
        print(f"  trace_missing: {missing}")
    for error in summary["errors"]:
        print(f"  FAILED {error}")


def run_all(
    seed: int, seconds: float, smoke: bool, out_dir: Path
) -> Dict[str, Any]:
    """Every workload, untraced and traced; returns the results doc."""
    results: Dict[str, Any] = {"seed": seed, "seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        plain = run_workload(name, seed, seconds, False, out_dir, smoke)
        traced = run_workload(name, seed, seconds, True, out_dir, smoke)
        merged = dict(plain)
        merged["per_layer"] = traced["per_layer"]
        merged["trace_missing"] = traced["trace_missing"]
        merged["attempted"] += traced["attempted"]
        merged["failed"] += traced["failed"]
        merged["errors"] = (plain["errors"] + traced["errors"])[:10]
        if traced["fingerprint"] != plain["fingerprint"]:
            merged["failed"] += 1
            merged["errors"].append("traced and untraced fingerprints differ")
        results["workloads"][name] = merged
        print_metrics(name, merged)
    return results


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--out",
        type=Path,
        default=ROOT / "perfbench" / "out" / "results.json",
        help="results file; trace-<workload>.json files go beside it",
    )
    parser.add_argument("--round", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--started", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = float(spec["run_seconds"])

    if args.round:
        pin_cpus()
        print(json.dumps(measure_round(
            args.workload, args.seed, args.seconds, bool(args.trace),
            False, args.started, args.out.parent,
        )))
        return 0
    if args.workload and not args.smoke:
        summary = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.out.parent,
        )
        print_metrics(args.workload, summary)
        print(contract_line(summary, bool(args.trace)))
        return 0 if summary["failed"] == 0 else 1

    results = run_all(args.seed, args.seconds, args.smoke, args.out.parent)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=1))
    print(f"results written to {args.out}")
    failed = sum(w["failed"] for w in results["workloads"].values())
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
