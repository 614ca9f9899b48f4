#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, two clocks.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pebbles_mixed --seed 1 --seconds 36 --trace 0

``--trace 0`` repeats the workload (fresh store and input variant each
time) for about ``--seconds`` of wall time and prints every end-to-end
metric.  ``--trace 1`` runs the workload once untraced and once with
every ``src/repro`` layer wrapped (see ``layers.py``) and prints the
per-layer metrics plus the tracing overhead.

Every get, seek window, served response and the full store contents
after reopen are checked against a reference model; any mismatch sets
``correct`` to false and the command exits 1.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seed used unless ``--seed`` says otherwise.
DEFAULT_SEED = 1
#: Seed held out from tuning: a performance claim must also hold on it.
HELD_OUT_SEED = 1009
#: Repetitions (input variants) whose simulated metrics are averaged.
SIM_REPS = 4
#: Upper bound on repetitions in one untraced run.
MAX_REPS = 50

#: (name, unit) of every end-to-end metric, printed with ``--trace 0``.
#: Only metrics that stay steady across runs are gated: the simulated
#: ones (exact per seed), memory, and set-up time, which the benchmark
#: contract requires.  Wall throughput and latencies are printed but not
#: gated; see README.md, "Steadiness on a shared host".
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("sim_kops", "kops"),
    ("sim_lat_p99_us", "us"),
    ("write_amp", "x"),
    ("space_amp", "x"),
    ("read_bytes_per_op", "B/op"),
    ("peak_rss_mb", "MB"),
]


def _import_program():
    """Import ``repro`` from this checkout's ``src`` or exit 2."""
    # The benchmark writes nothing into the checkout, bytecode included.
    sys.dont_write_bytecode = True
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(repro.__file__).resolve().parent.parent != src:
        print(f"perfbench: repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(HERE))
    return repro


def _commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
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


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _pooled(reps, kind: str, q: float) -> float:
    """Percentile ``q`` of one op type's wall latency, pooled over reps."""
    from workloads import percentile

    return percentile([us for rep in reps for us in rep.wall_us[kind]], q)


def _fastest_p50(reps, kind: str) -> float:
    """The lowest per-repetition median latency of one op type.

    Other tenants of a shared host can only slow a repetition down, by
    up to 2x for minutes at a time; the fastest repetition's median is
    the steadiest estimate of what the code costs (the ``timeit``
    convention).  The pooled median is printed beside it.
    """
    from workloads import percentile

    return min(percentile(rep.wall_us[kind], 0.5) for rep in reps if rep.wall_us[kind])


def run_untraced(workload, seconds: float, out) -> Tuple[Dict, int, int]:
    # Repetitions 0..SIM_REPS-1 always run and alone give the simulated
    # metrics, so those stay exact for a seed.  Further repetitions run
    # while the next one is expected to end within ``seconds``; they add
    # wall samples only.
    reps = []
    elapsed = 0.0
    while len(reps) < SIM_REPS or (
        elapsed * (len(reps) + 1) / len(reps) <= seconds and len(reps) < MAX_REPS
    ):
        gc.collect()
        reps.append(workload.run(len(reps)))
        elapsed += reps[-1].wall_s
    sim = {
        name: statistics.fmean(rep.sim[name] for rep in reps[:SIM_REPS])
        for name in reps[0].sim
    }
    metrics = {
        "setup_s": statistics.median(s for rep in reps for s in rep.setup_s),
        **sim,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"repetitions: {len(reps)} in {elapsed:.3f} s wall", file=out)
    print("repetition wall s: " + " ".join(f"{rep.wall_s:.2f}" for rep in reps), file=out)
    # Wall throughput and latencies, printed but not gated: on a shared
    # host they move more between identical runs than any usable bound.
    # Per-op medians and reopen come from the fastest repetition, since
    # contention can only slow one down (the ``timeit`` convention).
    ops_per_s = sum(rep.ops for rep in reps) / sum(rep.measured_s for rep in reps)
    print(f"wall ops_per_s: {ops_per_s:.6g} 1/s", file=out)
    for kind in ("put", "get", "seek"):
        n = sum(len(r.wall_us[kind]) for r in reps)
        print(
            f"wall {kind}_p50_us: {_fastest_p50(reps, kind):.6g} us "
            f"(pooled p50 {_pooled(reps, kind, 0.5):.1f}, "
            f"p99 {_pooled(reps, kind, 0.99):.1f}, n={n})",
            file=out,
        )
    reopen = min(statistics.median(rep.reopen_s) for rep in reps)
    print(f"wall reopen_s: {reopen:.6g} s", file=out)
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    for rep in reps:
        for problem in rep.problems:
            print(f"MISMATCH: {problem}", file=out)
    print(f"error_rate: {failed / attempted:.6g} ({failed}/{attempted})", file=out)
    for name, unit in END_TO_END:
        print(f"{name}: {metrics[name]:.6g} {unit}", file=out)
    result = {name: _metric(metrics[name], unit) for name, unit in END_TO_END}
    return result, attempted, failed


def run_traced(workload, out) -> Tuple[Dict, int, int, bool]:
    from layers import LAYERS, LayerTracer, is_restored

    from per_layer import per_layer_metrics

    plain = workload.run()
    tracer = LayerTracer()
    queue_wait = [0.0]

    def on_submit(job) -> None:
        queue_wait[0] += job.start - job.submitted

    tracer.result_hooks["repro.sim.executor:BackgroundExecutor.submit"] = on_submit
    tracer.install()
    sites = tracer.patched_sites()
    try:
        traced = workload.run()
    finally:
        tracer.uninstall()
    restored = is_restored(sites)
    same_sim = traced.sim == plain.sim
    if not restored:
        print("perfbench: a wrapped function was not restored", file=out)
    if not same_sim:
        print(
            f"perfbench: traced sim metrics {traced.sim} != untraced {plain.sim}",
            file=out,
        )
    metrics = per_layer_metrics(tracer, traced, plain, queue_wait[0])
    print(f"wrapped sites: {len(sites)}; layers: {len(LAYERS)}", file=out)
    print(
        f"traced wall {traced.wall_s:.3f} s, untraced {plain.wall_s:.3f} s, "
        f"overhead {metrics['trace.overhead_x']['value']:.3f}x, "
        f"unattributed {metrics['trace.unattributed_s']['value']:.3f} s",
        file=out,
    )
    for layer in LAYERS:
        print(
            f"layer {layer:<20} calls={metrics[layer + '.calls']['value']:>10} "
            f"self={metrics[layer + '.self_s']['value']:9.4f} s "
            f"share={metrics[layer + '.share']['value']:.4f}",
            file=out,
        )
    for name, entry in metrics.items():
        if not name.endswith((".calls", ".self_s", ".share")):
            print(f"{name}: {entry['value']:.6g} {entry['unit']}", file=out)
    for rep in (plain, traced):
        for problem in rep.problems:
            print(f"MISMATCH: {problem}", file=out)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return metrics, attempted, failed, restored and same_sim


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiply key and op counts (tests use a small scale)",
    )
    args = parser.parse_args(argv)
    repro = _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (have {sorted(WORKLOADS)})")
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    out = sys.stdout
    envelope = {
        "commit": _commit(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "repro": repro.__version__,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "mode": "traced" if args.trace else "untraced",
        "params": workload.params(),
    }
    print("envelope: " + json.dumps(envelope, sort_keys=True), file=out)
    ok = True
    if args.trace:
        metrics, attempted, failed, ok = run_traced(workload, out)
    else:
        metrics, attempted, failed = run_untraced(workload, args.seconds, out)
    correct = ok and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        ),
        file=out,
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
