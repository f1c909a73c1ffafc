"""End-to-end benchmark of the Slim Graph reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-25k --seed 1 --seconds 30 --trace 0

``--trace 0`` sets up the workload three times (``setup_s`` is the median),
then runs closed-loop ops, one client and one op at a time, for
``--seconds`` of measured time, checks every output, and prints the
end-to-end metrics.  ``--trace 1`` sets up once, alternates untraced and
traced ops, and prints the per-layer metrics instead; layers the chosen
workload never reaches are measured by a short probe of a workload that
does.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
if any op or output check failed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS/OpenMP thread per process, set before numpy loads: the pool
# workers already fill the host's two cores, and idle BLAS threads spinning
# beside them would measure the scheduler rather than the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from spans import Spans, beyond, percentile  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: The percentile reported as ``op_tail_s`` on every workload.  Higher
#: ones do not repeat: on a shared host the warm replay's p99 ranged
#: 12-36 ms over five runs while its p50 moved 17%.
TAIL_Q = 90.0
#: A run stops early once this many ops have raised.
MAX_FAILED_OPS = 20


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, first: int, *, seconds: float = 0.0, ops: int = 0,
            alternate: bool):
    """Closed-loop ops from index ``first``, until ``seconds`` of measured
    time have passed or ``ops`` ops have run.  With ``alternate`` every
    second op is traced.  Returns (latencies by traced flag, measured
    seconds, ops run, indices of ops that raised)."""
    latencies = {False: [], True: []}
    failed: set[int] = set()
    measured = 0.0
    i = first
    while (measured < seconds or i - first < ops) and len(failed) < MAX_FAILED_OPS:
        workload.ready(i)  # input generation is not measured
        traced = alternate and (i - first) % 2 == 1
        start = time.perf_counter()
        try:
            latency = workload.op(i, traced)
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            failed.add(i)
        else:
            latencies[traced].append(latency)
        measured += time.perf_counter() - start
        i += 1
    return latencies, measured, i - first, failed


def count_failures(workload, first: int, ops: int, raised: set[int]) -> tuple[int, int]:
    """(attempted, failed) over the set-up and measured ops of ``workload``."""
    problems = workload.checks(first, ops)
    for index, message in problems:
        print(f"CHECK FAILED [{workload.name} op {index}]: {message}", file=sys.stderr)
    attempted = first + ops
    return attempted, len(raised | {index for index, _ in problems})


def base_note(source: str, base: str, traced_ops: int) -> str:
    if base == "op":
        return f"{source}, mean per op over {traced_ops} traced ops"
    return f"{source}, per {base}"


def report(workload_name: str, rows: list[tuple[str, float, str, str]]) -> None:
    for name, value, unit, note in rows:
        print(f"{workload_name:<18} {name:<30} {value:>14.6g} {unit:<6} {note}")


def untraced_run(cls, args, work: Path):
    inputs = cls.make_inputs(args.seed)
    setup_times = []
    workload = None
    try:
        for k in range(SETUPS):
            if workload is not None:
                workload.close()
                workload = None
                gc.collect()  # so set-ups do not stack up in peak RSS
            workload = cls(args.seed, inputs, work / f"setup{k}", Spans(False))
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        first = workload.warmups
        latencies, measured, ops, raised = measure(
            workload, first, seconds=args.seconds, ops=1, alternate=False
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed = count_failures(workload, first, ops, raised)
        lat = latencies[False]
        if not lat:
            raise RuntimeError("no op completed")
        metrics = {
            "setup_s": (sorted(setup_times)[SETUPS // 2], "s", "median of set-ups "
                        + ", ".join(f"{t:.3f}" for t in setup_times)),
            "op_p50_s": (percentile(lat, 50), "s", f"{len(lat)} ops"),
            "op_tail_s": (percentile(lat, TAIL_Q), "s", f"p{TAIL_Q:g} of {len(lat)} "
                          f"ops, {beyond(lat, TAIL_Q)} beyond"),
            "ops_per_s": (ops / measured, "1/s", f"{ops} ops in {measured:.2f} s"),
            "peak_rss_mb": (peak_rss_mb, "MB",
                            "benchmark process, pool workers excluded"),
            "kept_edge_ratio": (workload.kept_edge_ratio(), "ratio",
                                "compressed / original edges"),
        }
        rows = [(name, *row) for name, row in metrics.items()]
        rows.append(("failed_ratio", failed / attempted, "ratio",
                     f"{failed} of {attempted} ops"))
        if hasattr(workload, "rebuilds"):
            rows.append(("spanner_rebuilds", workload.rebuilds(), "count",
                         f"full rebuilds in {ops} measured ops"))
        report(cls.name, rows)
        return attempted, failed, {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        }
    finally:
        if workload is not None:
            workload.close()


def traced_run(cls, args, work: Path):
    from workloads import WORKLOADS

    spans = {cls.name: Spans(True)}
    workload = cls(args.seed, cls.make_inputs(args.seed), work / cls.name,
                   spans[cls.name])
    attempted = failed = 0
    rows = []
    values: dict[str, float] = {}
    units: dict[str, str] = {}
    try:
        workload.setup()
        first = workload.warmups
        latencies, _, ops, raised = measure(
            workload, first, seconds=args.seconds, ops=2, alternate=True
        )
        a, f = count_failures(workload, first, ops, raised)
        attempted, failed = attempted + a, failed + f
        for name, value in workload.layers().items():
            values[name] = value
            units[name], base = cls.LAYERS[name]
            rows.append((name, value, units[name],
                         base_note(cls.name, base, len(latencies[True]))))
        untraced, traced = latencies[False], latencies[True]
        ratio = percentile(traced, 50) / percentile(untraced, 50)
        values["obs.trace_overhead_ratio"] = ratio
        units["obs.trace_overhead_ratio"] = "ratio"
        rows.append(("obs.trace_overhead_ratio", ratio, "ratio",
                     f"traced / untraced op_p50_s, "
                     f"{len(traced)} vs {len(untraced)} ops"))
    finally:
        workload.close()
    for other in WORKLOADS.values():
        missing = [name for name in other.LAYERS if name not in values]
        if not missing:
            continue
        spans[other.name] = Spans(True)
        probe = other(args.seed, other.make_inputs(args.seed), work / other.name,
                      spans[other.name])
        try:
            probe.setup()
            _, _, ops, raised = measure(
                probe, probe.warmups, ops=other.probe_ops, alternate=True
            )
            a, f = count_failures(probe, probe.warmups, ops, raised)
            attempted, failed = attempted + a, failed + f
            probe_values = probe.layers()
        finally:
            probe.close()
        for name in missing:
            values[name] = probe_values[name]
            units[name], base = other.LAYERS[name]
            rows.append((name, probe_values[name], units[name],
                         base_note(f"probe of {other.name}", base, ops // 2)))
    report(cls.name, rows)
    out = ROOT / "perfbench" / ".traces" / f"{cls.name}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({name: s.records for name, s in spans.items()}))
    print(f"spans written to {out.relative_to(ROOT)}")
    return attempted, failed, {
        name: {"value": values[name], "unit": units[name]} for name in values
    }


def stop_resource_tracker() -> None:
    """Stop and reap the helper process that multiprocessing starts for the
    pool's shared-memory segments, so no process outlives the benchmark."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # Everything the program writes (store, ledger, temp files) stays in
    # the checkout and is removed at exit.
    work = ROOT / "perfbench" / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    try:
        run = traced_run if args.trace else untraced_run
        attempted, failed, metrics = run(cls, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        stop_resource_tracker()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
