"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times untraced repeats and prints the end-to-end metrics;
``--trace 1`` runs the workload once untraced and once traced and
prints the per-layer metrics.  Human-readable report lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is non-zero, with no JSON line, when no metric could be measured (for
example when the program's sources are missing).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set before the interpreter starts: hash order, and one BLAS/OpenMP
#: thread so native kernels never contend for the second core.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: Where churn-trace writes its JSONL trace and the traced run its spans.
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_s": "s",
    "peak_rss_mb": "MB",
}


def pin_environment() -> None:
    """Re-execute this interpreter with :data:`PINNED_ENV` if not yet set."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    sys.stdout.flush()
    os.execve(
        sys.executable,
        [sys.executable, *sys.argv],
        {**os.environ, **PINNED_ENV},
    )


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _emit(correct: bool, attempted: int, failed: int, metrics, units) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))


def untraced(workload, seed: int, seconds: float, pinned) -> int:
    from perfbench.measure import measure

    result = measure(workload, seed, seconds, OUT_DIR, pinned)
    for failure in result.failures:
        print(f"FAILED {workload.name} seed {seed}: {failure}")
    if not result.repeats:
        print("no full repeat completed; nothing to report")
        return 1
    print(
        f"{workload.name} seed {seed}: {len(result.repeats)} full repeats, "
        f"{len(result.setups)} set-up samples"
    )
    for r in result.repeats:
        print(
            f"  program seed {r.seed}: wall_s {r.wall:.3f} reference s "
            f"({r.host_wall:.3f} host s), digest {r.digest}"
        )
    print("set-up samples: " + " ".join(f"{s:.3f}" for s in result.setups))
    _emit(
        not result.failures, result.attempted, result.failed,
        result.metrics(), END_TO_END,
    )
    return 0


def traced(workload, seed: int, pinned) -> int:
    from perfbench.layers import (
        PER_LAYER,
        Spans,
        instrumented,
        largest_layer,
        layer_metrics,
    )
    from perfbench.measure import CalibratedClock, Probe, full_repeat

    config = workload.build()
    probe = Probe()
    clock = CalibratedClock()
    failures = []
    # Walls (and so the overhead) are in reference seconds; span self
    # times are raw host seconds.
    with probe.installed(), clock.running():
        plain = full_repeat(
            workload, config, seed, probe, OUT_DIR, pinned, clock=clock
        )
        spans = Spans()
        with instrumented(spans):
            traced_repeat = full_repeat(
                workload, config, seed, probe, OUT_DIR, pinned,
                clock=clock, span=spans.span,
            )
    for label, repeat in (("untraced", plain), ("traced", traced_repeat)):
        failures += [f"{label}: {p}" for p in repeat.problems]
    if traced_repeat.digest != plain.digest:
        failures.append(
            f"traced digest {traced_repeat.digest} != untraced {plain.digest}"
        )
    values = layer_metrics(spans)
    values["sim.events"] = float(traced_repeat.digest["events"])
    values["trace.bytes"] = float(traced_repeat.trace_bytes)
    values["traced.wall_s"] = traced_repeat.wall
    values["traced.overhead_s"] = traced_repeat.wall - plain.wall
    spans.write(OUT_DIR / f"{workload.name}-seed{seed}.spans.jsonl")
    for failure in failures:
        print(f"FAILED {workload.name} seed {seed}: {failure}")
    print(
        f"{workload.name} seed {seed}: untraced wall_s {plain.wall:.3f}, "
        f"traced wall_s {traced_repeat.wall:.3f}, tracing overhead "
        f"{traced_repeat.wall - plain.wall:+.3f} s, largest self-time layer: "
        f"{largest_layer(values)}"
    )
    for name in PER_LAYER:
        print(f"  {name:28s} {values[name]:.6g}")
    failed = int(bool(plain.problems)) + int(
        bool(traced_repeat.problems) or traced_repeat.digest != plain.digest
    )
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    _emit(
        not failures, 2, failed,
        {name: values[name] for name in PER_LAYER}, units,
    )
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_environment()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from repro.experiments import trace_cache

    from perfbench.checks import load_digests
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    # Always time contact detection: no on-disk trace cache.
    trace_cache.set_default_cache(None)
    workload = WORKLOADS[args.workload]
    pinned = load_digests()
    OUT_DIR.mkdir(exist_ok=True)
    started = time.perf_counter()
    try:
        if args.trace:
            code = traced(workload, args.seed, pinned)
        else:
            code = untraced(workload, args.seed, args.seconds, pinned)
    finally:
        for leftover in OUT_DIR.glob("*.jsonl"):
            if not leftover.name.endswith(".spans.jsonl"):
                leftover.unlink()
    print(f"benchmark process time {time.perf_counter() - started:.1f} s",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
