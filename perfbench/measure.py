"""Untraced timing of one workload: repeats, phase marks, robust statistics.

A *full repeat* runs the whole workload once on fresh state: set-up,
the engine loop, finalize and (churn-trace) the audit replay.  Each
full repeat of a run has its own program seed (:func:`plan`), because
the work itself varies from seed to seed by about as much as the host
noise does.  A *set-up repeat* stops at the entry of ``SoAWorld.run``.
A boundary probe on ``SoAWorld.run``, installed as a class-attribute
wrapper for the duration of a measurement, timestamps where set-up
ends and where the engine loop starts and ends; it changes no result.

Other tenants of the host slow this process down by up to ~2x for
seconds at a time, on the same core it runs on.  :class:`CalibratedClock`
therefore times a fixed reference loop every few milliseconds, in the
same thread, and expresses each interval in *reference seconds*: its
host seconds scaled by how fast the reference loop ran during it.
What the scaling leaves over errs both ways, so every time is reported
as the median of its samples: the engine loop and the whole invocation
over the full repeats, set-up over more samples (set-up repeats too).
"""

from __future__ import annotations

import gc
import random
import resource
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable, ContextManager, Dict, Iterator, List, Optional, Tuple,
)

from repro.experiments.runner import run_scenario
from repro.network.world_soa import SoAWorld
from repro.trace.audit import replay_trace

from perfbench.checks import check_run, digest_of
from perfbench.workloads import SCHEME, Workload

#: Set-up samples taken per measurement (full repeats included).
SETUP_SAMPLES = 9

#: Program seeds of one run are ``--seed + SEED_STRIDE * i``.
SEED_STRIDE = 10_000

#: The reference loop makes REFERENCE_READS random reads from a list of
#: REFERENCE_ENTRIES Python ints (about 5 MB with the int objects) and
#: REFERENCE_STEPS multiply-adds that stay in L1.  Contention slows the
#: simulator through both: on same-seed repeats, scaling by the reads
#: alone halved the spread of paper-500 but over-corrected scale-10k,
#: and the arithmetic alone suited scale-10k but not paper-500.
REFERENCE_ENTRIES = 1 << 17
REFERENCE_READS = 1_500
REFERENCE_STEPS = 6_000

#: The reference loop's nominal duration; it puts reference seconds
#: close to host seconds on a quiet 2-vCPU x86-64 VM (CPython 3.11).
REFERENCE_SECONDS = 0.0008

#: Wall-clock period between two reference samples.
SAMPLE_PERIOD = 0.025

#: Host time is scaled by the reference loop's speed to this power.
#: When the whole host ran about twice as fast, the loop sped up 2.2x
#: and the simulator 1.8-2.0x; with exponent 1 the medians of two sets
#: of ten runs moved by 7-17%, with 0.85 by 2-4%, while the spreads
#: within each set stayed the same.
SPEED_EXPONENT = 0.85


class RawClock:
    """Host seconds, unscaled: for runs whose times are not reported."""

    def seconds(self, start: float, end: float) -> float:
        return end - start


class CalibratedClock:
    """Host time expressed in reference seconds.

    While :meth:`running`, a ``SIGALRM`` timer interrupts the main
    thread :data:`SAMPLE_PERIOD` after each sample and times the
    reference loop there.  :meth:`seconds` drops the samples' own time
    from an interval and scales the rest by the mean speed of the
    samples taken during it (``REFERENCE_SECONDS`` over their
    duration), which is how fast the host ran this thread at the time,
    raised to :data:`SPEED_EXPONENT`.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        rng = random.Random(0)
        self._entries = [
            rng.getrandbits(40) for _ in range(REFERENCE_ENTRIES)
        ]
        self._reads = [
            rng.randrange(REFERENCE_ENTRIES) for _ in range(REFERENCE_READS)
        ]

    def reference_loop(self) -> int:
        """The fixed work whose speed tracks the host's."""
        entries = self._entries
        total = 0
        for index in self._reads:
            total += entries[index]
        for step in range(REFERENCE_STEPS):
            total += step * step
        return total

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.reference_loop()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        # Re-armed one-shot, so a sample can never interrupt another.
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD)

    @contextmanager
    def running(self) -> Iterator["CalibratedClock"]:
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the program's work in ``[start, end]``."""
        first = bisect_left(self.ends, start)
        last = bisect_right(self.starts, end)
        busy = sum(
            min(self.ends[i], end) - max(self.starts[i], start)
            for i in range(first, last)
        )
        if first == last:
            # No sample inside a short interval: use its neighbours.
            first, last = max(first - 1, 0), min(last + 1, len(self.starts))
        if first >= last:
            raise RuntimeError("no reference samples were taken")
        speeds = [
            REFERENCE_SECONDS / (self.ends[i] - self.starts[i])
            for i in range(first, last)
        ]
        speed = statistics.fmean(speeds) ** SPEED_EXPONENT
        return (end - start - busy) * speed


class SetupDone(Exception):
    """Raised at ``SoAWorld.run`` entry to end a set-up repeat."""


class Probe:
    """Phase marks of the current repeat (see the module docstring)."""

    def __init__(self) -> None:
        self.stop_at_run = False
        self.reset()

    def reset(self) -> None:
        self.run_entry: Optional[float] = None
        self.run_exit: Optional[float] = None
        self.events = 0

    @contextmanager
    def installed(self) -> Iterator["Probe"]:
        run = SoAWorld.run
        probe = self

        def probed_run(world, duration):
            probe.run_entry = time.perf_counter()
            if probe.stop_at_run:
                raise SetupDone
            try:
                return run(world, duration)
            finally:
                probe.run_exit = time.perf_counter()
                probe.events = world.engine.events_fired

        SoAWorld.run = probed_run
        try:
            yield self
        finally:
            SoAWorld.run = run


@dataclass
class Repeat:
    """One full repeat's phase durations, digest and check outcome."""

    seed: int
    setup: float
    sim: float
    wall: float
    host_wall: float
    digest: Dict[str, object]
    problems: List[str]
    trace_records: int = 0
    trace_bytes: int = 0


def trace_file(out_dir: Path, workload: Workload, seed: int) -> Path:
    return out_dir / f"{workload.name}-seed{seed}.jsonl"


def full_repeat(
    workload: Workload,
    config,
    seed: int,
    probe: Probe,
    out_dir: Path,
    pinned,
    *,
    clock=RawClock(),
    span: Callable[[str], ContextManager] = lambda name: nullcontext(),
) -> Repeat:
    """Run the workload once and check its outputs (checks are untimed).

    Durations are ``clock.seconds`` of the repeat's phase marks.

    ``span(name)`` wraps ``run_scenario`` as ``experiments.self_s`` and
    the audit replay as ``trace.audit_s``; the traced run passes
    ``Spans.span``.
    """
    path = trace_file(out_dir, workload, seed) if workload.audit else None
    probe.stop_at_run = False
    probe.reset()
    gc.collect()
    try:
        start = time.perf_counter()
        with span("experiments.self_s"):
            result = run_scenario(
                config, SCHEME, seed,
                trace_path=str(path) if path is not None else None,
            )
        audit = None
        if path is not None:
            with span("trace.audit_s"):
                audit = replay_trace(path)
        end = time.perf_counter()
        records = audit.records_read if audit is not None else 0
        size = path.stat().st_size if path is not None else 0
    finally:
        if path is not None and path.exists():
            path.unlink()
    digest = digest_of(result, probe.events)
    problems = check_run(
        workload, seed, result, digest, audit=audit, pinned=pinned
    )
    return Repeat(
        seed=seed,
        setup=clock.seconds(start, probe.run_entry),
        sim=clock.seconds(probe.run_entry, probe.run_exit),
        wall=clock.seconds(start, end),
        host_wall=end - start,
        digest=digest,
        problems=problems,
        trace_records=records,
        trace_bytes=size,
    )


def setup_repeat(
    workload: Workload, config, seed: int, probe: Probe, out_dir: Path,
    clock=RawClock(),
) -> float:
    """Time set-up alone: ``run_scenario`` entry to ``SoAWorld.run`` entry."""
    path = trace_file(out_dir, workload, seed) if workload.audit else None
    probe.stop_at_run = True
    probe.reset()
    gc.collect()
    try:
        start = time.perf_counter()
        run_scenario(
            config, SCHEME, seed,
            trace_path=str(path) if path is not None else None,
        )
    except SetupDone:
        pass
    else:
        raise RuntimeError("set-up repeat ran past SoAWorld.run")
    finally:
        probe.stop_at_run = False
        if path is not None and path.exists():
            path.unlink()
    return clock.seconds(start, probe.run_entry)


def plan(
    workload: Workload, seed: int, seconds: float
) -> List[Tuple[str, int]]:
    """The run's repeats in order, as ``(kind, program seed)`` pairs.

    ``kind`` is ``"full"`` or ``"setup"``.  The full repeats fill the
    ``--seconds`` budget (at least two), full repeat ``i`` on program
    seed ``seed + SEED_STRIDE * i``, so one run averages over inputs as
    well as over time.  Set-up repeats top the set-up samples up to
    :data:`SETUP_SAMPLES`, spread evenly after the full repeats (one
    slow phase of the host cannot cover them all) and cycling over the
    same program seeds.
    """
    full = max(2, round(seconds / workload.repeat_seconds))
    setups = max(0, SETUP_SAMPLES - full)
    order: List[Tuple[str, int]] = []
    for index in range(full):
        order.append(("full", seed + SEED_STRIDE * index))
        for k in range(setups * index // full, setups * (index + 1) // full):
            order.append(("setup", seed + SEED_STRIDE * (k % full)))
    return order


@dataclass
class Measurement:
    """Everything an untraced measurement produced."""

    repeats: List[Repeat] = field(default_factory=list)
    setups: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    attempted: int = 0

    @property
    def failed(self) -> int:
        """Full repeats that raised or failed a check."""
        return self.attempted - sum(1 for r in self.repeats if not r.problems)

    def metrics(self) -> Dict[str, float]:
        """The end-to-end metrics over the full repeats that completed."""
        return {
            "wall_s": statistics.median(r.wall for r in self.repeats),
            "setup_s": statistics.median(self.setups),
            "sim_s": statistics.median(r.sim for r in self.repeats),
            "peak_rss_mb": self.peak_rss_mb,
        }


def measure(
    workload: Workload, seed: int, seconds: float, out_dir: Path, pinned
) -> Measurement:
    """Run :func:`plan`'s repeats of one workload.

    The first full repeat runs first, so ``ru_maxrss`` read after it is
    the peak of a process that ran the workload exactly once.
    """
    config = workload.build()
    out = Measurement()
    probe = Probe()
    clock = CalibratedClock()
    with probe.installed(), clock.running():
        for kind, program_seed in plan(workload, seed, seconds):
            if kind == "setup":
                out.setups.append(setup_repeat(
                    workload, config, program_seed, probe, out_dir, clock
                ))
                continue
            out.attempted += 1
            try:
                repeat = full_repeat(
                    workload, config, program_seed, probe, out_dir, pinned,
                    clock=clock,
                )
            except Exception as exc:  # a crashed run counts as failed
                out.failures.append(f"seed {program_seed} raised {exc!r}")
                continue
            finally:
                if not out.peak_rss_mb:
                    out.peak_rss_mb = (
                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0
                    )
            out.repeats.append(repeat)
            out.setups.append(repeat.setup)
            for problem in repeat.problems:
                out.failures.append(f"seed {program_seed}: {problem}")
    return out
