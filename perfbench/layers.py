"""The traced run: per-layer self time and work counts.

:class:`Spans` keeps every span (metric name, start, end, parent) in
flat arrays in memory.  :func:`instrumented` wraps the public entry
point of each layer (the ``repro`` packages) with a class- or
module-attribute wrapper for the duration of one run and restores the
originals afterwards; nothing under ``src/`` changes.  A layer's
``*_s`` metric is its self time: span durations minus the child spans
nested in them.  Hot tiny functions get counts, not spans.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

#: Per-layer metrics a traced run reports: name -> (unit, better).
PER_LAYER = {
    "mobility.detect_s": ("s", "lower"),
    "mobility.contacts": ("count", "lower"),
    "population.build_s": ("s", "lower"),
    "network.load_trace_s": ("s", "lower"),
    "network.contact_s": ("s", "lower"),
    "network.link_send_calls": ("count", "lower"),
    "network.link_close_calls": ("count", "lower"),
    "sim.events": ("count", "lower"),
    "sim.self_s": ("s", "lower"),
    "experiments.self_s": ("s", "lower"),
    "routing.prepare_batch_s": ("s", "lower"),
    "routing.decay_seq_s": ("s", "lower"),
    "routing.decay_seq_calls": ("count", "lower"),
    "routing.decay_batch_rows": ("count", "higher"),
    "routing.growth_s": ("s", "lower"),
    "routing.select_s": ("s", "lower"),
    "routing.select_calls": ("count", "lower"),
    "incentive.receive_s": ("s", "lower"),
    "incentive.promise_calls": ("count", "lower"),
    "ledger.escrow_calls": ("count", "lower"),
    "ledger.capture_calls": ("count", "lower"),
    "ledger.release_calls": ("count", "lower"),
    "ledger.expire_s": ("s", "lower"),
    "reputation.gossip_s": ("s", "lower"),
    "reputation.exchanges": ("count", "lower"),
    "trace.emit_s": ("s", "lower"),
    "trace.records": ("count", "lower"),
    "trace.bytes": ("B", "lower"),
    "trace.audit_s": ("s", "lower"),
    "faults.verdict_calls": ("count", "lower"),
    "traced.wall_s": ("s", "lower"),
    "traced.overhead_s": ("s", "lower"),
    "traced.spans": ("count", "lower"),
}


class Spans:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack = [-1]
        self.counts: Dict[str, int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(index)

    def __len__(self) -> int:
        return len(self.starts)

    def self_times(self) -> Dict[str, float]:
        """Per name: the sum of span durations minus their children's."""
        children = [0.0] * len(self)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent] += self.ends[index] - self.starts[index]
        totals: Dict[str, float] = defaultdict(float)
        for index, name_id in enumerate(self.name_ids):
            duration = self.ends[index] - self.starts[index]
            totals[self.names[name_id]] += duration - children[index]
        return dict(totals)

    def write(self, path: Path) -> None:
        """One JSON line per span: ``[name, start, end, parent]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index in range(len(self)):
                handle.write(json.dumps([
                    self.names[self.name_ids[index]], self.starts[index],
                    self.ends[index], self.parents[index],
                ]))
                handle.write("\n")


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``span`` names the self-time metric of a span around each call;
    ``count`` names a counter raised by ``amount(args)`` (1 by default)
    on each call.  Either may be ``None``.
    """

    owner: object
    attr: str
    span: Optional[str] = None
    count: Optional[str] = None
    amount: Optional[Callable[[tuple], int]] = None


def targets() -> List[Target]:
    """The layer boundaries the traced run wraps."""
    from repro.core.incentive_layer import IncentiveLayer
    from repro.core.ledger import TokenLedger
    from repro.core.reputation import ReputationSystem
    from repro.experiments import runner
    from repro.faults import FaultInjector
    from repro.messages.keywords import KeywordUniverse
    from repro.network.link import Link
    from repro.network.world_soa import SoAWorld
    from repro.population import PopulationMap
    from repro.routing.chitchat import ChitChatRouter, InterestStore
    from repro.sim.engine import Engine
    from repro.trace.recorder import JsonlTraceRecorder

    return [
        Target(runner, "build_contact_trace", span="mobility.detect_s"),
        Target(PopulationMap, "build", span="population.build_s"),
        Target(KeywordUniverse, "sample_interests", span="population.build_s"),
        # The contacts mobility built are the ones the world loads.
        Target(
            SoAWorld, "load_contact_trace", span="network.load_trace_s",
            count="mobility.contacts", amount=lambda args: len(args[1]),
        ),
        Target(SoAWorld, "_run_up_batch", span="network.contact_s"),
        Target(SoAWorld, "_run_down_batch", span="network.contact_s"),
        Target(Link, "send", count="network.link_send_calls"),
        Target(Link, "close", count="network.link_close_calls"),
        Target(Engine, "run_until", span="sim.self_s"),
        Target(
            ChitChatRouter, "prepare_contact_batch",
            span="routing.prepare_batch_s",
        ),
        Target(
            ChitChatRouter, "run_rtsr_decay",
            span="routing.decay_seq_s", count="routing.decay_seq_calls",
        ),
        Target(
            InterestStore, "batch_decay", count="routing.decay_batch_rows",
            amount=lambda args: len(args[1]),
        ),
        Target(ChitChatRouter, "contact_end_batch", span="routing.growth_s"),
        Target(ChitChatRouter, "run_rtsr_growth", span="routing.growth_s"),
        Target(
            ChitChatRouter, "select_messages",
            span="routing.select_s", count="routing.select_calls",
        ),
        Target(
            IncentiveLayer, "on_message_received", span="incentive.receive_s"
        ),
        Target(
            IncentiveLayer, "compute_promise", count="incentive.promise_calls"
        ),
        Target(TokenLedger, "escrow", count="ledger.escrow_calls"),
        Target(TokenLedger, "capture", count="ledger.capture_calls"),
        Target(TokenLedger, "release", count="ledger.release_calls"),
        Target(TokenLedger, "expire_holds", span="ledger.expire_s"),
        Target(
            ReputationSystem, "exchange",
            span="reputation.gossip_s", count="reputation.exchanges",
        ),
        Target(
            ReputationSystem, "exchange_batch_rounds",
            span="reputation.gossip_s", count="reputation.exchanges",
            amount=lambda args: len(args[1]),
        ),
        Target(
            JsonlTraceRecorder, "emit",
            span="trace.emit_s", count="trace.records",
        ),
        Target(
            FaultInjector, "transfer_verdict", count="faults.verdict_calls"
        ),
    ]


def _wrap(fn: Callable, spans: Spans, target: Target) -> Callable:
    counts = spans.counts
    count, amount = target.count, target.amount
    if target.span is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[count] += 1 if amount is None else amount(args)
            return fn(*args, **kwargs)
        return counted

    name_id = spans.name_id(target.span)
    open_span, close_span = spans.open, spans.close

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        if count is not None:
            counts[count] += 1 if amount is None else amount(args)
        index = open_span(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            close_span(index)
    return spanned


@contextmanager
def instrumented(spans: Spans) -> Iterator[Spans]:
    """Install every :func:`targets` wrapper; restore them on exit."""
    saved = []
    try:
        for target in targets():
            raw = vars(target.owner)[target.attr]
            saved.append((target.owner, target.attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(raw.__func__, spans, target))
            else:
                wrapped = _wrap(raw, spans, target)
            setattr(target.owner, target.attr, wrapped)
        yield spans
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def layer_metrics(spans: Spans) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric the spans and counts give.

    ``sim.events``, ``trace.bytes``, ``traced.wall_s`` and
    ``traced.overhead_s`` come from the repeat itself; the caller fills
    them in.
    """
    values: Dict[str, float] = {
        name: 0.0 for name in PER_LAYER if not name.startswith("traced.")
    }
    values.update(spans.self_times())
    values.update(spans.counts)
    values["traced.spans"] = float(len(spans))
    return values


def largest_layer(values: Dict[str, float]) -> str:
    """The layer (``repro`` package) with the most self time."""
    per_layer: Dict[str, float] = defaultdict(float)
    for name, value in values.items():
        layer = name.split(".", 1)[0]
        if name.endswith("_s") and layer != "traced":
            per_layer[layer] += value
    return max(per_layer, key=per_layer.get)
