"""The struct-of-arrays world core.

:class:`SoAWorld` is a drop-in :class:`~repro.network.world.World`
replacement whose per-node scalar state — energy, battery, token-balance
and reputation mirrors, region ids — lives in one contiguous
:class:`~repro.network.world_state.WorldState` instead of scattered
Python dicts, and whose contact trace is loaded as **per-scan-tick
batches**: one heap event per ``(time, up/down)`` tick instead of one
per pair.  At 10k nodes that turns ~750k contact heap events into a few
hundred batch events, which is where the throughput headroom for
million-node runs comes from (ROADMAP item 1).

Equivalence contract
--------------------
The SoA core must be **bit-identical** to the object core — same
contact sequence, same deliveries, same final token balances, same
energy floats.  The differential harness
(``tests/test_world_soa_differential.py``) enforces it.  The load-
bearing arguments:

* **Batch order.** ``ContactTrace.events()`` yields events sorted by
  ``(time, down-before-up, pair)``, so all same-time same-kind events
  are consecutive.  The object core schedules them individually at
  priority 0 (down) / 1 (up); at equal time, priority dominates and
  within priority the load-time sequence (== trace order) decides.  A
  single batch event per ``(time, kind)`` at the same priority firing
  its pairs in trace order is therefore the exact same interleaving —
  runtime-scheduled events (transfers, TTL sweeps, churn re-arms)
  always carry larger sequences than every load-time event and so
  never split a same-``(time, priority)`` run of loaded events.
* **RNG order.** Behaviour draws (``contact_enabled``) happen inside
  the per-pair ``_contact_up`` in endpoint order; batches invoke the
  same method per pair in the same order, so the behaviour stream is
  consumed identically.  Admission checks are deliberately *not*
  vectorised for this reason.
* **Float order.** Energy and battery updates stay one scalar
  operation per (node, transfer) in event order — the arrays change
  the storage, not the arithmetic (see
  :mod:`repro.network.world_state`).

Transfers remain individually scheduled events: their firing times are
data-dependent (message size / link speed), so they do not pile up on
scan ticks; their *settlement* (energy, battery) is what writes through
the arrays.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.faults import FaultConfig
from repro.messages.message import Message
from repro.metrics.collector import MetricsCollector
from repro.mobility.trace import ContactTrace
from repro.network.energy import EnergyModel
from repro.network.link import Link
from repro.network.node import Node
from repro.network.world import World
from repro.network.world_state import WorldState
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams
from repro.trace.recorder import TraceRecorder

__all__ = ["SoAWorld"]


class SoAWorld(World):
    """A :class:`World` backed by a :class:`WorldState` array core.

    Accepts exactly the :class:`World` constructor arguments.  Every
    node is bound to a :class:`~repro.network.world_state.NodeStateView`
    over its array slot (``node.state``), the energy model writes
    through ``WorldState.energy``, and batteries live in
    ``WorldState.battery`` instead of a dict.
    """

    def __init__(
        self,
        engine: Engine,
        nodes: Sequence[Node],
        router: "Router",
        *,
        link_speed: float = 250_000.0,
        streams: Optional[RandomStreams] = None,
        metrics: Optional[MetricsCollector] = None,
        energy: Optional[EnergyModel] = None,
        ttl: Optional[float] = None,
        ttl_check_interval: float = 300.0,
        nominal_distance: float = 100.0,
        battery_capacity: Optional[float] = None,
        resume_partial_transfers: bool = False,
        faults: Optional[FaultConfig] = None,
        trace: Optional[TraceRecorder] = None,
        population=None,
    ):
        node_list = list(nodes)
        # The array core must exist before the parent constructor runs:
        # ``router.bind(self)`` fires inside it, and a router is allowed
        # to inspect per-node state at bind time.  A heterogeneous
        # population threads its per-node arrays straight into the
        # state; node ids are the runner's dense 0..n-1 range there, so
        # slot order == node-id order and the arrays line up.
        hetero = population is not None and population.heterogeneous
        state_battery = battery_capacity
        if hetero:
            pop_caps = population.battery_capacities
            if pop_caps is not None:
                state_battery = pop_caps
        self.state = WorldState(
            [node.node_id for node in node_list],
            battery_capacity=state_battery,
            class_id=population.class_id if hetero else None,
            radius=population.radii if hetero else None,
            link_speed=population.link_speeds if hetero else None,
            buffer_capacity=population.buffer_capacities if hetero else None,
        )
        for node in node_list:
            node.bind_state(self.state.view(node.node_id))
        self._build_interest_matrix(node_list)
        super().__init__(
            engine, node_list, router,
            link_speed=link_speed, streams=streams, metrics=metrics,
            energy=energy, ttl=ttl, ttl_check_interval=ttl_check_interval,
            nominal_distance=nominal_distance,
            battery_capacity=battery_capacity,
            resume_partial_transfers=resume_partial_transfers,
            faults=faults, trace=trace, population=population,
        )
        # The parent built a battery dict; the array is the store here.
        self._battery = {}
        self.energy.bind_state(self.state)

    def _build_interest_matrix(self, nodes: Sequence[Node]) -> None:
        """Dense (n, keywords) interest incidence for fast fan-out.

        Columns cover the union of node interests in sorted order;
        message keywords outside the union interest nobody and simply
        contribute no column — the same answer the object core's
        per-node ``is_interested_in`` loop gives.
        """
        keywords = sorted({kw for node in nodes for kw in node.interests})
        self._interest_columns: Dict[str, int] = {
            kw: col for col, kw in enumerate(keywords)
        }
        matrix = np.zeros((len(nodes), len(keywords)), dtype=bool)
        for node in nodes:
            slot = self.state.slot_of(node.node_id)
            for kw in node.interests:
                matrix[slot, self._interest_columns[kw]] = True
        self._interest_matrix = matrix

    # ------------------------------------------------------------------
    # Batched contact loading
    # ------------------------------------------------------------------
    def load_contact_trace(self, trace: ContactTrace) -> None:
        """Schedule the trace as one batch event per ``(time, kind)``.

        See the module docstring for why this fires in exactly the
        object core's order.
        """
        run_up = self._run_up_batch
        run_down = self._run_down_batch

        def batches():
            current: Optional[Tuple[float, str]] = None
            pairs: List[Tuple[int, int]] = []
            for time, kind, pair in trace.events():
                if (time, kind) != current:
                    if current is not None:
                        yield current, pairs
                    current = (time, kind)
                    pairs = []
                pairs.append(pair)
            if current is not None:
                yield current, pairs

        self.engine.schedule_many(
            (
                time,
                (lambda b=batch: run_up(b)),
                1,
                "contact-up-batch",
            )
            if kind == "up"
            else (
                time,
                (lambda b=batch: run_down(b)),
                0,
                "contact-down-batch",
            )
            for (time, kind), batch in batches()
        )

    # ------------------------------------------------------------------
    # Batched tick execution
    # ------------------------------------------------------------------
    def _run_up_batch(self, batch: List[Tuple[int, int]]) -> None:
        """One contact-up tick: admit, batch-prepare, open.

        With a batching router this splits the per-pair handler into
        three phases — (1) admission for every pair in trace order
        (consuming the behaviour RNG stream exactly as the per-pair
        loop does: admission outcomes cannot be changed by earlier
        pairs' exchanges, whose transfers settle at strictly later
        events), (2) one ``prepare_contact_batch``, which runs every
        decay side of the tick in occurrence rounds and precomputes
        the buffer selections of the selection-safe pairs, then (3)
        the open/trace/exchange half per admitted pair in order.  A
        pair admitted earlier in the batch suppresses later duplicates
        before their RNG draws — the same skip the live-link check
        performs per-pair.  Without a batching router this is the
        plain per-pair loop.
        """
        router = self.router
        if not router.supports_contact_batching:
            contact_up = self._contact_up
            for pair in batch:
                contact_up(pair)
            return
        admit = self._admit_contact
        admitted: List[Tuple[int, int]] = []
        admitted_set: Set[Tuple[int, int]] = set()
        for pair in batch:
            if pair in admitted_set:
                continue
            if admit(pair):
                admitted.append(pair)
                admitted_set.add(pair)
        if not admitted:
            return
        router.prepare_contact_batch(admitted)
        open_contact = self._open_contact
        for pair in admitted:
            open_contact(pair)

    def _run_down_batch(self, batch: List[Tuple[int, int]]) -> None:
        """One contact-down tick: close in order, batch the growths.

        Every live pair is popped, closed and traced at its per-pair
        point (aborting in-flight transfers exactly as before).  The
        router's ``on_contact_end`` — the ChitChat growth phase — is
        deferred for *every* closed pair to one ``contact_end_batch``
        call in close order: close/abort handling never reads interest
        tables, so nothing between a growth's legacy point and the end
        of the batch observes it, and the router reconstructs each
        node's own growth order exactly via round decomposition (see
        ``ChitChatRouter.contact_end_batch``).
        """
        router = self.router
        if not router.supports_contact_batching:
            contact_down = self._contact_down
            for pair in batch:
                contact_down(pair)
            return
        close = self._close_contact
        deferred: List["Link"] = []
        for pair in batch:
            link = close(pair)
            if link is None:
                continue
            deferred.append(link)
        if deferred:
            router.contact_end_batch(deferred)

    # ------------------------------------------------------------------
    # Array-backed batteries
    # ------------------------------------------------------------------
    def battery_level(self, node_id: int) -> Optional[float]:
        """Remaining battery in joules (None when batteries are off)."""
        if self.state.battery is None:
            return None
        return float(self.state.battery[self.state.slot_of(node_id)])

    def _battery_dead(self, node_id: int) -> bool:
        if self.state.battery is None:
            return False
        return bool(
            self.state.battery[self.state.slot_of(node_id)] <= 0.0
        )

    def _drain_battery(self, node_id: int, joules: float) -> None:
        battery = self.state.battery
        if battery is None:
            return
        slot = self.state.slot_of(node_id)
        # Same scalar float sequence as the dict path:
        # max(0.0, before - joules).
        before = float(battery[slot])
        battery[slot] = max(0.0, before - joules)
        if (
            self.faults is not None
            and before > 0.0
            and battery[slot] <= 0.0
        ):
            self._battery_blackout(node_id)

    def _recharge(self, now: float) -> None:
        if self.state.battery is None or self.faults is None:
            return
        # Element-wise min(capacity, battery + amount): identical floats
        # to the object core's per-node loop.  Heterogeneous populations
        # recharge with a per-node amount array (slot order == node-id
        # order); np.minimum broadcasts both forms the same way.
        amount = self.faults.config.recharge_amount
        if self.population is not None:
            amount = self.population.recharge_amounts(amount)
        self.state.recharge(amount)

    # ------------------------------------------------------------------
    # Vectorised interest fan-out
    # ------------------------------------------------------------------
    def _intended_destinations(self, message: Message) -> Set[int]:
        cols = [
            self._interest_columns[kw]
            for kw in message.keywords
            if kw in self._interest_columns
        ]
        if not cols:
            return set()
        mask = self._interest_matrix[:, cols].any(axis=1)
        source_slot = self.state.slot_of(message.source)
        mask[source_slot] = False
        return set(self.state.node_ids[mask].tolist())

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, duration: float) -> MetricsCollector:
        """Run for ``duration`` seconds, then refresh the balance mirror.

        The token ledger stays the transactional source of truth; the
        refresh only mirrors final balances into ``state.balance`` for
        whole-population analytics.  The O(n^2) reputation mirror is
        *not* refreshed here — call ``state.refresh_economics`` with
        ``include_reputation=True`` explicitly when needed.
        """
        metrics = super().run(duration)
        self.state.refresh_economics(self.router, include_reputation=False)
        return metrics


# Imported late to avoid a circular reference in type checking (same
# pattern as repro.network.world).
from repro.routing.base import Router  # noqa: E402  (documentation import)
