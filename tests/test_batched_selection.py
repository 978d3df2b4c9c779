"""Batched buffer selection & grouped gossip: equivalence and lifecycle.

Property tests (Hypothesis) pinning the two per-tick batched fast
paths introduced for the 10k tier to their sequential references:

* ``ChitChatRouter._preselect`` — the fused candidate-filter /
  interest-sum / classification / lexsort pass — must return, for every
  side it stores, exactly what a sequential ``select_messages`` call
  would, including the ``(-strength, uuid)`` tiebreak order.
* ``ReputationSystem.exchange_batch`` — the grouped searchsorted merge
  over all safe pairs of a tick — must leave every book bit-identical
  to pairwise ``exchange`` calls, never share storage between books
  (copy-on-write survives ``forget()``), and fall back correctly for
  negative subject ids.

Plus the regression tests for the three router-state lifecycle
bugfixes that ride along (retry-book pruning, churn-wipe memo
eviction, dark-receiver retransmission guard) — each fails on the
pre-fix code.

Exact ``==`` on floats and exact list equality throughout: the batched
forms evaluate the same IEEE expressions, so drift is a bug.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incentive import IncentiveParams
from repro.core.reputation import ReputationSystem
from repro.faults import FaultConfig
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.network.node import Node
from repro.network.world_soa import SoAWorld
from repro.routing.chitchat import ChitChatRouter
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams

from tests.helpers import make_message, make_world

KEYWORDS = [f"k{i}" for i in range(8)]
N_NODES = 6


# ----------------------------------------------------------------------
# Batched selection vs sequential select_messages
# ----------------------------------------------------------------------
@st.composite
def selection_scenarios(draw):
    """Random interests, weights, buffers, seen-sets and a pair list."""
    interests = [
        draw(st.lists(st.sampled_from(KEYWORDS), min_size=1, max_size=3,
                      unique=True))
        for _ in range(N_NODES)
    ]
    # Extra transient/direct weights poked straight into the tables, so
    # sums and classifications vary beyond the 0.5-direct seeds (ties
    # stay common — good: they exercise the uuid-rank tiebreak).
    weights = [
        {
            keyword: (
                draw(st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.7])),
                draw(st.booleans()),
            )
            for keyword in draw(st.lists(st.sampled_from(KEYWORDS),
                                         max_size=4, unique=True))
        }
        for _ in range(N_NODES)
    ]
    capacities = [
        draw(st.sampled_from([3_000, 1_000_000])) for _ in range(N_NODES)
    ]
    n_messages = draw(st.integers(min_value=0, max_value=12))
    messages = [
        (
            draw(st.integers(min_value=0, max_value=N_NODES - 1)),
            tuple(draw(st.lists(st.sampled_from(KEYWORDS), max_size=3,
                                unique=True))),
            draw(st.sampled_from([1_000, 5_000])),
        )
        for _ in range(n_messages)
    ]
    seen = [
        (
            draw(st.integers(min_value=0, max_value=N_NODES - 1)),
            draw(st.integers(min_value=0, max_value=max(n_messages - 1, 0))),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=8)))
    ]
    n_pairs = draw(st.integers(min_value=0, max_value=6))
    pairs = []
    for _ in range(n_pairs):
        a = draw(st.integers(min_value=0, max_value=N_NODES - 1))
        b = draw(st.integers(min_value=0, max_value=N_NODES - 1))
        if a != b:
            pairs.append((a, b) if a < b else (b, a))
    return interests, weights, capacities, messages, seen, pairs


def _build(interests, weights, capacities, messages, seen):
    """One SoA world + bound ChitChat router over the drawn state."""
    nodes = [
        Node(i, interests[i], buffer_capacity=capacities[i])
        for i in range(N_NODES)
    ]
    router = ChitChatRouter()
    world = SoAWorld(
        Engine(), nodes, router,
        link_speed=1_000.0, streams=RandomStreams(3),
    )
    for i in range(N_NODES):
        table = router.table(i)
        for keyword, (w, d) in weights[i].items():
            kid = table._slot(keyword)
            # Direct pokes keep version at 0 on both twins — the memo
            # caches then agree without replaying a decay history.
            table._weight[kid] = w
            table._direct[kid] = bool(d) or bool(table._direct[kid])
            table._present[kid] = True
    for index, (holder, keywords, size) in enumerate(messages):
        if size > capacities[holder]:
            continue  # the holder itself could never have buffered it
        message = make_message(
            source=holder, size=size, keywords=keywords,
            content=keywords or ("x",), uuid=f"m{index:03d}",
        )
        world.node(holder).buffer.add(message, now=0.0)
    for node_id, message_index in seen:
        if message_index < len(messages):
            world.node(node_id).seen.add(f"m{message_index:03d}")
    return world, router


@given(selection_scenarios())
@settings(max_examples=120, deadline=None)
def test_preselect_matches_sequential(scenario):
    interests, weights, capacities, messages, seen, pairs = scenario
    world_a, router_a = _build(interests, weights, capacities, messages, seen)
    world_b, router_b = _build(interests, weights, capacities, messages, seen)

    router_a.prepare_contact_batch(pairs)
    stored = dict(router_a._preselected)
    # Both directions of every pair at which both endpoints are at their
    # first side of the tick must be stored.
    appeared = set()
    for a, b in pairs:
        if a not in appeared and b not in appeared:
            assert (a, b) in stored and (b, a) in stored
        appeared.update((a, b))

    for (sender, receiver) in stored:
        batched = router_a.select_messages(sender, receiver)
        sequential = router_b.select_messages(sender, receiver)
        assert (
            [(m.uuid, role) for m, role in batched]
            == [(m.uuid, role) for m, role in sequential]
        )
    # Unsafe sides fall back to the sequential path on the batched
    # router too — results must agree there as well.
    for pair in pairs:
        for sender, receiver in (pair, pair[::-1]):
            if (sender, receiver) in stored:
                continue
            assert (
                [(m.uuid, r) for m, r in
                 router_a.select_messages(sender, receiver)]
                == [(m.uuid, r) for m, r in
                    router_b.select_messages(sender, receiver)]
            )


def test_preselect_consumed_once():
    """A popped entry is gone: the second call takes the live path."""
    interests = [["k0"], ["k1"]] + [["k2"]] * (N_NODES - 2)
    weights = [{} for _ in range(N_NODES)]
    capacities = [1_000_000] * N_NODES
    messages = [(0, ("k1",), 1_000)]
    world, router = _build(interests, weights, capacities, messages, [])
    router.prepare_contact_batch([(0, 1)])
    assert (0, 1) in router._preselected
    first = router.select_messages(0, 1)
    assert (0, 1) not in router._preselected
    assert [(m.uuid, r) for m, r in router.select_messages(0, 1)] == [
        (m.uuid, r) for m, r in first
    ]


# ----------------------------------------------------------------------
# Grouped gossip merge vs pairwise exchange
# ----------------------------------------------------------------------
@st.composite
def gossip_scenarios(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=12))
    books = []
    for _ in range(n_nodes):
        subjects = draw(st.lists(
            st.integers(min_value=0, max_value=60), max_size=8, unique=True,
        ))
        subjects.sort()
        values = [
            draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
            for _ in subjects
        ]
        books.append((subjects, values))
    order = draw(st.permutations(range(n_nodes)))
    n_pairs = draw(st.integers(min_value=0, max_value=n_nodes // 2))
    pairs = [
        (order[2 * k], order[2 * k + 1]) for k in range(n_pairs)
    ]
    negative = draw(st.booleans())
    return books, pairs, negative


def _seed_books(system, books, negative):
    for node_id, (subjects, values) in enumerate(books):
        book = system.book(node_id)
        subs = list(subjects)
        vals = list(values)
        if negative and node_id == 0 and subs:
            subs[0] = -1  # sentinel id: forces the scalar fallback
        book._subjects = np.asarray(subs, dtype=np.int64)
        book._values = np.asarray(vals, dtype=np.float64)


@given(gossip_scenarios())
@settings(max_examples=150, deadline=None)
def test_exchange_batch_matches_pairwise(scenario):
    books, pairs, negative = scenario
    params = IncentiveParams()
    sequential = ReputationSystem(params)
    batched = ReputationSystem(params)
    _seed_books(sequential, books, negative)
    _seed_books(batched, books, negative)

    for a, b in pairs:
        sequential.exchange(a, b)
    results = batched.exchange_batch(pairs)

    assert [(a, b) for a, b, _, _ in results] == pairs
    for node_id in range(len(books)):
        expected = sequential.book(node_id)
        actual = batched.book(node_id)
        assert np.array_equal(expected._subjects, actual._subjects)
        assert np.array_equal(expected._values, actual._values)

    # Copy-on-write: no two books may share storage after the grouped
    # merge (a forget() on one must never edit another).
    ids = list(range(len(books)))
    for i in ids:
        for j in ids[i + 1:]:
            left, right = batched.book(i), batched.book(j)
            if left._subjects.size and right._subjects.size:
                assert not np.shares_memory(left._subjects, right._subjects)
                assert not np.shares_memory(left._values, right._values)


def test_forget_after_batch_is_isolated():
    params = IncentiveParams()
    system = ReputationSystem(params)
    _seed_books(
        system,
        [([1, 2, 3], [1.0, 2.0, 3.0]), ([2, 4], [4.0, 1.5]),
         ([1, 5], [2.5, 0.5]), ([3, 4], [1.0, 1.0])],
        negative=False,
    )
    system.exchange_batch([(0, 1), (2, 3)])
    snapshot = {
        i: (system.book(i)._subjects.copy(), system.book(i)._values.copy())
        for i in range(4)
    }
    system.book(0).forget(2)
    for i in (1, 2, 3):
        assert np.array_equal(system.book(i)._subjects, snapshot[i][0])
        assert np.array_equal(system.book(i)._values, snapshot[i][1])


@st.composite
def overlapping_gossip_scenarios(draw):
    """Like :func:`gossip_scenarios` but with node reuse across pairs,
    so the rounds driver must actually decompose and defer."""
    n_nodes = draw(st.integers(min_value=2, max_value=8))
    books = []
    for _ in range(n_nodes):
        subjects = draw(st.lists(
            st.integers(min_value=0, max_value=60), max_size=8, unique=True,
        ))
        subjects.sort()
        values = [
            draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
            for _ in subjects
        ]
        books.append((subjects, values))
    n_pairs = draw(st.integers(min_value=0, max_value=10))
    pairs = []
    for _ in range(n_pairs):
        a = draw(st.integers(min_value=0, max_value=n_nodes - 1))
        b = draw(st.integers(min_value=0, max_value=n_nodes - 1))
        if a == b or (a, b) in pairs or (b, a) in pairs:
            continue
        pairs.append((a, b))
    negative = draw(st.booleans())
    return books, pairs, negative


@given(overlapping_gossip_scenarios())
@settings(max_examples=150, deadline=None)
def test_exchange_batch_rounds_matches_pairwise(scenario):
    """The rounds driver + in-order deferred application must replay the
    exact sequential book trajectory: after applying pair k's deferred
    assignment, every book matches a sequential run of pairs 0..k."""
    books, pairs, negative = scenario
    params = IncentiveParams()
    sequential = ReputationSystem(params)
    batched = ReputationSystem(params)
    _seed_books(sequential, books, negative)
    _seed_books(batched, books, negative)

    planned = batched.exchange_batch_rounds(pairs)
    by_pair = {(entry[0], entry[1]): entry for entry in planned}
    assert set(by_pair) == set(pairs)
    assert len(planned) == len(pairs)

    for a, b in pairs:
        sequential.exchange(a, b)
        merged_a, merged_b, deferred = (
            by_pair[(a, b)][2], by_pair[(a, b)][3], by_pair[(a, b)][4],
        )
        if deferred is not None:
            book_a, subj_a, val_a, book_b, subj_b, val_b = deferred
            book_a._subjects = subj_a
            book_a._values = val_a
            book_b._subjects = subj_b
            book_b._values = val_b
        # Mid-tick reads between exchange points must see the
        # sequential trajectory for the pair's own members.
        for node_id in (a, b):
            assert np.array_equal(
                sequential.book(node_id)._subjects,
                batched.book(node_id)._subjects,
            )
            assert np.array_equal(
                sequential.book(node_id)._values,
                batched.book(node_id)._values,
            )

    for node_id in range(len(books)):
        expected = sequential.book(node_id)
        actual = batched.book(node_id)
        assert np.array_equal(expected._subjects, actual._subjects)
        assert np.array_equal(expected._values, actual._values)


# ----------------------------------------------------------------------
# Satellite bugfix regressions
# ----------------------------------------------------------------------
class TestRetryBookLifecycle:
    """S1: ``_retry_counts`` must drain as deliveries/expiries land."""

    def test_retry_book_empty_after_run_drains(self):
        config = ScenarioConfig.tiny(
            ttl=600.0,
            faults=FaultConfig(loss_probability=0.25),
            max_retransmissions=2,
        )
        result = run_scenario(config, "chitchat", seed=3)
        router = result.router
        # The run must actually have exercised the retry machinery,
        # else the emptiness assertion proves nothing.
        assert result.fault_summary()["retransmissions"] > 0
        # Messages created in the final TTL window outlive the run;
        # one more sweep past their deadline completes the drain.
        router.world._sweep_ttl(config.duration + config.ttl + 1.0)
        assert router._retry_counts == {}

    def test_delivery_prunes_receiver_entry(self):
        router = ChitChatRouter()
        make_world({0: ["flood"], 1: ["rescue-team"]}, router)
        router._retry_counts["u1"] = {1: 2, 2: 1}
        router._prune_retries("u1", 1)
        assert router._retry_counts == {"u1": {2: 1}}
        router._prune_retries("u1", 2)
        assert router._retry_counts == {}

    def test_expiry_drops_whole_uuid_book(self):
        router = ChitChatRouter()
        make_world({0: ["flood"], 1: ["rescue-team"]}, router)
        message = make_message(uuid="u2")
        router._retry_counts["u2"] = {1: 1, 3: 2}
        router.on_message_expired(0, message)
        assert router._retry_counts == {}


class _StubTransfer:
    def __init__(self, message, sender, receiver, reason):
        self.message = message
        self.sender = sender
        self.receiver = receiver
        self.abort_reason = reason


class _StubRetryWorld:
    """Just enough world for ``_maybe_retransmit`` unit tests."""

    def __init__(self, available):
        self._available = available
        self.scheduled = []

    def node_available(self, node_id):
        return self._available

    def schedule_in(self, delay, callback, *, label=""):
        self.scheduled.append(delay)


class TestDarkReceiverGuard:
    """S3: a retry toward a dark node must not consume the budget."""

    def _router(self, available):
        router = ChitChatRouter(max_retransmissions=2)
        router.bind(_StubRetryWorld(available))
        return router

    def test_budget_not_consumed_when_receiver_dark(self):
        router = self._router(available=False)
        transfer = _StubTransfer(make_message(uuid="u3"), 0, 1, "loss")
        router._maybe_retransmit(transfer)
        assert router._retry_counts == {}
        assert router.world.scheduled == []

    def test_budget_consumed_when_receiver_up(self):
        router = self._router(available=True)
        transfer = _StubTransfer(make_message(uuid="u3"), 0, 1, "loss")
        router._maybe_retransmit(transfer)
        assert router._retry_counts == {"u3": {1: 1}}
        assert len(router.world.scheduled) == 1

    def test_blackout_grid_run_stays_conservative(self):
        """End-to-end: battery blackouts + loss + retries stay sane."""
        config = ScenarioConfig.tiny(
            battery_capacity=2.0,  # joules: dies after a few transfers
            faults=FaultConfig(
                loss_probability=0.2,
                recharge_interval=300.0, recharge_amount=1.0,
            ),
            max_retransmissions=2,
        )
        result = run_scenario(config, "incentive", seed=2)
        ledger = result.router.ledger
        assert result.metrics.blackouts > 0
        assert ledger.total_supply() == pytest.approx(
            ledger.total_endowment(), abs=1e-6
        )


class TestWipeEvictsRouterState:
    """S2: churn wipe must reset tables and evict version-keyed memos."""

    def test_post_restart_sums_match_cold_computation(self):
        router = ChitChatRouter()
        world = make_world({0: ["flood"], 1: ["rescue-team"]}, router)
        message = make_message(keywords=("power-grid",),
                               content=("power-grid",))
        table = router.table(0)
        table.add_direct("power-grid", now=0.0)  # version 0 -> 1
        warm = router.interest_sum(0, message)   # memo at version 1
        assert warm == 0.5

        world.on_node_crashed(0, wipe_state=True)
        # The wipe restarted the table: version 0, subscriptions only.
        assert router.table(0).version == 0
        assert router.table(0).weight("power-grid") == 0.0

        # Collide the version: one update brings the restarted table
        # back to version 1, where the stale memo was keyed.  Pre-fix,
        # interest_sum would serve 0.5 for weights that no longer
        # exist.
        router.table(0).add_direct("shelter", now=1.0)
        assert router.table(0).version == 1
        cold = router.table(0).sum_for_ids(
            router._message_ids(message, router._intern_key(message))
        )
        assert router.interest_sum(0, message) == cold == 0.0

    def test_wipe_only_touches_the_crashed_node(self):
        router = ChitChatRouter()
        world = make_world({0: ["flood"], 1: ["rescue-team"]}, router)
        table_1 = router.table(1)
        table_1.add_direct("shelter", now=0.0)
        before = router.interest_sum(1, make_message(
            keywords=("shelter",), content=("shelter",)))
        world.on_node_crashed(0, wipe_state=True)
        assert router.table(1).version == table_1.version
        assert router.interest_sum(1, make_message(
            keywords=("shelter",), content=("shelter",))) == before

    def test_crash_without_wipe_keeps_state(self):
        router = ChitChatRouter()
        world = make_world({0: ["flood"], 1: ["rescue-team"]}, router)
        table = router.table(0)
        table.add_direct("power-grid", now=0.0)
        world.on_node_crashed(0, wipe_state=False)
        assert table.weight("power-grid") == 0.5
        assert table.version == 1
