"""The contact-up tick's decay planner against the per-pair reference.

``ChitChatRouter.prepare_contact_batch`` runs every decay side of a
tick through ``InterestStore.batch_decay`` in occurrence rounds, reads
peer membership from a log of the prunes the kernel performed, repairs
sides that read a peer before its logged prune, and defers rows that an
exchange could read mid-tick to ``run_rtsr_decay``.  The kernels are
pinned elsewhere (``tests/test_fused_store_properties.py``); this file
pins the *scheduling*.

Each example builds two identical SoA worlds over one tick: the planned
router gets ``prepare_contact_batch`` and then, per pair in tick order,
the link open plus ``run_rtsr_decay``; the reference router runs only
the per-pair path (``InterestTable.decay`` over ``_connected_ids``).
Weights straddle the 1e-3 prune threshold so peers prune mid-tick and
some tables empty, endpoints repeat up to six times, and some links are
open at tick start.  After every pair, every table an exchange could
read must be bit-identical (weight, present, direct, version, members
version, and the stamps of present columns), and so must the
selections the exchange would make.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.link import Link
from repro.network.node import Node
from repro.network.world_soa import SoAWorld
from repro.routing.chitchat import ChitChatRouter
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams

from tests.helpers import make_message

KEYWORDS = [f"k{i}" for i in range(5)]
N_NODES = 6
NOW = 1_000.0
# Elapsed seconds since the last stamp: 0 is stamped at ``now``; with
# beta 0.01 the others divide by 1, 2 and 4 per decay.
ELAPSED = [0.0, 50.0, 200.0, 400.0]
# Transient weights on both sides of the 1e-3 prune threshold after
# one, two or three divisions.
TRANSIENT = [1.2e-3, 2.5e-3, 3.5e-3, 5e-3, 0.02, 0.3]


@st.composite
def ticks(draw):
    interests = [
        draw(st.lists(st.sampled_from(KEYWORDS), max_size=2, unique=True))
        for _ in range(N_NODES)
    ]
    rows = []
    for node in range(N_NODES):
        extra = {}
        for keyword in draw(st.lists(st.sampled_from(KEYWORDS),
                                     max_size=5, unique=True)):
            if keyword in interests[node]:
                weight = draw(st.sampled_from([0.5, 0.75, 1.0]))
            else:
                weight = draw(st.sampled_from(TRANSIENT))
            extra[keyword] = (weight, draw(st.sampled_from(ELAPSED)))
        for keyword in interests[node]:
            extra.setdefault(
                keyword, (0.5, draw(st.sampled_from(ELAPSED)))
            )
        rows.append(extra)
    all_pairs = [
        (a, b) for a in range(N_NODES) for b in range(a + 1, N_NODES)
    ]
    chosen = draw(st.lists(st.sampled_from(all_pairs), unique=True,
                           max_size=len(all_pairs)))
    n_open = draw(st.integers(min_value=0, max_value=min(3, len(chosen))))
    open_at_start = chosen[:n_open]
    tick = draw(st.permutations(chosen[n_open:]))
    # Keep every node at six sides or fewer.
    count = [0] * N_NODES
    pairs = []
    for a, b in tick:
        if count[a] < 6 and count[b] < 6:
            count[a] += 1
            count[b] += 1
            pairs.append((a, b))
    holders = draw(st.lists(st.integers(min_value=0, max_value=N_NODES - 1),
                            max_size=N_NODES, unique=True))
    messages = [
        (
            draw(st.sampled_from(holders)),
            tuple(draw(st.lists(st.sampled_from(KEYWORDS), min_size=1,
                                max_size=2, unique=True))),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=8)))
    ] if holders else []
    return interests, rows, open_at_start, pairs, messages


def _build(interests, rows, open_at_start, messages):
    nodes = [Node(i, interests[i]) for i in range(N_NODES)]
    router = ChitChatRouter()
    world = SoAWorld(
        Engine(start_time=NOW), nodes, router,
        link_speed=1_000.0, streams=RandomStreams(5),
    )
    for node, extra in enumerate(rows):
        table = router.table(node)
        for keyword, (weight, elapsed) in extra.items():
            kid = table._slot(keyword)
            table._weight[kid] = weight
            table._last[kid] = NOW - elapsed
            table._present[kid] = True
    for index, (holder, keywords) in enumerate(messages):
        world.node(holder).buffer.add(
            make_message(source=holder, keywords=keywords,
                         content=keywords, uuid=f"m{index}"),
            now=NOW,
        )
    for pair in open_at_start:
        _open(world, pair)
    return world, router


def _open(world, pair):
    a, b = pair
    link = Link(world.engine, a, b, speed=1_000.0)
    world._links[pair] = link
    world._links_by_node[a].append(link)
    world._links_by_node[b].append(link)
    return link


def _state(table):
    present = table._present.copy()
    return (
        table._weight.tolist(),
        present.tolist(),
        table._direct.tolist(),
        np.where(present, table._last, 0.0).tolist(),
        table.version,
        table._members_version,
    )


def _selection(router, sender, receiver):
    return [
        (m.uuid, role) for m, role in router.select_messages(sender, receiver)
    ]


@given(ticks())
@settings(max_examples=300, deadline=None)
def test_planner_matches_per_pair_decay(tick):
    interests, rows, open_at_start, pairs, messages = tick
    world_p, planned = _build(interests, rows, open_at_start, messages)
    world_r, reference = _build(interests, rows, open_at_start, messages)
    holders = {holder for holder, _ in messages}

    planned.prepare_contact_batch(pairs)
    # An exchange reads tables only from the first pair with a buffered
    # endpoint on; before it, only rows the planner deferred must track
    # the sequential states.
    first_read = next(
        (j for j, (a, b) in enumerate(pairs) if a in holders or b in holders),
        len(pairs),
    )
    last_pair = {}
    for j, (a, b) in enumerate(pairs):
        last_pair[a] = last_pair[b] = j
    for j, pair in enumerate(pairs):
        planned.run_rtsr_decay(_open(world_p, pair))
        reference.run_rtsr_decay(_open(world_r, pair))
        for node in range(N_NODES):
            if j < first_read and last_pair.get(node, -1) <= first_read:
                continue
            assert _state(planned.table(node)) == _state(
                reference.table(node)
            ), f"node {node} diverged at pair {j} {pair}"
        a, b = pair
        for sender, receiver in ((a, b), (b, a)):
            assert _selection(planned, sender, receiver) == _selection(
                reference, sender, receiver
            )
    for node in range(N_NODES):
        assert _state(planned.table(node)) == _state(reference.table(node))
    assert not planned._planned and not planned._deferred


def test_prune_repairs_a_reader_in_the_same_round():
    """Pairs ``(0, 1), (1, 2)``: a round-zero reader of a round-zero prune.

    Node 1 prunes ``k1`` at its first side (position 1), which empties
    its table.  Node 2's first side (position 3) reads node 1 after that
    prune, but both are round-zero sides, so node 2 is computed before
    the prune is logged and must be repaired: ``k1`` is not stamped and
    decays.
    """
    interests = [["k0"], [], ["k0"]]
    rows = [
        {"k0": (0.5, 400.0)},
        {"k1": (1.2e-3, 400.0)},
        {"k0": (0.5, 0.0), "k1": (0.3, 400.0)},
    ]
    nodes = [Node(i, interests[i]) for i in range(len(rows))]
    router = ChitChatRouter()
    SoAWorld(
        Engine(start_time=NOW), nodes, router,
        link_speed=1_000.0, streams=RandomStreams(5),
    )
    for node, extra in enumerate(rows):
        table = router.table(node)
        for keyword, (weight, elapsed) in extra.items():
            kid = table._slot(keyword)
            table._weight[kid] = weight
            table._last[kid] = NOW - elapsed
            table._present[kid] = True
    router.prepare_contact_batch([(0, 1), (1, 2)])
    k1 = router.keyword_index.get("k1")
    assert not router.table(1)._present.any()
    assert router.table(2)._weight[k1] == 0.3 / 4


def test_preselection_reads_a_deferred_nodes_first_side():
    """A deferred node's first pair is preselected against its first side.

    Node 0's buffered message makes pair ``(0, 1)`` an exchange that
    can read tables, so node 3 keeps its tick-start row until
    ``run_rtsr_decay`` reaches each of its sides.  Pair ``(2, 3)`` is
    still preselected at plan time, where it must see node 3 after its
    first decay but not its second: ``k1`` (node 2 and node 4 lack it)
    halves per side, 0.5 -> 0.25 -> 0.125, so ``S_3`` reads 0.5, 0.45
    and 0.325 against ``S_2 = 0.4`` — only the first-side row offers
    the message as a relay *and* matches the per-pair path.
    """
    interests = [["k0"], ["k0"], ["k0"], ["k0"], ["k0"], []]
    rows = [
        {}, {},
        {"k0": (0.5, 0.0), "k2": (0.4, 0.0)},
        {"k0": (0.5, 0.0), "k1": (0.5, 200.0), "k2": (0.2, 0.0)},
        {}, {},
    ]
    messages = [(0, ("k0",)), (2, ("k1", "k2"))]
    pairs = [(0, 1), (2, 3), (3, 4)]
    world_p, planned = _build(interests, rows, [], messages)
    world_r, reference = _build(interests, rows, [], messages)
    planned.prepare_contact_batch(pairs)
    assert (2, 3) in planned._preselected
    for pair in pairs[:2]:
        planned.run_rtsr_decay(_open(world_p, pair))
        reference.run_rtsr_decay(_open(world_r, pair))
    expected = [("m1", "relay")]
    assert _selection(reference, 2, 3) == expected
    assert _selection(planned, 2, 3) == expected
