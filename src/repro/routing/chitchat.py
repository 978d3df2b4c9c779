"""ChitChat routing with Real-time Transient Social Relationships (RTSR).

This is the paper's substrate (McGeehan, Lin, Madria — ICDCS 2016) as
specified in Paper I Sections 2.2-2.4:

* Every node has *direct* interests (its own subscriptions, initial
  weight 0.5) and *transient* interests acquired from encountered nodes.
* On contact, weights are first **decayed** (Algorithm 1), the decayed
  weights are exchanged, then **grown** (Algorithm 2) from the peer's
  weights with a case factor psi.
* Messages route by interest strength: ``u`` forwards message ``M`` to
  ``v`` when ``S_v > S_u`` where ``S_x`` is the sum of ``x``'s weights
  over ``M``'s keywords; a node with a *direct* interest in a tag is a
  destination and always receives the message.

Ambiguities resolved here (see DESIGN.md section 4): the decay
denominator is clamped to >= 1 so decay never amplifies a weight; the
growth increment is scaled by ``growth_scale`` and the per-contact
elapsed time is capped, because the raw thesis formula grows without
bound in seconds.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import ConfigurationError
from repro.messages.message import Message
from repro.network.link import Link, Transfer
from repro.routing.base import Router

__all__ = [
    "InterestRecord",
    "InterestTable",
    "InterestStore",
    "KeywordIndex",
    "ChitChatRouter",
    "psi_case",
]


@dataclass
class InterestRecord:
    """State of one interest keyword at one node.

    Attributes:
        weight: Current ChitChat weight in [0, 1].
        direct: True for the node's own subscription, False for a
            transient (acquired) interest.
        last_contact: Latest time a device sharing the interest was
            connected (``T_l`` in Algorithm 1).
    """

    weight: float
    direct: bool
    last_contact: float


def psi_case(u_record: Optional[InterestRecord],
             v_record: InterestRecord) -> int:
    """The growth divisor psi in {1..6} for a keyword's (u, v) status.

    The thesis names two cases explicitly (both direct -> 1; u direct,
    v transient -> 2); the remaining four follow the same ordering:
    stronger evidence (direct on both sides) grows fastest.
    """
    v_direct = v_record.direct
    if u_record is None:
        return 5 if v_direct else 6
    if u_record.direct:
        return 1 if v_direct else 2
    return 3 if v_direct else 4


class KeywordIndex:
    """A shared keyword -> dense integer id registry.

    All interest tables created by one router share one index, so a
    keyword means the same row everywhere and peer weight exchanges move
    id arrays instead of strings.  Ids are assigned on first sight and
    never reused; tables grow their arrays to cover the index.
    """

    __slots__ = ("_ids", "_names")

    def __init__(self, keywords: Iterable[str] = ()):
        self._ids: Dict[str, int] = {}
        self._names: List[str] = []
        for keyword in keywords:
            self.id_of(keyword)

    def id_of(self, keyword: str) -> int:
        """The id for ``keyword``, assigning a fresh one on first use."""
        existing = self._ids.get(keyword)
        if existing is None:
            existing = len(self._names)
            self._ids[keyword] = existing
            self._names.append(keyword)
        return existing

    def get(self, keyword: str) -> Optional[int]:
        """The id for ``keyword`` if already assigned, else None."""
        return self._ids.get(keyword)

    def name_of(self, keyword_id: int) -> str:
        """The keyword carrying ``keyword_id``."""
        return self._names[keyword_id]

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, keyword: str) -> bool:
        return keyword in self._ids


_EMPTY_IDS = np.empty(0, dtype=np.int64)

# Row-count ceiling below which decay/growth take a pure-Python scalar
# path: at a few dozen rows, per-ufunc dispatch (~1µs each, and the
# compact paths need a dozen ufuncs) costs more than an interpreted
# loop over Python floats.  Both paths evaluate the identical IEEE
# expression per row, so the crossover is a pure speed knob — results
# are bit-identical on either side of it (tests/test_chitchat.py pins
# this by running the same history through both).
_SCALAR_ROWS_MAX = 48


class _RecordView:
    """A live, mutable :class:`InterestRecord`-shaped handle over one
    table row.  Reads and writes go straight to the table's arrays."""

    __slots__ = ("_table", "_id")

    def __init__(self, table: "InterestTable", keyword_id: int):
        self._table = table
        self._id = keyword_id

    @property
    def weight(self) -> float:
        return float(self._table._weight[self._id])

    @weight.setter
    def weight(self, value: float) -> None:
        self._table._weight[self._id] = value

    @property
    def direct(self) -> bool:
        return bool(self._table._direct[self._id])

    @direct.setter
    def direct(self, value: bool) -> None:
        self._table._direct[self._id] = value

    @property
    def last_contact(self) -> float:
        return float(self._table._last[self._id])

    @last_contact.setter
    def last_contact(self, value: float) -> None:
        self._table._last[self._id] = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"InterestRecord(weight={self.weight!r}, direct={self.direct!r}, "
            f"last_contact={self.last_contact!r})"
        )


class _RecordMap:
    """Dict-like adapter exposing a table's rows as keyword -> record.

    Preserves the historical ``table._records`` seam (tests seed and
    tweak records through it); values read back as live
    :class:`_RecordView` handles.
    """

    __slots__ = ("_table",)

    def __init__(self, table: "InterestTable"):
        self._table = table

    def __getitem__(self, keyword: str) -> _RecordView:
        table = self._table
        keyword_id = table._index.get(keyword)
        if keyword_id is None or not table._row_present(keyword_id):
            raise KeyError(keyword)
        return _RecordView(table, keyword_id)

    def __setitem__(self, keyword: str, record: InterestRecord) -> None:
        table = self._table
        keyword_id = table._slot(keyword)
        table._weight[keyword_id] = record.weight
        table._direct[keyword_id] = record.direct
        table._last[keyword_id] = record.last_contact
        table._present[keyword_id] = True
        table._invalidate_views()

    def __delitem__(self, keyword: str) -> None:
        table = self._table
        keyword_id = table._index.get(keyword)
        if keyword_id is None or not table._row_present(keyword_id):
            raise KeyError(keyword)
        table._present[keyword_id] = False
        table._weight[keyword_id] = 0.0
        table._invalidate_views()

    def __contains__(self, keyword: str) -> bool:
        table = self._table
        keyword_id = table._index.get(keyword)
        return keyword_id is not None and table._row_present(keyword_id)

    def __len__(self) -> int:
        return int(np.count_nonzero(self._table._present))

    def __iter__(self) -> Iterator[str]:
        table = self._table
        name_of = table._index.name_of
        for keyword_id in np.flatnonzero(table._present):
            yield name_of(int(keyword_id))

    def keys(self) -> Iterator[str]:
        return iter(self)

    def values(self) -> Iterator[_RecordView]:
        table = self._table
        for keyword_id in np.flatnonzero(table._present):
            yield _RecordView(table, int(keyword_id))

    def items(self) -> Iterator[Tuple[str, _RecordView]]:
        table = self._table
        name_of = table._index.name_of
        for keyword_id in np.flatnonzero(table._present):
            yield name_of(int(keyword_id)), _RecordView(table, int(keyword_id))

    def get(self, keyword: str, default=None):
        try:
            return self[keyword]
        except KeyError:
            return default


class InterestTable:
    """A node's keyword-weight table (direct + transient interests).

    Storage is struct-of-arrays: one float64/bool row per keyword id in
    the shared :class:`KeywordIndex`, with a ``present`` mask standing
    in for dict membership.  Algorithm 1 (decay) and Algorithm 2
    (growth) are elementwise — no cross-keyword accumulation — so the
    vectorised updates below compute bit-identical floats to the
    historical per-record loops (each element sees the same expression,
    evaluated in the same operation order).

    The table carries a monotonically increasing :attr:`version` bumped
    by every mutating operation (decay, growth, subscription), which
    lets callers memoise derived quantities — the router caches
    per-message interest sums against it — with trivially correct
    invalidation.
    """

    def __init__(
        self,
        direct_interests: Iterable[str],
        created_at: float = 0.0,
        *,
        index: Optional[KeywordIndex] = None,
    ):
        self._index = index if index is not None else KeywordIndex()
        #: Bumped on every mutation; cache-invalidation token.
        self.version: int = 0
        #: Bumped only when row *membership* changes (acquire, prune,
        #: subscribe).  Weight updates leave it alone, so the derived
        #: keyword/id views below survive ordinary decay/growth ticks.
        self._members_version: int = 0
        self._keywords_view: Optional[FrozenSet[str]] = None
        self._keywords_view_key: int = -1
        self._ids_view: Optional[np.ndarray] = None
        self._ids_view_key: int = -1
        self._ids_list_view: Optional[List[int]] = None
        self._ids_list_key: int = -1
        capacity = max(8, len(self._index))
        self._weight = np.zeros(capacity, dtype=np.float64)
        self._direct = np.zeros(capacity, dtype=bool)
        self._last = np.zeros(capacity, dtype=np.float64)
        self._present = np.zeros(capacity, dtype=bool)
        for keyword in direct_interests:
            keyword_id = self._slot(keyword)
            self._weight[keyword_id] = 0.5
            self._direct[keyword_id] = True
            self._last[keyword_id] = created_at
            self._present[keyword_id] = True

    # ------------------------------------------------------------------
    # Row plumbing
    # ------------------------------------------------------------------
    @property
    def index(self) -> KeywordIndex:
        """The shared keyword registry this table's rows live in."""
        return self._index

    @property
    def _records(self) -> _RecordMap:
        """Dict-like row access (compatibility seam; see _RecordMap)."""
        return _RecordMap(self)

    def _slot(self, keyword: str) -> int:
        """The row for ``keyword``, growing arrays to cover its id."""
        keyword_id = self._index.id_of(keyword)
        self._ensure(keyword_id)
        return keyword_id

    def _ensure(self, keyword_id: int) -> None:
        capacity = self._present.size
        if keyword_id < capacity:
            return
        new_capacity = max(capacity * 2, keyword_id + 1)
        grow = new_capacity - capacity
        self._weight = np.concatenate(
            [self._weight, np.zeros(grow, dtype=np.float64)]
        )
        self._direct = np.concatenate(
            [self._direct, np.zeros(grow, dtype=bool)]
        )
        self._last = np.concatenate(
            [self._last, np.zeros(grow, dtype=np.float64)]
        )
        self._present = np.concatenate(
            [self._present, np.zeros(grow, dtype=bool)]
        )

    def _row_present(self, keyword_id: int) -> bool:
        return keyword_id < self._present.size and bool(
            self._present[keyword_id]
        )

    def _invalidate_views(self) -> None:
        self._members_version += 1

    def __len__(self) -> int:
        return int(np.count_nonzero(self._present))

    def __contains__(self, keyword: str) -> bool:
        keyword_id = self._index.get(keyword)
        return keyword_id is not None and self._row_present(keyword_id)

    @property
    def keywords(self) -> FrozenSet[str]:
        """All keywords with a record (direct and transient).

        Cached per :attr:`version` — contact handling asks for this set
        repeatedly between mutations.
        """
        if self._keywords_view_key != self._members_version:
            name_of = self._index.name_of
            self._keywords_view = frozenset(
                name_of(int(i)) for i in self.present_ids()
            )
            self._keywords_view_key = self._members_version
        return self._keywords_view

    def present_ids(self) -> np.ndarray:
        """Ids of all present rows, ascending (cached per membership
        version, so ordinary decay/growth ticks reuse it).

        The id-space analogue of :attr:`keywords`; the router's decay
        hook unions these across connected peers.  Treat as read-only —
        membership changes replace (never mutate) the cached array, so
        outstanding references stay valid snapshots.
        """
        if self._ids_view_key != self._members_version:
            self._ids_view = np.flatnonzero(self._present)
            self._ids_view_key = self._members_version
        return self._ids_view

    def record(self, keyword: str) -> Optional[_RecordView]:
        """A live record handle for ``keyword``, or None."""
        keyword_id = self._index.get(keyword)
        if keyword_id is None or not self._row_present(keyword_id):
            return None
        return _RecordView(self, keyword_id)

    def weight(self, keyword: str) -> float:
        """Current weight of ``keyword`` (0.0 when absent)."""
        keyword_id = self._index.get(keyword)
        if keyword_id is None or not self._row_present(keyword_id):
            return 0.0
        return float(self._weight[keyword_id])

    def is_direct(self, keyword: str) -> bool:
        """Whether ``keyword`` is one of the node's own subscriptions."""
        keyword_id = self._index.get(keyword)
        return (
            keyword_id is not None
            and self._row_present(keyword_id)
            and bool(self._direct[keyword_id])
        )

    def sum_for(self, keywords: Iterable[str]) -> float:
        """``S`` — the sum of weights over ``keywords``.

        Deliberately a scalar loop in caller order: float addition is
        not associative, and bit-identical results require replaying
        exactly the historical accumulation order.
        """
        return sum(self.weight(k) for k in keywords)

    def sum_for_ids(self, ids: np.ndarray) -> float:
        """``S`` over pre-resolved keyword ids, in array order.

        Bit-identical to :meth:`sum_for` over the same keywords in the
        same order: absent rows contribute exactly ``0.0``, and adding
        ``0.0`` never changes an IEEE sum (weights are never ``-0.0``),
        so dropping out-of-range ids is safe.  The accumulation itself
        stays a sequential left-to-right Python sum.
        """
        capacity = self._present.size
        valid = ids[ids < capacity]
        if valid.size == 0:
            return 0 if ids.size == 0 else 0.0
        # Absent rows hold weight 0.0 by invariant (pruning and
        # deletion zero the row), so no presence mask is needed.
        return sum(self._weight[valid].tolist())

    def any_direct_ids(self, ids: np.ndarray) -> bool:
        """Whether any of the pre-resolved ids is a direct interest."""
        capacity = self._present.size
        valid = ids[ids < capacity]
        if valid.size == 0:
            return False
        # ndarray.any() rather than np.any(): the module-level wrapper's
        # dispatch overhead is measurable at hot-path call counts.
        return bool((self._present[valid] & self._direct[valid]).any())

    def batch_fill(
        self,
        misses: List[Tuple[Tuple[str, ...], np.ndarray]],
        sums: Dict[Tuple[str, ...], float],
        roles: Optional[Dict[Tuple[str, ...], str]],
    ) -> None:
        """Fill sum/role memo dicts for many keyword-id arrays at once.

        One concatenated gather replaces a per-key
        :meth:`sum_for_ids` + :meth:`any_direct_ids` pair — the
        dominant per-message cost of offering a full buffer during a
        contact.  Bit-identical to the per-key calls: out-of-range ids
        are redirected to row 0 but their fetched weight is overwritten
        with exactly ``0.0`` (what an absent row holds — adding it
        never changes an IEEE sum, and weights are never ``-0.0``) and
        their direct flag with ``False``; each key's sum then replays
        the same left-to-right Python accumulation over its own slice.
        """
        capacity = self._present.size
        if capacity == 0:
            for key, ids in misses:
                sums[key] = 0 if ids.size == 0 else 0.0
                if roles is not None:
                    roles[key] = "relay"
            return
        if len(misses) == 1:
            key, ids = misses[0]
            sums[key] = self.sum_for_ids(ids)
            if roles is not None:
                roles[key] = (
                    "destination" if self.any_direct_ids(ids) else "relay"
                )
            return
        cat = np.concatenate([ids for _, ids in misses])
        if cat.size == 0:
            for key, ids in misses:
                sums[key] = 0
                if roles is not None:
                    roles[key] = "relay"
            return
        if int(cat.max()) < capacity:
            # Common case: every id is in range (the shared index only
            # outruns a table's arrays briefly, until its next growth
            # tick) — no masking needed.
            values = self._weight[cat].tolist()
            flags = (
                (self._present[cat] & self._direct[cat]).tolist()
                if roles is not None
                else None
            )
        else:
            ok = cat < capacity
            safe = np.where(ok, cat, 0)
            weights = self._weight[safe]
            weights[~ok] = 0.0
            values = weights.tolist()
            flags = (
                (self._present[safe] & self._direct[safe] & ok).tolist()
                if roles is not None
                else None
            )
        start = 0
        for key, ids in misses:
            size = ids.size
            end = start + size
            if size == 0:
                sums[key] = 0
            else:
                sums[key] = sum(values[start:end])
            if flags is not None:
                roles[key] = (
                    "destination" if any(flags[start:end]) else "relay"
                )
            start = end

    def average_for(self, keywords: Iterable[str]) -> float:
        """Average weight over ``keywords`` (0 for an empty set)."""
        keys = list(keywords)
        if not keys:
            return 0.0
        return self.sum_for(keys) / len(keys)

    def direct_keywords(self) -> FrozenSet[str]:
        """The node's own subscription keywords."""
        name_of = self._index.name_of
        return frozenset(
            name_of(int(i))
            for i in np.flatnonzero(self._present & self._direct)
        )

    def reset(
        self, direct_interests: Iterable[str], created_at: float
    ) -> None:
        """Return the table to its freshly-created state.

        Used by the churn wipe path: a node that loses its volatile
        state restarts with exactly the table a brand-new node gets —
        zero rows, then its direct subscriptions re-seeded at weight
        0.5, and (crucially) :attr:`version` back at 0.  Works for both
        standalone tables and fused-store row views (all writes are
        in-place on the backing arrays).
        """
        self._weight[:] = 0.0
        self._direct[:] = False
        self._last[:] = 0.0
        self._present[:] = False
        self.version = 0
        self._members_version = 0
        self._keywords_view = None
        self._keywords_view_key = -1
        self._ids_view = None
        self._ids_view_key = -1
        self._ids_list_view = None
        self._ids_list_key = -1
        for keyword in direct_interests:
            keyword_id = self._slot(keyword)
            self._weight[keyword_id] = 0.5
            self._direct[keyword_id] = True
            self._last[keyword_id] = created_at
            self._present[keyword_id] = True

    def add_direct(self, keyword: str, now: float) -> None:
        """Subscribe to a new keyword (operator function *Subscribe*)."""
        self.version += 1
        keyword_id = self._slot(keyword)
        if self._present[keyword_id]:
            self._direct[keyword_id] = True
            self._weight[keyword_id] = max(
                float(self._weight[keyword_id]), 0.5
            )
        else:
            self._weight[keyword_id] = 0.5
            self._direct[keyword_id] = True
            self._last[keyword_id] = now
            self._present[keyword_id] = True
            self._members_version += 1

    # ------------------------------------------------------------------
    # Algorithm 1: decay
    # ------------------------------------------------------------------
    def decay(
        self,
        now: float,
        connected_keywords: Union[Set[str], np.ndarray],
        *,
        beta: float,
        prune_below: float = 1e-3,
    ) -> None:
        """Decay all weights per Algorithm 1 (vectorised).

        Args:
            now: Current time ``T_c``.
            connected_keywords: Keywords shared by *currently connected*
                devices; their weights are frozen and their ``T_l``
                refreshed.  Either a set of strings or an int64 array of
                keyword ids (the router's hot path).
            beta: Decay constant.
            prune_below: Transient records below this weight are removed
                (bounds table growth; direct interests are never pruned).
        """
        if beta <= 0:
            raise ConfigurationError(f"beta must be > 0, got {beta!r}")
        present = self._present
        if self.present_ids().size == 0:
            return
        capacity = present.size
        # Refresh T_l of connected rows by stamping ids directly — no
        # membership mask.  Stamping an *absent* row is harmless: its
        # ``last`` is dormant storage, unconditionally rewritten when
        # the row is acquired (grow/add_direct), and a stamped present
        # row is excluded from decay below because its elapsed is
        # exactly 0.0 (``now - now``), which is what the old explicit
        # ``~connected`` mask excluded.  Duplicate ids are harmless.
        last = self._last
        if isinstance(connected_keywords, np.ndarray):
            if connected_keywords.size:
                # The shared index may hold ids beyond this table's
                # arrays; those rows are absent here by definition.
                last[connected_keywords[connected_keywords < capacity]] = now
        elif isinstance(connected_keywords, list) and (
            not connected_keywords
            or isinstance(connected_keywords[0], np.ndarray)
        ):
            # A list of id arrays (one per connected peer), stamped
            # without materialising their concatenation.
            for part in connected_keywords:
                if part.size:
                    last[part[part < capacity]] = now
        else:
            get = self._index.get
            ids = [
                i
                for i in (get(k) for k in connected_keywords)
                if i is not None and i < capacity
            ]
            if ids:
                last[ids] = now
        # The updates below run compactly on the present rows only:
        # tables are sparse at scale (the shared index keeps widening
        # the arrays while a node holds a few dozen live rows), so
        # gather → small-array ops → scatter beats masked full-capacity
        # arithmetic by an order of magnitude.  Each written element
        # still sees exactly the scalar expression, in the same
        # operation order — the gather only changes *which* elements
        # are computed, never *how*.
        rows = self.present_ids()
        weight = self._weight
        if rows.size <= _SCALAR_ROWS_MAX:
            # Scalar path: same expression per row (Python floats are
            # the same IEEE doubles), no ufunc dispatch.  The list view
            # of the present rows is cached per membership version,
            # like the array view it mirrors.
            if self._ids_list_key != self._members_version:
                self._ids_list_view = rows.tolist()
                self._ids_list_key = self._members_version
            rows_l = self._ids_list_view
            last_l = last[rows].tolist()
            stale_ids: List[int] = []
            stale_elapsed: List[float] = []
            for i, t in zip(rows_l, last_l):
                e = now - t
                if e > 0.0:
                    stale_ids.append(i)
                    stale_elapsed.append(e)
            if not stale_ids:
                # Nothing decayed and nothing was pruned, so every
                # memoised sum/classification keyed on :attr:`version`
                # is still exact — the version deliberately does NOT
                # move (both paths).
                return
            self.version += 1
            old_l = weight[stale_ids].tolist()
            direct_l = self._direct[stale_ids].tolist()
            new_l: List[float] = []
            dead_ids: List[int] = []
            for k in range(len(stale_ids)):
                den = beta * stale_elapsed[k]
                if den < 1.0:
                    den = 1.0
                if direct_l[k]:
                    decayed = (old_l[k] - 0.5) / den + 0.5
                else:
                    decayed = (old_l[k] - 0.0) / den + 0.0
                    if decayed < prune_below:
                        dead_ids.append(stale_ids[k])
                new_l.append(decayed)
            weight[stale_ids] = new_l
            if dead_ids:
                weight[dead_ids] = 0.0
                present[dead_ids] = False
                self._members_version += 1
            return
        elapsed = now - last[rows]
        stale = elapsed > 0.0
        if not stale.any():
            return
        self.version += 1
        stale_rows = rows[stale]
        old = weight[stale_rows]
        direct = self._direct[stale_rows]
        denominator = np.maximum(beta * elapsed[stale], 1.0)
        # One fused expression for both record kinds: direct rows see
        # the literal Algorithm 1 form ``(w - 0.5)/den + 0.5``;
        # transient rows see ``(w - 0.0)/den + 0.0``, bit-identical to
        # ``w/den`` because weights are never negative zero.
        half = direct * 0.5
        decayed = (old - half) / denominator + half
        weight[stale_rows] = decayed
        dead = ~direct & (decayed < prune_below)
        if dead.any():
            dead_rows = stale_rows[dead]
            weight[dead_rows] = 0.0
            present[dead_rows] = False
            self._members_version += 1

    # ------------------------------------------------------------------
    # Algorithm 2: growth
    # ------------------------------------------------------------------
    def snapshot_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, weights, direct)`` arrays of positive-weight rows.

        The peer-visible state of the table during a weight exchange.
        Fancy indexing copies, so the snapshot is immune to concurrent
        mutation of the table it came from — which is what keeps the
        two-sided growth update symmetric.  Only meaningful between
        tables sharing the same :class:`KeywordIndex`.
        """
        rows = self.present_ids()
        if rows.size == 0:
            return rows, np.empty(0, dtype=np.float64), np.empty(0, dtype=bool)
        weights = self._weight[rows]
        if weights.min() <= 0.0:
            # Only reachable through test-seeded zero-weight rows: live
            # rows keep positive weight (direct >= 0.5 always; transients
            # are pruned long before underflow).
            keep = weights > 0.0
            rows = rows[keep]
            weights = weights[keep]
        return rows, weights, self._direct[rows]

    def snapshot_weights(self) -> List[Tuple[str, float, bool]]:
        """``(keyword, weight, direct)`` triples with positive weight.

        String-keyed variant of :meth:`snapshot_arrays` for callers
        outside the hot path (and across distinct indexes)."""
        rows, weights, direct = self.snapshot_arrays()
        name_of = self._index.name_of
        return [
            (name_of(int(i)), float(w), bool(d))
            for i, w, d in zip(rows, weights, direct)
        ]

    def grow_from_arrays(
        self,
        peer_ids: np.ndarray,
        peer_weights: np.ndarray,
        peer_direct: np.ndarray,
        now: float,
        elapsed: float,
        *,
        growth_scale: float,
        elapsed_cap: float,
    ) -> None:
        """Grow this table from a peer's array snapshot per Algorithm 2.

        ``Delta = growth_scale * w_v(I) * min(elapsed, cap) / psi`` and
        the new weight is ``min(1, w + Delta)``.  Keywords we do not
        hold are acquired as transient interests.  ``peer_ids`` must be
        ids from this table's own :class:`KeywordIndex` and free of
        duplicates (snapshots are, by construction).

        The psi cases and the float expression are kept exactly as in
        the record-based formulation (``growth_scale * w * effective /
        psi``, left to right; psi selected per element) so the
        vectorisation is bit-identical.
        """
        if elapsed < 0:
            raise ConfigurationError(f"elapsed must be >= 0, got {elapsed!r}")
        if peer_ids.size == 0:
            return
        effective = min(elapsed, elapsed_cap)
        if effective <= 0.0:
            return  # every delta is exactly 0.0: nothing to write
        if peer_ids.size <= _SCALAR_ROWS_MAX:
            # Scalar path: identical per-element expression and psi
            # selection, without the ~10 ufunc dispatches the batched
            # form costs on a few dozen rows.
            ids_l = peer_ids.tolist()
            self._ensure(max(ids_l))
            weight = self._weight
            peer_w_l = peer_weights.tolist()
            peer_d_l = peer_direct.tolist()
            mine_p_l = self._present[ids_l].tolist()
            mine_d_l = self._direct[ids_l].tolist()
            mine_w_l = weight[ids_l].tolist()
            fresh_ids: List[int] = []
            fresh_w: List[float] = []
            grown_ids: List[int] = []
            grown_w: List[float] = []
            for k in range(len(ids_l)):
                if mine_p_l[k]:
                    psi = 2 if mine_d_l[k] else 4
                else:
                    psi = 6
                if peer_d_l[k]:
                    psi -= 1
                delta = growth_scale * peer_w_l[k] * effective / psi
                if delta <= 0.0:
                    continue
                if mine_p_l[k]:
                    w = mine_w_l[k] + delta
                    grown_ids.append(ids_l[k])
                    grown_w.append(w if w < 1.0 else 1.0)
                else:
                    fresh_ids.append(ids_l[k])
                    fresh_w.append(delta if delta < 1.0 else 1.0)
            if fresh_ids:
                weight[fresh_ids] = fresh_w
                self._direct[fresh_ids] = False
                self._last[fresh_ids] = now
                self._present[fresh_ids] = True
                self._members_version += 1
            if grown_ids:
                weight[grown_ids] = grown_w
                self._last[grown_ids] = now
            if fresh_ids or grown_ids:
                self.version += 1
            return
        self._ensure(int(peer_ids.max()))
        mine_present = self._present[peer_ids]
        mine_direct = self._direct[peer_ids]
        # psi in {1..6}: the nested psi_case collapses to a two-level
        # select minus the peer-direct bonus (2-1=1, 4-1=3, 6-1=5).
        psi = np.where(
            mine_present, np.where(mine_direct, 2, 4), 6
        ) - peer_direct
        delta = growth_scale * peer_weights * effective / psi
        active = delta > 0.0
        changed = False
        fresh = active & ~mine_present
        rows = peer_ids[fresh]
        if rows.size:
            self._weight[rows] = np.minimum(delta[fresh], 1.0)
            self._direct[rows] = False
            self._last[rows] = now
            self._present[rows] = True
            self._members_version += 1
            changed = True
        grown_mask = active & mine_present
        rows = peer_ids[grown_mask]
        if rows.size:
            self._weight[rows] = np.minimum(
                self._weight[rows] + delta[grown_mask], 1.0
            )
            self._last[rows] = now
            changed = True
        if changed:
            # Version moves only when a weight (or membership) actually
            # did — no-op growth ticks keep memoised sums alive.
            self.version += 1

    def grow_from_weights(
        self,
        peer_weights: List[Tuple[str, float, bool]],
        now: float,
        elapsed: float,
        *,
        growth_scale: float,
        elapsed_cap: float,
    ) -> None:
        """Grow this table from a string-keyed peer snapshot.

        Compatibility wrapper translating keywords into this table's
        index and delegating to :meth:`grow_from_arrays`.
        """
        id_of = self._index.id_of
        ids = np.asarray(
            [id_of(k) for k, _, _ in peer_weights], dtype=np.int64
        )
        weights = np.asarray(
            [w for _, w, _ in peer_weights], dtype=np.float64
        )
        direct = np.asarray(
            [d for _, _, d in peer_weights], dtype=bool
        )
        self.grow_from_arrays(
            ids, weights, direct, now, elapsed,
            growth_scale=growth_scale, elapsed_cap=elapsed_cap,
        )

    def grow_from(
        self,
        peer: "InterestTable",
        now: float,
        elapsed: float,
        *,
        growth_scale: float,
        elapsed_cap: float,
    ) -> None:
        """Grow this table from ``peer``'s weights per Algorithm 2.

        Convenience wrapper; callers that need symmetric two-sided
        growth should snapshot both tables first (see
        :meth:`ChitChatRouter.run_rtsr_growth`).
        """
        if peer._index is self._index:
            ids, weights, direct = peer.snapshot_arrays()
            self.grow_from_arrays(
                ids, weights, direct, now, elapsed,
                growth_scale=growth_scale, elapsed_cap=elapsed_cap,
            )
        else:
            self.grow_from_weights(
                peer.snapshot_weights(), now, elapsed,
                growth_scale=growth_scale, elapsed_cap=elapsed_cap,
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        direct = int(np.count_nonzero(self._present & self._direct))
        return (
            f"InterestTable({direct} direct, "
            f"{len(self) - direct} transient)"
        )


class _StoreTable(InterestTable):
    """An :class:`InterestTable` whose arrays are rows of a fused store.

    ``_weight``/``_direct``/``_last``/``_present`` are 1-D views over
    one row of the store's 2-D arrays, so every inherited method works
    unchanged — reads and writes land in the fused store.  The only
    override is capacity growth: a row view cannot be grown in place,
    so ``_ensure`` asks the store to widen *all* rows and re-attach the
    views.
    """

    def __init__(self, store: "InterestStore", row: int):
        self._store = store
        self._row = row
        self._index = store.index
        self.version = 0
        self._members_version = 0
        self._keywords_view = None
        self._keywords_view_key = -1
        self._ids_view = None
        self._ids_view_key = -1
        self._ids_list_view = None
        self._ids_list_key = -1
        self._attach()

    def _attach(self) -> None:
        """(Re)bind the array views to this table's store row."""
        store = self._store
        row = self._row
        self._weight = store._w[row]
        self._direct = store._d[row]
        self._last = store._l[row]
        self._present = store._p[row]

    def _ensure(self, keyword_id: int) -> None:
        if keyword_id < self._present.size:
            return
        self._store.ensure_columns(keyword_id)


class InterestStore:
    """The fused ``[node-row × keyword]`` interest-weight store.

    One pair of 2-D float64 arrays (weights, last-contact stamps) plus
    two bool masks (direct, present) back *every* interest table the
    router creates, with columns indexed by the shared
    :class:`KeywordIndex` and one row per node table in creation order.
    Owned by ``WorldState`` on the SoA path (see
    ``WorldState.attach_interest_store``); the object-core ``World``
    keeps standalone per-node tables.

    Per-table semantics are untouched — tables are :class:`_StoreTable`
    row views and run the exact :class:`InterestTable` code.  What the
    fusion buys is the *batched* tick operations (:meth:`batch_decay`,
    :meth:`batch_grow_pairs`): a scan tick's contacts run their
    Algorithm 1/2 updates in rounds of distinct rows, each round a
    handful of array passes instead of two Python calls per contact.
    Both batched forms evaluate the identical IEEE expression per
    element as the per-table paths, so results are bit-identical (the
    differential harness and the fused property tests pin this).

    Rows are assigned lazily (tables are created on first contact), so
    memory scales with the *touched* population, not the configured one.
    """

    def __init__(self, index: KeywordIndex, *, rows: int = 64):
        self.index = index
        columns = max(8, len(index))
        rows = max(8, rows)
        self._w = np.zeros((rows, columns), dtype=np.float64)
        self._d = np.zeros((rows, columns), dtype=bool)
        self._l = np.zeros((rows, columns), dtype=np.float64)
        self._p = np.zeros((rows, columns), dtype=bool)
        self._tables: List[_StoreTable] = []

    @property
    def columns(self) -> int:
        """Current column capacity (>= ``len(self.index)``)."""
        return self._w.shape[1]

    def __len__(self) -> int:
        return len(self._tables)

    def create_table(
        self, direct_interests: Iterable[str], created_at: float
    ) -> _StoreTable:
        """A fresh table over the next free row, seeded like
        ``InterestTable(direct_interests, created_at)``."""
        row = len(self._tables)
        if row >= self._w.shape[0]:
            self._grow_rows(row + 1)
        table = _StoreTable(self, row)
        # Register before seeding: seeding may widen the columns, which
        # re-attaches every registered row view (including this one).
        self._tables.append(table)
        for keyword in direct_interests:
            keyword_id = table._slot(keyword)
            table._weight[keyword_id] = 0.5
            table._direct[keyword_id] = True
            table._last[keyword_id] = created_at
            table._present[keyword_id] = True
        return table

    def _grow_rows(self, need: int) -> None:
        old = self._w.shape[0]
        new = max(old * 2, need)
        for name in ("_w", "_d", "_l", "_p"):
            array = getattr(self, name)
            grown = np.zeros((new, array.shape[1]), dtype=array.dtype)
            grown[:old] = array
            setattr(self, name, grown)
        for table in self._tables:
            table._attach()

    def ensure_columns(self, keyword_id: int) -> None:
        """Widen all rows to cover ``keyword_id`` (geometric growth)."""
        old = self._w.shape[1]
        if keyword_id < old:
            return
        new = max(old * 2, keyword_id + 1)
        for name in ("_w", "_d", "_l", "_p"):
            array = getattr(self, name)
            grown = np.zeros((array.shape[0], new), dtype=array.dtype)
            grown[:, :old] = array
            setattr(self, name, grown)
        for table in self._tables:
            table._attach()

    # ------------------------------------------------------------------
    # Batched tick operations
    # ------------------------------------------------------------------
    def batch_decay(
        self,
        rows: np.ndarray,
        connected: np.ndarray,
        now: float,
        *,
        beta: float,
        prune_below: float = 1e-3,
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Algorithm 1 over many rows at once.

        Args:
            rows: Distinct store rows to decay.  Rows are updated
                independently: the caller supplies each row's connected
                mask, so rows may be each other's peers.  A row with no
                present column is left untouched (no stamp, no version
                bump), like the per-table path's early return.
            connected: ``(len(rows), columns)`` bool mask of keyword
                columns held by each row's currently-connected peers.
            now: Current time ``T_c``.
            beta: Decay constant.
            prune_below: Transient prune threshold.

        Returns:
            ``None`` when no row pruned, else ``(positions, masks)``:
            the indices into ``rows`` that pruned and, per such row,
            the bool mask of the columns it pruned.

        Per element this evaluates exactly the per-table expression
        (stamp connected ``T_l`` first, ``(w - half)/max(beta·dt, 1) +
        half``, prune transients below the threshold), so the floats
        are bit-identical to ``InterestTable.decay`` (``beta * dt`` and
        ``dt * beta`` are the same IEEE product).  It runs on the
        present cells only: tables are sparse in the shared keyword
        space, and a stamp on an absent column is dormant storage
        (rewritten when the column is acquired), so only present
        connected cells are stamped.
        """
        # The store arrays are always allocated whole (C-contiguous),
        # so the flat reshapes below are writable views.
        columns = self._w.shape[1]
        present = self._p[rows]
        last = self._l.reshape(-1)
        block = np.flatnonzero(present & connected)
        last[rows[block // columns] * columns + block % columns] = now
        block = np.flatnonzero(present & ~connected)
        block_row = block // columns
        cells = rows[block_row] * columns + block % columns
        den = np.subtract(now, last[cells])
        stale = den > 0.0
        cells = cells[stale]
        block_row = block_row[stale]
        den = den[stale]
        den *= beta
        np.maximum(den, 1.0, out=den)
        direct = self._d.reshape(-1)[cells]
        half = direct * 0.5
        weight = self._w.reshape(-1)
        decayed = weight[cells]
        decayed -= half
        decayed /= den
        decayed += half
        weight[cells] = decayed
        prune = decayed < prune_below
        prune &= ~direct
        tables = self._tables
        result = None
        if prune.any():
            dead = cells[prune]
            weight[dead] = 0.0
            self._p.reshape(-1)[dead] = False
            dead_row = block_row[prune]
            hit = np.zeros(rows.size, dtype=bool)
            hit[dead_row] = True
            positions = np.flatnonzero(hit)
            masks = np.zeros((positions.size, columns), dtype=bool)
            masks[np.searchsorted(positions, dead_row), dead % columns] = True
            result = (positions, masks)
            for k in positions.tolist():
                tables[rows[k]]._members_version += 1
        hit = np.zeros(rows.size, dtype=bool)
        hit[block_row] = True
        for k in np.flatnonzero(hit).tolist():
            tables[rows[k]].version += 1
        return result

    def batch_grow_pairs(
        self,
        rows_a: np.ndarray,
        rows_b: np.ndarray,
        effective: np.ndarray,
        now: float,
        *,
        growth_scale: float,
    ) -> None:
        """Algorithm 2, two-sided, over many contact pairs at once.

        Args:
            rows_a: First-endpoint store rows, one per ended contact.
            rows_b: Second-endpoint rows.  All rows across both arrays
                are distinct (the caller defers only non-interleaved
                pairs), so the two scatter-writes cannot collide.
            effective: Per-pair ``min(elapsed, cap)``; strictly > 0
                (zero-duration contacts are filtered by the caller, as
                the per-table path early-returns on them).
            now: Current time.
            growth_scale: Growth increment scale.

        Both sides grow from the *pre-exchange* gather of the other, so
        the update is symmetric exactly like
        ``ChitChatRouter.run_rtsr_growth``'s snapshot discipline.
        Absent columns hold weight exactly ``0.0`` by table invariant,
        so their deltas are ``0.0`` and they stay inactive — the same
        filtering ``snapshot_arrays`` performs.
        """
        W_a = self._w[rows_a]
        D_a = self._d[rows_a]
        P_a = self._p[rows_a]
        W_b = self._w[rows_b]
        D_b = self._d[rows_b]
        P_b = self._p[rows_b]
        eff = effective[:, None]
        self._grow_side(
            rows_a, W_a, D_a, P_a, W_b, D_b, eff, now, growth_scale
        )
        self._grow_side(
            rows_b, W_b, D_b, P_b, W_a, D_a, eff, now, growth_scale
        )

    def _grow_side(
        self,
        rows: np.ndarray,
        W: np.ndarray,
        D: np.ndarray,
        P: np.ndarray,
        peer_w: np.ndarray,
        peer_d: np.ndarray,
        eff: np.ndarray,
        now: float,
        growth_scale: float,
    ) -> None:
        # Same psi select and float expression (left to right) as
        # ``grow_from_arrays``; peer-absent columns contribute delta
        # exactly 0.0 and stay inactive.
        psi = np.where(P, np.where(D, 2, 4), 6) - peer_d
        delta = growth_scale * peer_w * eff / psi
        active = delta > 0.0
        fresh = active & ~P
        grown = active & P
        new_w = np.where(grown, np.minimum(W + delta, 1.0), W)
        new_w = np.where(fresh, np.minimum(delta, 1.0), new_w)
        self._w[rows] = new_w
        self._d[rows] = D & ~fresh
        self._l[rows] = np.where(active, now, self._l[rows])
        self._p[rows] = P | fresh
        changed = active.any(axis=1)
        acquired = fresh.any(axis=1)
        tables = self._tables
        for k, row in enumerate(rows.tolist()):
            if changed[k]:
                table = tables[row]
                table.version += 1
                if acquired[k]:
                    table._members_version += 1


def _write_row(
    table: InterestTable,
    entry: Tuple[np.ndarray, np.ndarray, np.ndarray, int, int],
) -> None:
    """Write a decay row planned by ``prepare_contact_batch`` (weights,
    stamps, presence, version, members version) into ``table``.  The
    store may have widened since the plan; new columns are untouched."""
    width = entry[0].size
    table._weight[:width] = entry[0]
    table._last[:width] = entry[1]
    table._present[:width] = entry[2]
    table.version = entry[3]
    table._members_version = entry[4]


class ChitChatRouter(Router):
    """The plain ChitChat protocol — the paper's comparison baseline.

    Args:
        beta: Decay constant.  The thesis example uses 2, but its own
            arithmetic is inconsistent (it reports 0.55 where the stated
            formula yields 0.51), and with beta=2 a transient interest
            divided by ``beta * dt`` dies within seconds of
            disconnection, killing multi-hop relaying outright.  The
            default 0.01 gives transient interests a ~100 s grace period
            (the clamp ``max(beta * dt, 1)`` binds until ``dt = 1/beta``)
            followed by hyperbolic decay — see DESIGN.md section 4.
        growth_scale: Scale applied to the growth increment (see module
            docstring).
        growth_elapsed_cap: Cap on the per-contact elapsed time used by
            growth, seconds.
        destinations_also_relay: Whether a destination keeps a copy in
            its buffer to serve further destinations (multicast
            dissemination, as the paper's "share with multiple
            destinations" implies).
        max_retransmissions: Retry budget per ``(receiver, message)``
            for transfers aborted by link-layer loss or corruption
            (never for mobility/churn aborts — the contact is gone).
            ``0`` (the default) disables retransmission entirely, which
            keeps fault-free runs bit-identical to the committed golden
            results.
        retransmit_backoff: Base delay before the first retry, seconds;
            doubles with each further attempt for the same copy.
    """

    name = "chitchat"

    #: Abort reasons eligible for retransmission (link survived).
    RETRYABLE_ABORTS = ("loss", "corruption")

    def __init__(
        self,
        *,
        beta: float = 0.01,
        growth_scale: float = 0.01,
        growth_elapsed_cap: float = 600.0,
        destinations_also_relay: bool = True,
        max_retransmissions: int = 0,
        retransmit_backoff: float = 30.0,
    ):
        super().__init__()
        if beta <= 0:
            raise ConfigurationError(f"beta must be > 0, got {beta!r}")
        if growth_scale <= 0:
            raise ConfigurationError(
                f"growth_scale must be > 0, got {growth_scale!r}"
            )
        if growth_elapsed_cap <= 0:
            raise ConfigurationError(
                f"growth_elapsed_cap must be > 0, got {growth_elapsed_cap!r}"
            )
        if max_retransmissions < 0:
            raise ConfigurationError(
                f"max_retransmissions must be >= 0, got {max_retransmissions!r}"
            )
        if retransmit_backoff <= 0:
            raise ConfigurationError(
                f"retransmit_backoff must be > 0, got {retransmit_backoff!r}"
            )
        self.beta = float(beta)
        self.growth_scale = float(growth_scale)
        self.growth_elapsed_cap = float(growth_elapsed_cap)
        self.destinations_also_relay = bool(destinations_also_relay)
        self.max_retransmissions = int(max_retransmissions)
        self.retransmit_backoff = float(retransmit_backoff)
        #: Keyword registry shared by every table this router creates;
        #: weight exchanges move id arrays, not strings.
        self.keyword_index = KeywordIndex()
        self._tables: Dict[int, InterestTable] = {}
        #: Fused [node × keyword] store backing every table when bound
        #: to an array-core world (see :meth:`bind`); None on the
        #: object-core path, where tables own their arrays.
        self._store: Optional[InterestStore] = None
        #: Pairs whose decay :meth:`prepare_contact_batch` planned this
        #: tick; ``run_rtsr_decay`` consumes them instead of decaying.
        self._planned: Set[Tuple[int, int]] = set()
        #: Planned rows still to be written at their side's sequential
        #: point: ``(pair, node) -> (weights, stamps, present, version,
        #: members version)`` (see :meth:`prepare_contact_batch`).
        self._deferred: Dict[
            Tuple[Tuple[int, int], int],
            Tuple[np.ndarray, np.ndarray, np.ndarray, int, int],
        ] = {}
        # Interned memo keys: ordered keyword sequence -> small int.
        # Messages cache their key in ``_memo_key`` (invalidated on
        # annotate), so the hot paths hash one int instead of a string
        # tuple on every memo lookup.  Equal sequences share a key —
        # exactly the sharing the tuple keys gave.
        self._memo_keys: Dict[Tuple[str, ...], int] = {}
        # Per-message keyword-id arrays, keyed by the interned memo
        # key.  Ids follow the iteration order of the message's
        # keyword frozenset (identical sequences build identically
        # iterating frozensets), which is the order the scalar sum
        # accumulated in — the bit-parity requirement.
        self._message_id_cache: Dict[int, np.ndarray] = {}
        # Retransmission attempts used: message uuid -> {receiver_id ->
        # attempts}.  Grouped by uuid so the whole book for a message
        # drops in O(1) when its TTL expires, and a receiver's budget
        # is pruned the moment a copy lands (no further retry can ever
        # fire usefully for it) — long runs stay bounded and a node
        # that re-originates a uuid after churn starts with a fresh
        # budget (see on_message_expired / _prune_retries).
        self._retry_counts: Dict[str, Dict[int, int]] = {}
        # Selections precomputed by the tick batcher:
        # (sender, receiver) -> (tick time, select_messages result).
        # Consumed (popped) by select_messages; the time stamp guards
        # against an entry leaking past its contact-up event.
        self._preselected: Dict[
            Tuple[int, int], Tuple[float, List[Tuple[Message, str]]]
        ] = {}
        # Per-sender buffer snapshots for the batched selection:
        # node id -> (buffer mutation counter, (messages, uuids, sizes,
        # uuid ranks, memo keys) as parallel lists in buffer order).
        # Keying on the mutation counter is sound because annotations —
        # the only other way a buffered message's selection identity
        # can change — happen only in the same event as (and after)
        # the buffer.add that bumped the counter, never between a
        # snapshot build and its use (snapshots are built and consumed
        # inside contact-up events; enrichment runs in
        # transfer-completion events).
        self._buffer_snaps: Dict[
            int,
            Tuple[
                int,
                Tuple[
                    List[Message], List[str], List[int],
                    List[int], List[int],
                ],
            ],
        ] = {}
        # Memoised interest sums and destination/relay roles: node id ->
        # (table version at compute time, {memo key -> S},
        # {memo key -> role}).  A node's whole cache is discarded the
        # moment its table version moves on, so decay, growth and
        # subscriptions invalidate every dependent sum and
        # classification at once (see InterestTable.version).
        self._sum_cache: Dict[
            int,
            Tuple[int, Dict[int, float], Dict[int, str]],
        ] = {}

    def bind(self, world) -> None:
        """Attach to ``world``; adopt the fused store on array cores.

        A world exposing a ``WorldState`` (``world.state``, also visible
        through the incentive layer's substrate context) owns a fused
        :class:`InterestStore`; every table this router creates becomes
        a row of it and the world may drive the batched contact hooks.
        Object-core worlds get standalone per-node tables — the
        reference implementation stays untouched.
        """
        super().bind(world)
        state = getattr(world, "state", None)
        if state is not None and hasattr(state, "attach_interest_store"):
            store = getattr(state, "interest_store", None)
            if store is None or store.index is not self.keyword_index:
                store = InterestStore(self.keyword_index)
                state.attach_interest_store(store)
            self._store = store

    @property
    def supports_contact_batching(self) -> bool:
        """Batched contact hooks need the fused store (SoA path only)."""
        return self._store is not None

    # ------------------------------------------------------------------
    # RTSR state
    # ------------------------------------------------------------------
    def table(self, node_id: int) -> InterestTable:
        """The RTSR table for ``node_id`` (created lazily)."""
        existing = self._tables.get(node_id)
        if existing is None:
            node = self.world.node(node_id)
            if self._store is not None:
                existing = self._store.create_table(
                    node.interests, created_at=self.world.now
                )
            else:
                existing = InterestTable(
                    node.interests,
                    created_at=self.world.now,
                    index=self.keyword_index,
                )
            self._tables[node_id] = existing
        return existing

    def interest_sum(self, node_id: int, message: Message) -> float:
        """``S`` for ``message`` at ``node_id``.

        Memoised per ``(node, message keyword sequence)`` and
        invalidated by the table's version counter, so every buffered
        message offered during one encounter reuses a single
        computation.  The cache key is the *ordered* keyword sequence
        (not the set): the sum iterates the message's keyword frozenset,
        whose iteration order depends on construction order, and
        bit-identical results require replaying exactly that order.
        """
        table = self._tables.get(node_id)
        if table is None:
            table = self.table(node_id)
        cached = self._sum_cache.get(node_id)
        if cached is None or cached[0] != table.version:
            cached = (table.version, {}, {})
            self._sum_cache[node_id] = cached
        sums = cached[1]
        key = message._memo_key
        if key is None:
            key = self._intern_key(message)
        value = sums.get(key)
        if value is None:
            value = table.sum_for_ids(self._message_ids(message, key))
            sums[key] = value
        return value

    def _intern_key(self, message: Message) -> int:
        """Assign (or look up) the interned memo key for ``message``.

        Cold path of the ``message._memo_key`` cache: sequences seen
        before reuse their int, new ones take the next one.
        """
        sequence = message.keyword_sequence
        keys = self._memo_keys
        key = keys.get(sequence)
        if key is None:
            key = len(keys)
            keys[sequence] = key
        message._memo_key = key
        return key

    def _message_ids(self, message: Message, key: int) -> np.ndarray:
        """``message``'s keywords as ids, in frozenset iteration order.

        ``key`` must be ``message``'s interned memo key (the caller
        already has it on every path).
        """
        ids = self._message_id_cache.get(key)
        if ids is None:
            id_of = self.keyword_index.id_of
            ids = np.asarray(
                [id_of(k) for k in message.keywords], dtype=np.int64
            )
            self._message_id_cache[key] = ids
        return ids

    def _connected_keywords(self, node_id: int) -> Set[str]:
        """Keywords held by any currently connected peer of ``node_id``."""
        keywords: Set[str] = set()
        for link in self.world.active_links(node_id):
            peer = link.peer_of(node_id)
            keywords |= self.table(peer).keywords
        return keywords

    def _connected_ids(self, node_id: int) -> np.ndarray:
        """Keyword ids held by any currently connected peer (id-space
        analogue of :meth:`_connected_keywords`; same shared index).

        Iterates the world's zero-copy open-link view and resolves
        peer tables straight from the table dict: this runs twice per
        contact, so the ``active_links`` list build and ``peer_of``
        calls it replaced were a real cost at scale.
        """
        tables = self._tables
        parts = []
        for link in self.world.open_links(node_id):
            peer = link.b if link.a == node_id else link.a
            peer_table = tables.get(peer)
            if peer_table is None:
                peer_table = self.table(peer)
            parts.append(peer_table.present_ids())
        if not parts:
            return _EMPTY_IDS
        if len(parts) == 1:
            return parts[0]
        # Duplicates across peers are fine: decay consumes this as a
        # membership mask, so neither deduplication nor concatenation
        # would buy anything — hand the parts over as-is.
        return parts

    def run_rtsr_decay(self, link: Link) -> None:
        """Phase one of the weight exchange: decay on both endpoints.

        A pair planned by :meth:`prepare_contact_batch` only writes the
        rows its sides deferred to this point; any other pair decays
        per table.
        """
        pair = link.pair
        planned = self._planned
        if pair in planned:
            planned.discard(pair)
            deferred = self._deferred
            if deferred:
                for node_id in pair:
                    entry = deferred.pop((pair, node_id), None)
                    if entry is not None:
                        _write_row(self._tables[node_id], entry)
            return
        now = self.world.now
        for node_id in pair:
            self.table(node_id).decay(
                now, self._connected_ids(node_id), beta=self.beta
            )

    def run_rtsr_growth(self, link: Link, elapsed: float) -> None:
        """Phase three: growth on both endpoints from the peer's table."""
        now = self.world.now
        table_a = self.table(link.a)
        table_b = self.table(link.b)
        # Grow from snapshots so the update is symmetric (b must not see
        # a's freshly grown weights); snapshots are id arrays over the
        # router-shared keyword index.
        ids_a, weights_a, direct_a = table_a.snapshot_arrays()
        ids_b, weights_b, direct_b = table_b.snapshot_arrays()
        table_a.grow_from_arrays(
            ids_b, weights_b, direct_b, now, elapsed,
            growth_scale=self.growth_scale,
            elapsed_cap=self.growth_elapsed_cap,
        )
        table_b.grow_from_arrays(
            ids_a, weights_a, direct_a, now, elapsed,
            growth_scale=self.growth_scale,
            elapsed_cap=self.growth_elapsed_cap,
        )

    # ------------------------------------------------------------------
    # Routing decisions
    # ------------------------------------------------------------------
    def classify(self, receiver_id: int, message: Message) -> str:
        """Operator *DecideDestOrRelay*: ``"destination"`` or ``"relay"``.

        A device with a *direct* interest in any tag is a destination;
        one with only transient interest is a relay candidate.

        Memoised alongside :meth:`interest_sum` (same version-keyed
        cache): a contact classifies every buffered message against the
        same table, and the answer only changes when the table does.
        """
        table = self._tables.get(receiver_id)
        if table is None:
            table = self.table(receiver_id)
        cached = self._sum_cache.get(receiver_id)
        if cached is None or cached[0] != table.version:
            cached = (table.version, {}, {})
            self._sum_cache[receiver_id] = cached
        roles = cached[2]
        key = message._memo_key
        if key is None:
            key = self._intern_key(message)
        role = roles.get(key)
        if role is None:
            if table.any_direct_ids(self._message_ids(message, key)):
                role = "destination"
            else:
                role = "relay"
            roles[key] = role
        return role

    def wants_as_relay(
        self, sender_id: int, receiver_id: int, message: Message
    ) -> bool:
        """The ChitChat forwarding rule ``S_v > S_u``."""
        return (
            self.interest_sum(receiver_id, message)
            > self.interest_sum(sender_id, message)
        )

    def select_messages(
        self, sender_id: int, receiver_id: int
    ) -> List[Tuple[Message, str]]:
        """Messages ``sender`` should offer ``receiver``, with their role.

        Returns:
            ``(message, "destination"|"relay")`` pairs, destinations
            first, then relays by descending receiver interest strength
            (so the most valuable transfers survive short contacts).
        """
        pre = self._preselected
        if pre:
            entry = pre.pop((sender_id, receiver_id), None)
            if entry is not None and entry[0] == self.world.now:
                # Precomputed by _preselect in this tick's batch hook;
                # the stamp check discards anything that somehow
                # outlived its contact-up event (e.g. an admitted pair
                # whose exchange a subclass suppressed).
                return entry[1]
        sender = self.world.node(sender_id)
        if len(sender.buffer) == 0:
            return []
        receiver = self.world.node(receiver_id)

        # Memo-dict setup first: both endpoint tables already exist
        # (prepare_contact decayed them), so the lookups create nothing.
        # The batch fills the same version-keyed dicts that
        # classify()/interest_sum() consult, one gather per table for
        # every cold key (the receive path afterwards hits warm
        # entries).  Sender sums are filled for destinations too —
        # harmless extra memo entries, and cheaper in the batch than a
        # second cold pass for the relay comparison.
        table_r = self.table(receiver_id)
        cached = self._sum_cache.get(receiver_id)
        if cached is None or cached[0] != table_r.version:
            cached = (table_r.version, {}, {})
            self._sum_cache[receiver_id] = cached
        sums_r = cached[1]
        roles_r = cached[2]
        table_s = self.table(sender_id)
        cached = self._sum_cache.get(sender_id)
        if cached is None or cached[0] != table_s.version:
            cached = (table_s.version, {}, {})
            self._sum_cache[sender_id] = cached
        sums_s = cached[1]

        # Single pass: per-message filters fused with cold-key
        # collection.
        candidates: List[Tuple[int, Message]] = []
        miss_r: List[Tuple[int, np.ndarray]] = []
        miss_s: List[Tuple[int, np.ndarray]] = []
        has_seen = receiver.has_seen
        receiver_capacity = receiver.buffer.capacity
        intern_key = self._intern_key
        for message in sender.buffer.messages():
            if has_seen(message.uuid):
                continue
            if message.size > receiver_capacity:
                continue
            key = message._memo_key
            if key is None:
                key = intern_key(message)
            candidates.append((key, message))
            # interest_sum()/classify() each warm only their own dict,
            # so sums and roles can be cold independently; recomputing
            # a warm half alongside the cold one is bit-identical.
            if key not in sums_r or key not in roles_r:
                sums_r[key] = None  # reserve so duplicates batch once
                roles_r[key] = None
                miss_r.append((key, self._message_ids(message, key)))
            if key not in sums_s:
                sums_s[key] = None
                miss_s.append((key, self._message_ids(message, key)))
        if not candidates:
            return []
        if miss_r:
            table_r.batch_fill(miss_r, sums_r, roles_r)
        if miss_s:
            table_s.batch_fill(miss_s, sums_s, None)

        # Pass 3: the original per-message decision, now pure dict
        # reads.  ``strength > sums_s[key]`` is wants_as_relay() on the
        # identical floats.
        destinations: List[Tuple[float, Message]] = []
        relays: List[Tuple[float, Message]] = []
        for key, message in candidates:
            strength = sums_r[key]
            if roles_r[key] == "destination":
                destinations.append((strength, message))
            elif strength > sums_s[key]:
                relays.append((strength, message))
        destinations.sort(key=lambda item: (-item[0], item[1].uuid))
        relays.sort(key=lambda item: (-item[0], item[1].uuid))
        return (
            [(m, "destination") for _, m in destinations]
            + [(m, "relay") for _, m in relays]
        )

    def relay_affinity(self, node_id: int, message: Message) -> float:
        """ChitChat's relay preference is the interest sum ``S``."""
        return self.interest_sum(node_id, message)

    def relay_trust(self, receiver_id: int, message: Message) -> float:
        """Average tag weight — the paper's relay-threshold signal."""
        key = message._memo_key
        if key is None:
            key = self._intern_key(message)
        ids = self._message_ids(message, key)
        if ids.size == 0:
            return 0.0
        return self.table(receiver_id).sum_for_ids(ids) / ids.size

    # ------------------------------------------------------------------
    # World hooks
    # ------------------------------------------------------------------
    def prepare_contact(self, link: Link) -> None:
        """Phase one of the weight exchange: decay on both endpoints."""
        self.run_rtsr_decay(link)

    def prepare_contact_batch(
        self, pairs: List[Tuple[int, int]]
    ) -> None:
        """Plan the decay phase of a whole admitted contact batch.

        The world (SoA core) calls this once per contact-up tick with
        every admitted pair (distinct, in tick order), *before* any
        link is created or exchange runs.  Every decay side of the tick
        runs here through :meth:`InterestStore.batch_decay` in
        occurrence rounds: a node's k-th pair of the tick goes in round
        k, so each round is one kernel call over distinct rows and a
        node's own decays keep their order.

        Exactness rests on one rule: a side reads each connected
        peer's membership *as of its own sequential position* (pair j's
        first endpoint decays at position 2j, its second at 2j + 1).
        Membership only shrinks during an up tick (growth and
        subscriptions happen elsewhere, fresh tables hold only their
        direct interests wherever they are created), and the one
        shrinking operation is the decay prune.  So a side's stamp mask
        is the OR of its peers' tick-start membership — tick-start open
        peers plus the partners of its pairs so far — minus the columns
        each peer pruned at an earlier position.  Rounds stamp with the
        prune-free OR and log the prunes the kernel actually performed;
        a node with a side after a logged prune of a peer, on a column
        it holds (a stamp on an absent column is dormant storage), is
        then replayed from its tick-start row with exact masks read
        through the log, and any change to its own prune log replays
        its readers in turn.  Changes only travel to strictly later
        positions, so the fixpoint converges by induction on position.

        The rest of the tick reads tables only through exchanges, and
        an exchange reads them only when a sender's buffer is non-empty
        (buffers are frozen for the whole up tick).  A node's final row
        is therefore written now when no pair before its last side has
        a non-empty buffer on either endpoint.  Any other node keeps
        its tick-start row; its planned rows (and version counters) are
        written by ``run_rtsr_decay`` at each side's sequential point.

        Empty tables are exact no-ops on both paths — the per-table
        decay early-returns on them (no stamp, no version bump) — and
        so are tables whose present columns are all stamped at ``now``
        (nothing decays or prunes).  Neither reaches the kernel, nor do
        rows a prune empties mid-tick.
        """
        store = self._store
        if store is None:
            return
        planned = self._planned
        planned.clear()
        planned.update(pairs)
        deferred = self._deferred
        deferred.clear()
        world = self.world
        now = world.now
        beta = self.beta
        table = self.table
        tables = self._tables
        # Local ids: the tick's nodes in first-appearance order, then
        # tick-start open peers outside the tick.  Per tick node: the
        # positions of its sides and the partner of each side.
        local: Dict[int, int] = {}
        nodes: List[int] = []
        side_pos: List[List[int]] = []
        side_peer: List[List[int]] = []
        rounds: List[List[int]] = []
        for j, pair in enumerate(pairs):
            ends = []
            for node in pair:
                i = local.get(node)
                if i is None:
                    i = local[node] = len(nodes)
                    nodes.append(node)
                    side_pos.append([])
                    side_peer.append([])
                ends.append(i)
            ia, ib = ends
            for i, peer, position in ((ia, ib, 2 * j), (ib, ia, 2 * j + 1)):
                k = len(side_pos[i])
                if k == len(rounds):
                    rounds.append([])
                rounds[k].append(i)
                side_pos[i].append(position)
                side_peer[i].append(peer)
        # Materialise every table this tick's decays would read (the
        # per-pair path creates partner and open-peer tables inside
        # ``_connected_ids``; fresh-table contents do not depend on
        # creation order within the tick), list each node's tick-start
        # open peers (by depth: ``by_depth[d]`` holds every node's d-th
        # peer) and find the first pair that can read tables — the
        # earliest pair of any node with a buffered message.
        n_tick = len(nodes)
        open_links = world.open_links
        node_of = world.node
        first_read = len(pairs)
        start_peers: List[List[int]] = []
        by_depth: List[Tuple[List[int], List[int]]] = []
        for i in range(n_tick):
            node = nodes[i]
            if node not in tables:
                table(node)
            if len(node_of(node).buffer) and side_pos[i][0] < 2 * first_read:
                first_read = side_pos[i][0] // 2
            peers = []
            for link in open_links(node):
                peer = link.b if link.a == node else link.a
                q = local.get(peer)
                if q is None:
                    q = local[peer] = len(nodes)
                    nodes.append(peer)
                    if peer not in tables:
                        table(peer)
                if len(peers) == len(by_depth):
                    by_depth.append(([], []))
                owners, members = by_depth[len(peers)]
                owners.append(i)
                members.append(q)
                peers.append(q)
            start_peers.append(peers)
        rows_all = np.fromiter(
            (tables[n]._row for n in nodes), dtype=np.intp, count=len(nodes)
        )
        member0 = store._p[rows_all]
        tick_rows = rows_all[:n_tick]
        # Live nodes hold a present row whose stamp is behind ``now``.
        # Every other tick node is an exact no-op all tick: an empty
        # row early-returns, and a row stamped at ``now`` on every
        # present column has nothing to decay or prune (a stamp only
        # ever moves to ``now``); its other columns' stamps are dormant
        # storage, rewritten when the column is acquired.
        candidates = np.flatnonzero(member0[:n_tick].any(axis=1))
        last0 = store._l[tick_rows[candidates]]
        moving = ((last0 < now) & member0[candidates]).any(axis=1)
        live = candidates[moving]
        last0 = last0[moving]
        live_rows = tick_rows[live]
        weight0 = store._w[live_rows]
        slot = [-1] * n_tick
        for s, i in enumerate(live.tolist()):
            slot[i] = s
        dead = [s < 0 for s in slot]

        defer = [
            slot[i] >= 0 and side_pos[i][-1] // 2 > first_read
            for i in range(n_tick)
        ]
        versions0 = [
            (t._members_version, t.version)
            for t in (tables[nodes[i]] for i in live.tolist())
        ]

        # Prune-free stamp masks (tick-start open peers now, one
        # partner more per round).
        columns = store.columns
        masks = np.zeros((n_tick, columns), dtype=bool)
        for owners, members in by_depth:
            masks[owners] |= member0[members]

        # local id -> {position: columns the kernel pruned there}
        prunes: Dict[int, Dict[int, np.ndarray]] = {}
        # local id -> earliest side that read a logged prune (rounds
        # read prune-free masks; these nodes are replayed)
        stale_from: Dict[int, int] = {}

        def exact_mask(i: int, k: int) -> np.ndarray:
            position = side_pos[i][k]
            mask = np.zeros(columns, dtype=bool)
            for q in start_peers[i] + side_peer[i][:k + 1]:
                member = member0[q]
                for p, cols in prunes.get(q, {}).items():
                    if p < position:
                        member = member & ~cols
                mask |= member
            return mask

        def mark_readers(q: int, position: int, cols: np.ndarray) -> None:
            # Every side that reads q's membership after ``position``
            # and holds a column q pruned there (a stamp on an absent
            # column is dormant): tick-start open peers from their
            # first side, partners from their side of the shared pair
            # (at position 2j or 2j + 1) on.
            readers = [(m, position) for m in start_peers[q] if m < n_tick]
            readers.extend(
                (m, max(position, side_pos[q][k] // 2 * 2 - 1))
                for k, m in enumerate(side_peer[q])
            )
            for m, after in readers:
                if slot[m] < 0 or not (cols & member0[m]).any():
                    continue
                k = bisect_right(side_pos[m], after)
                if k >= len(side_pos[m]):
                    continue
                if k < stale_from.get(m, k + 1):
                    stale_from[m] = k

        def defer_side(i: int, k: int, w, last, present) -> None:
            t = tables[nodes[i]]
            deferred[(pairs[side_pos[i][k] // 2], nodes[i])] = (
                w, last, present, t.version, t._members_version,
            )

        for k, members in enumerate(rounds):
            idx = [i for i in members if not dead[i]]
            if not idx:
                continue
            idx_arr = np.asarray(idx, dtype=np.intp)
            partners = np.fromiter(
                (side_peer[i][k] for i in idx), dtype=np.intp, count=len(idx)
            )
            connected = masks[idx_arr] | member0[partners]
            masks[idx_arr] = connected
            rows = tick_rows[idx_arr]
            result = store.batch_decay(rows, connected, now, beta=beta)
            if result is not None:
                for t, cols in zip(result[0].tolist(), result[1]):
                    i = idx[t]
                    position = side_pos[i][k]
                    prunes.setdefault(i, {})[position] = cols
                    if not store._p[rows[t]].any():
                        dead[i] = True
                    mark_readers(i, position, cols)
            picked = [t for t, i in enumerate(idx) if defer[i]]
            if picked:
                block = rows[picked]
                w_rows = store._w[block]
                l_rows = store._l[block]
                p_rows = store._p[block]
                for n, t in enumerate(picked):
                    defer_side(idx[t], k, w_rows[n], l_rows[n], p_rows[n])

        if stale_from:
            queue = [(side_pos[m][k], m) for m, k in stale_from.items()]
            heapq.heapify(queue)
            while queue:
                _, m = heapq.heappop(queue)
                if stale_from.pop(m, None) is None:
                    continue
                # Replay m from its tick-start row with exact masks.
                s = slot[m]
                row = live_rows[s]
                store._w[row] = weight0[s]
                store._l[row] = last0[s]
                store._p[row] = member0[m]
                t = tables[nodes[m]]
                t._members_version, t.version = versions0[s]
                old = prunes.pop(m, {})
                new: Dict[int, np.ndarray] = {}
                dead[m] = False
                for k, position in enumerate(side_pos[m]):
                    if dead[m]:
                        deferred.pop((pairs[position // 2], nodes[m]), None)
                        continue
                    result = store.batch_decay(
                        live_rows[s:s + 1], exact_mask(m, k)[None, :],
                        now, beta=beta,
                    )
                    if result is not None:
                        new[position] = result[1][0]
                        dead[m] = not store._p[row].any()
                    if defer[m]:
                        defer_side(
                            m, k, store._w[row].copy(),
                            store._l[row].copy(), store._p[row].copy(),
                        )
                if new:
                    prunes[m] = new
                for position in sorted(old.keys() | new.keys()):
                    before = old.get(position)
                    after = new.get(position)
                    if before is None:
                        mark_readers(m, position, after)
                    elif after is None:
                        mark_readers(m, position, before)
                    elif not np.array_equal(before, after):
                        mark_readers(m, position, before ^ after)
                for q, k in stale_from.items():
                    heapq.heappush(queue, (side_pos[q][k], q))

        eligible = [
            pair
            for j, pair in enumerate(pairs)
            if all(
                slot[i] < 0 or side_pos[i][0] // 2 == j
                for i in (local[pair[0]], local[pair[1]])
            )
        ]
        held = [i for i in range(n_tick) if defer[i]]
        if not held:
            self._preselect(eligible, now)
            return
        # Deferred nodes: show each its first-side row while the
        # preselection reads it (a pair is eligible only at both
        # endpoints' first side), then put back the tick-start row.
        for i in held:
            _write_row(
                tables[nodes[i]],
                deferred[(pairs[side_pos[i][0] // 2], nodes[i])],
            )
        self._preselect(eligible, now)
        held_slots = [slot[i] for i in held]
        held_rows = live_rows[held_slots]
        store._w[held_rows] = weight0[held_slots]
        store._l[held_rows] = last0[held_slots]
        store._p[held_rows] = member0[held]
        for i, s in zip(held, held_slots):
            t = tables[nodes[i]]
            t._members_version, t.version = versions0[s]

    def _buffer_entries(
        self, node
    ) -> Tuple[
        List[Message], List[str], List[int], List[int], List[int]
    ]:
        """Snapshot of ``node``'s buffer for the batched selection.

        Parallel lists ``(messages, uuids, sizes, ranks, keys)`` in
        buffer (arrival) order; rank is the message's position in the
        uuid-sorted order of this buffer, which is all the global
        lexsort needs to replay the ``(-strength, uuid)`` tiebreak —
        ties can only form between messages of the same buffer — and
        ``keys`` are the interned memo keys (interning here keeps the
        per-side hot loop free of attribute checks).  Cached on
        :attr:`MessageBuffer.mutations`, valid because uuid/size/
        keywords are immutable and annotation (which the counter
        ignores) never touches them.
        """
        buffer = node.buffer
        token = buffer.mutations
        snap = self._buffer_snaps.get(node.node_id)
        if snap is not None and snap[0] == token:
            return snap[1]
        messages = buffer.messages()
        by_uuid = sorted(range(len(messages)), key=lambda i: messages[i].uuid)
        ranks = [0] * len(messages)
        for rank, i in enumerate(by_uuid):
            ranks[i] = rank
        intern_key = self._intern_key
        entry = (
            messages,
            [m.uuid for m in messages],
            [m.size for m in messages],
            ranks,
            [
                m._memo_key if m._memo_key is not None else intern_key(m)
                for m in messages
            ],
        )
        self._buffer_snaps[node.node_id] = (token, entry)
        return entry

    def _preselect(self, pairs: List[Tuple[int, int]], now: float) -> None:
        """Precompute ``select_messages`` for both sides of ``pairs``.

        Runs at the tail of :meth:`prepare_contact_batch` over the pairs
        at which each endpoint is at its first side of the tick or
        holds a row no decay of the tick changes.  Each endpoint's
        table then reads, while this runs, exactly as at that pair's
        exchange: a deferred node is shown its first-side row for the
        duration of this call, and a node whose final row is already
        written either has no later side or sits in a pair with both
        buffers empty, whose selection reads no table.  Everything else ``select_messages`` reads is frozen for the
        whole up tick: buffers, seen-sets and capacities only change in
        transfer-completion events (``send_message`` just queues), and
        the whole tick's opens run inside one engine callback.  So
        computing these sides now is bit-identical — and lets candidate
        filtering, interest sums, classification and the
        ``(-strength, uuid)`` ordering run as one fused pass instead of
        two table gathers and two Python sorts per pair.

        Sides not stored here take the sequential ``select_messages``
        path unchanged.
        """
        preselected = self._preselected
        preselected.clear()
        store = self._store
        world = self.world
        node_of = world.node
        message_ids = self._message_ids
        sum_cache = self._sum_cache
        table = self.table

        # Per-node memo dicts, version-checked once per tick (versions
        # cannot move between here and the safe pairs' exchanges).
        caches: Dict[int, Tuple[Dict[int, float], Dict[int, str]]] = {}

        def memo_for(node_id: int) -> Tuple[Dict[int, float], Dict[int, str]]:
            entry = caches.get(node_id)
            if entry is None:
                t = table(node_id)
                cached = sum_cache.get(node_id)
                if cached is None or cached[0] != t.version:
                    cached = (t.version, {}, {})
                    sum_cache[node_id] = cached
                entry = (cached[1], cached[2])
                caches[node_id] = entry
            return entry

        # Unified slot table: one ``(value, is-destination)`` entry per
        # needed table read, so the keep/order decision below is pure
        # array gathers.  Warm entries copy the memo value at creation;
        # cold ones queue a fused-store gather request and are filled
        # (and written back to the memos) after the batch compute.
        # Receiver- and sender-space slots are indexed separately — a
        # receiver slot needs the sum *and* the role warm, a sender
        # slot only the sum — so one node can occupy a slot in each
        # space for the same key; the cold recompute is bit-identical
        # and the memo writeback idempotent, exactly like the
        # sequential path's "harmless extra memo entries".
        rslot_index: Dict[Tuple[int, int], int] = {}
        sslot_index: Dict[Tuple[int, int], int] = {}
        slot_vals: List[float] = []
        slot_dest: List[bool] = []
        req_slots: List[int] = []
        req_rows: List[int] = []
        req_keys: List[int] = []
        req_sums: List[Dict[int, float]] = []
        req_roles: List[Dict[int, str]] = []
        key_slots: Dict[int, List[int]] = {}
        key_ids: Dict[int, np.ndarray] = {}

        sides: List[Tuple[int, int]] = []
        flat_side: List[int] = []
        flat_rank: List[int] = []
        flat_rslot: List[int] = []
        flat_sslot: List[int] = []
        flat_msg: List[Message] = []
        append_side = flat_side.append
        append_rank = flat_rank.append
        append_rs = flat_rslot.append
        append_ss = flat_sslot.append
        append_msg = flat_msg.append

        for a, b in pairs:
            for sender_id, receiver_id in ((a, b), (b, a)):
                side = len(sides)
                sides.append((sender_id, receiver_id))
                messages, uuids, sizes, ranks, keys = self._buffer_entries(
                    node_of(sender_id)
                )
                if not messages:
                    continue
                receiver = node_of(receiver_id)
                seen = receiver.seen
                receiver_capacity = receiver.buffer.capacity
                sums_r, roles_r = memo_for(receiver_id)
                sums_s, roles_s = memo_for(sender_id)
                recv_row = table(receiver_id)._row
                send_row = table(sender_id)._row
                local: Dict[int, Tuple[int, int]] = {}
                local_get = local.get
                for i, uuid in enumerate(uuids):
                    if uuid in seen or sizes[i] > receiver_capacity:
                        continue
                    key = keys[i]
                    slots = local_get(key)
                    if slots is None:
                        rs = rslot_index.get((receiver_id, key))
                        if rs is None:
                            rs = len(slot_vals)
                            rslot_index[(receiver_id, key)] = rs
                            if key in sums_r and key in roles_r:
                                slot_vals.append(sums_r[key])
                                slot_dest.append(
                                    roles_r[key] == "destination"
                                )
                            else:
                                slot_vals.append(0.0)
                                slot_dest.append(False)
                                req_slots.append(rs)
                                req_rows.append(recv_row)
                                req_keys.append(key)
                                req_sums.append(sums_r)
                                req_roles.append(roles_r)
                                if key not in key_ids:
                                    key_ids[key] = message_ids(
                                        messages[i], key
                                    )
                                key_slots.setdefault(key, []).append(
                                    len(req_rows) - 1
                                )
                        ss = sslot_index.get((sender_id, key))
                        if ss is None:
                            ss = len(slot_vals)
                            sslot_index[(sender_id, key)] = ss
                            if key in sums_s:
                                slot_vals.append(sums_s[key])
                                slot_dest.append(False)
                            else:
                                slot_vals.append(0.0)
                                slot_dest.append(False)
                                req_slots.append(ss)
                                req_rows.append(send_row)
                                req_keys.append(key)
                                req_sums.append(sums_s)
                                req_roles.append(roles_s)
                                if key not in key_ids:
                                    key_ids[key] = message_ids(
                                        messages[i], key
                                    )
                                key_slots.setdefault(key, []).append(
                                    len(req_rows) - 1
                                )
                        local[key] = slots = (rs, ss)
                    append_side(side)
                    append_rank(ranks[i])
                    append_rs(slots[0])
                    append_ss(slots[1])
                    append_msg(messages[i])

        if req_rows:
            kmax = max(key_ids[key].size for key in key_slots)
            n_req = len(req_rows)
            if kmax == 0:
                sums_list = [0] * n_req
                dest_list = [False] * n_req
            else:
                ids_mat = np.zeros((n_req, kmax), dtype=np.int64)
                valid = np.zeros((n_req, kmax), dtype=bool)
                empty_reqs: List[int] = []
                for key, slots in key_slots.items():
                    ids = key_ids[key]
                    n = ids.size
                    if n == 0:
                        empty_reqs.extend(slots)
                        continue
                    ids_mat[slots, :n] = ids
                    valid[slots, :n] = True
                rows_arr = np.asarray(req_rows, dtype=np.intp)
                # Mirrors sum_for_ids/any_direct_ids exactly: ids at or
                # beyond the column capacity contribute weight 0.0 and
                # direct False; the accumulation is left-to-right with
                # trailing 0.0 padding, which never moves an IEEE sum
                # (weights are never -0.0).
                eff = valid & (ids_mat < store.columns)
                safe_ids = np.where(eff, ids_mat, 0)
                Wm = store._w[rows_arr[:, None], safe_ids]
                Wm[~eff] = 0.0
                acc = Wm[:, 0]
                for j in range(1, kmax):
                    acc = acc + Wm[:, j]
                dest = (
                    store._p[rows_arr[:, None], safe_ids]
                    & store._d[rows_arr[:, None], safe_ids]
                    & eff
                ).any(axis=1)
                sums_list = acc.tolist()
                dest_list = dest.tolist()
                for pos in empty_reqs:
                    # sum_for_ids returns the int 0 for an empty id
                    # array — preserve the exact memo contents.
                    sums_list[pos] = 0
                    dest_list[pos] = False
            for pos in range(n_req):
                value = sums_list[pos]
                is_dest = dest_list[pos]
                key = req_keys[pos]
                req_sums[pos][key] = value
                req_roles[pos][key] = (
                    "destination" if is_dest else "relay"
                )
                slot = req_slots[pos]
                slot_vals[slot] = value
                slot_dest[slot] = is_dest

        results: List[List[Tuple[Message, str]]] = [[] for _ in sides]
        if flat_msg:
            vals = np.asarray(slot_vals, dtype=np.float64)
            dests = np.asarray(slot_dest, dtype=bool)
            rs_arr = np.asarray(flat_rslot, dtype=np.intp)
            S_r = vals[rs_arr]
            dest_flags = dests[rs_arr]
            keep = dest_flags | (
                S_r > vals[np.asarray(flat_sslot, dtype=np.intp)]
            )
            kept = np.flatnonzero(keep)
            if kept.size:
                # One global lexsort replays every side's two sequential
                # sorts: primary = side, then destinations before
                # relays, then descending strength, then the uuid rank
                # (ranks are per-buffer, but ties only form within one
                # side's buffer).  -0.0 vs 0.0 compare equal in both
                # sorts, so the negation is safe.
                side_arr = np.asarray(flat_side, dtype=np.intp)
                rank_arr = np.asarray(flat_rank, dtype=np.int64)
                order = np.lexsort((
                    rank_arr[kept],
                    -S_r[kept],
                    ~dest_flags[kept],
                    side_arr[kept],
                ))
                dflags = dest_flags.tolist()
                for idx in kept[order].tolist():
                    results[flat_side[idx]].append((
                        flat_msg[idx],
                        "destination" if dflags[idx] else "relay",
                    ))
        for i, side_pair in enumerate(sides):
            preselected[side_pair] = (now, results[i])

    def on_contact_start(self, link: Link) -> None:
        self.prepare_contact(link)
        self._exchange(link)

    def on_contact_end(self, link: Link) -> None:
        elapsed = self.world.now - link.opened_at
        self.run_rtsr_growth(link, elapsed)

    def contact_end_batch(self, links: List[Link]) -> None:
        """Run the growth phase for a whole tick of ended contacts.

        The world (SoA core) defers ``on_contact_end`` for *every*
        closed pair of the down tick and hands them here in close
        order.  The down tick reads interest tables only through these
        growths (close/abort handling touches none), so the only order
        that matters is each node's own growth sequence.  That is
        preserved exactly by round decomposition: a pair's round is one
        past the latest round either endpoint already appears in, so
        within a round every node appears at most once (the distinct-
        rows contract of ``batch_grow_pairs``) and a node's growths run
        in the same relative order as the per-pair path.  Each round is
        one store-level pass — snapshot-gather both sides first, then
        scatter, the same symmetry discipline as ``run_rtsr_growth`` —
        so the result is bit-identical.  At paper densities almost
        every pair lands in round zero.
        """
        store = self._store
        if store is None:
            for link in links:
                self.on_contact_end(link)
            return
        now = self.world.now
        cap = self.growth_elapsed_cap
        table = self.table
        last_round: Dict[int, int] = {}
        rounds: List[Tuple[List[int], List[int], List[float]]] = []
        for link in links:
            elapsed = now - link.opened_at
            clipped = min(elapsed, cap)
            if clipped <= 0.0:
                # Zero-duration contact: every delta is exactly 0.0 and
                # the per-pair path writes nothing (version included).
                # An exact no-op — skipped without consuming a round.
                continue
            a, b = link.pair
            r = max(last_round.get(a, -1), last_round.get(b, -1)) + 1
            last_round[a] = r
            last_round[b] = r
            if r == len(rounds):
                rounds.append(([], [], []))
            rows_a, rows_b, effective = rounds[r]
            rows_a.append(table(a)._row)
            rows_b.append(table(b)._row)
            effective.append(clipped)
        for rows_a, rows_b, effective in rounds:
            store.batch_grow_pairs(
                np.asarray(rows_a, dtype=np.intp),
                np.asarray(rows_b, dtype=np.intp),
                np.asarray(effective, dtype=np.float64),
                now,
                growth_scale=self.growth_scale,
            )

    def _exchange(self, link: Link) -> None:
        """Offer messages in both directions after the RTSR update."""
        for sender_id in link.pair:
            receiver_id = link.peer_of(sender_id)
            for message, _role in self.select_messages(sender_id, receiver_id):
                self.world.send_message(link, sender_id, message)

    def on_message_received(self, transfer: Transfer, link: Link) -> None:
        receiver = self.world.node(transfer.receiver)
        message = transfer.message
        message.record_hop(receiver.node_id)
        role = self.classify(receiver.node_id, message)
        if role == "destination":
            self.world.deliver(receiver, message)
            if self.destinations_also_relay:
                self.world.accept_relay(receiver, message)
        else:
            if not self.world.accept_relay(receiver, message):
                return
        self._prune_retries(message.uuid, receiver.node_id)
        self._forward_onward(receiver.node_id, message)

    # ------------------------------------------------------------------
    # Bounded retransmission with exponential backoff
    # ------------------------------------------------------------------
    def on_transfer_aborted(self, transfer: Transfer, link: Link) -> None:
        self._maybe_retransmit(transfer)

    def _maybe_retransmit(self, transfer: Transfer) -> None:
        """Schedule a backed-off retry for a loss/corruption abort."""
        if self.max_retransmissions <= 0:
            return
        if transfer.abort_reason not in self.RETRYABLE_ABORTS:
            return
        # Check the receiver can actually take the retry *before*
        # consuming an attempt: under blackout/churn faults the abort
        # often races the receiver going dark, and a budgeted attempt
        # burned on a dark node is denied to a real later contact.
        # Worlds that cannot answer (unit-test stubs) skip the guard.
        available = getattr(self.world, "node_available", None)
        if available is not None and not available(transfer.receiver):
            return
        uuid = transfer.message.uuid
        per_receiver = self._retry_counts.get(uuid)
        used = 0 if per_receiver is None else per_receiver.get(
            transfer.receiver, 0
        )
        if used >= self.max_retransmissions:
            return
        if per_receiver is None:
            per_receiver = self._retry_counts[uuid] = {}
        per_receiver[transfer.receiver] = used + 1
        delay = self.retransmit_backoff * (2 ** used)
        sender_id, receiver_id = transfer.sender, transfer.receiver
        # Lazy label: retransmission timers are scheduled in bulk under
        # fault injection and most never surface their label.
        self.world.schedule_in(
            delay,
            lambda: self._retransmit(sender_id, receiver_id, uuid),
            label=lambda: f"retransmit {uuid} {sender_id}->{receiver_id}",
        )

    def _retransmit(self, sender_id: int, receiver_id: int, uuid: str) -> None:
        """Fire a scheduled retry if it is still worth sending."""
        link = self.world.link_between(sender_id, receiver_id)
        if link is None or link.closed:
            return
        sender = self.world.node(sender_id)
        message = sender.buffer.get(uuid)
        if message is None:  # the copy expired or was evicted meanwhile
            return
        if self.world.node(receiver_id).has_seen(uuid):
            return  # another path got it there first
        if self._reoffer(link, sender_id, receiver_id, message) is not None:
            self.world.metrics.on_retransmission()

    def _prune_retries(self, uuid: str, receiver_id: int) -> None:
        """Drop the retry budget entry a landed copy made unusable.

        Once ``receiver_id`` has the message, every future retry toward
        it no-ops at ``_retransmit``'s has-seen check, so the counter
        is dead weight — and on long runs the dead weight is the leak
        this fixes.  The whole per-uuid book goes when its last
        receiver entry does (TTL expiry drops the rest, see
        :meth:`on_message_expired`).
        """
        per_receiver = self._retry_counts.get(uuid)
        if per_receiver is not None:
            per_receiver.pop(receiver_id, None)
            if not per_receiver:
                del self._retry_counts[uuid]

    def on_copy_received(
        self,
        transfer: Transfer,
        receiver_id: int,
        message: Message,
        role: str,
        accepted: bool,
    ) -> None:
        """Layer-driven receives must prune like the native path does.

        The incentive layer performs the receive itself and tells the
        substrate through this hook (it never calls
        ``on_message_received``), so the retry-book pruning has to
        happen here too.  A copy marks the receiver as having seen the
        message when the buffer accepted it or it was delivered as a
        destination (delivery marks ``seen`` even when the destination
        keeps no relay copy); a refused relay copy leaves the budget
        alone.
        """
        if accepted or role == "destination":
            self._prune_retries(message.uuid, receiver_id)

    def on_message_expired(self, node_id: int, message: Message) -> None:
        """TTL expiry: drop the message's whole retry book.

        TTL is measured from message *creation*, so every copy expires
        in the same sweep — once the first copy goes, no node can offer
        the uuid again and the counters can never be consulted.  A node
        that re-originates the uuid after churn then starts with the
        fresh budget it should.
        """
        self._retry_counts.pop(message.uuid, None)

    def on_node_wiped(self, node_id: int) -> None:
        """Churn wipe: protocol state must restart from scratch.

        The RTSR weights are volatile state, so the wipe policy resets
        the node's table to its freshly-created condition (direct
        subscriptions re-seeded, version 0) — and the version reset is
        exactly why the memo entries *must* go: a pre-crash memo keyed
        at version ``V`` would collide with the restarted table once it
        has taken ``V`` updates, serving sums for weights that no
        longer exist.  The buffer snapshot cache goes for the same
        reason (the mutation counter keeps counting across the wipe,
        but snapshot entries hold pre-crash message objects).
        """
        table = self._tables.get(node_id)
        if table is not None:
            table.reset(self.world.node(node_id).interests, self.world.now)
        self._sum_cache.pop(node_id, None)
        self._buffer_snaps.pop(node_id, None)

    def _reoffer(
        self, link: Link, sender_id: int, receiver_id: int, message: Message
    ) -> Optional[Transfer]:
        """Re-queue one copy for a retransmission attempt.

        Overridden by the incentive router to run the full payment
        pipeline (escrow, prepay) rather than a bare send.
        """
        return self.world.send_message(link, sender_id, message)

    def _forward_onward(self, holder_id: int, message: Message) -> None:
        """Offer a freshly received message on the holder's other links."""
        holder = self.world.node(holder_id)
        if message.uuid not in holder.buffer:
            return
        for link in self.world.active_links(holder_id):
            peer_id = link.peer_of(holder_id)
            peer = self.world.node(peer_id)
            if peer.has_seen(message.uuid):
                continue
            role = self.classify(peer_id, message)
            if role == "destination" or self.wants_as_relay(
                holder_id, peer_id, message
            ):
                self.world.send_message(link, holder_id, message)
