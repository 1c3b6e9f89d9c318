"""The compact slot-based GPS core: struct-of-arrays, no boxed records.

The reference ("object") core in :mod:`repro.core.priority_sampler` keeps
one heap-allocated :class:`~repro.core.records.EdgeRecord` per sampled
edge and pays CPython object tax on every arrival: an allocation, a
weight-function call, and attribute-chasing heap sifts.  This module is
the same Algorithm 1 / Algorithm 3 machinery re-laid-out for throughput:

* every sampled edge lives in a *slot* ``s`` of parallel slot-indexed
  arrays (``u``, ``v``, ``weight``, ``priority``, ``arrival``,
  ``cov_triangle``, ``cov_wedge``) — plain Python lists, whose indexed
  reads are the cheapest CPython offers (an ``array``/numpy read would
  re-box a float per access on this pure-Python hot path);
* the priority min-heap orders slot indices as ``(priority, slot)``
  pairs (:class:`~repro.heap.slot_heap.SlotMinHeap`) so every sift runs
  in C via :mod:`heapq`; the eviction step overwrites the root slot's
  fields in place and replaces its heap entry with one
  ``heapreplace`` — no push+pop, no per-arrival allocation;
* the adjacency maps ``node → {neighbour → slot}`` so weight functions
  and the in-stream snapshot loops do their neighbourhood work on machine
  integers (interned ids, see :mod:`repro.streams.interner`) or whatever
  hashable labels the stream carries;
* the three registered weight families (uniform / triangle / wedge) are
  recognised by exact type and inlined into the update loop — zero
  Python calls per arrival on the common configurations.  Unrecognised
  weight functions still work through a live
  :class:`~repro.core.reservoir.SampledGraph`-protocol view.

**Bit-exactness contract.**  Given the same ``(capacity, weight_fn,
seed)`` and the same stream, the compact core draws its uniforms in the
same order and performs the same float operations in the same order as
the object core, and mirrors the object core's dict insertion/deletion
sequences — so samples, thresholds, and in-/post-stream estimates are
identical bit for bit.  The test matrix in ``tests/test_compact_core.py``
enforces this for every registered weight; the object core stays in the
tree as the readable reference implementation.
"""

from __future__ import annotations

import random
from heapq import heappush, heapreplace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as _np

from repro.core.estimates import GraphEstimates
from repro.core.post_stream import sampled_edges
from repro.core.records import EdgeRecord
from repro.core.weights import (
    TriangleWeight,
    UniformWeight,
    WedgeWeight,
    WeightFunction,
)
from repro.graph.edge import EdgeKey, Node, canonical_edge
from repro.heap.slot_heap import SlotMinHeap
from repro.streams.stream import transplant_mt19937

#: Selectable GPS core implementations (the default comes first).
CORES = ("compact", "object")
DEFAULT_CORE = "compact"

# Weight families the update loop inlines (matched by exact type, so a
# subclass with an overridden __call__ still takes the generic path).
_W_GENERIC = 0
_W_UNIFORM = 1
_W_TRIANGLE = 2
_W_WEDGE = 3

# Canonical-edge packing for the chunk screen: code = min·2³² + max.
# Sound only for labels in [0, 2³¹) — dense interned ids and the
# synthetic generators always are; anything else falls back to the
# scalar loop (addition, not bit-ors, so the maths stays exact).
_CODE_BASE = 2**32
_CODE_LIMIT = 2**31


def _classify_weight(weight_fn: WeightFunction) -> Tuple[int, float, float]:
    """(kind, coef, default) for the inlined weight families."""
    kind = type(weight_fn)
    if kind is UniformWeight:
        return _W_UNIFORM, 0.0, weight_fn.constant
    if kind is TriangleWeight:
        return _W_TRIANGLE, weight_fn.coef, weight_fn.default
    if kind is WedgeWeight:
        return _W_WEDGE, weight_fn.coef, weight_fn.default
    return _W_GENERIC, 0.0, 0.0


def _own_rows(
    adj: Dict[Node, Dict[Node, int]], owned: set, *nodes: Node
) -> None:
    """Copy-on-write: make ``nodes``' adjacency rows safe to write in place.

    Once :meth:`CompactGraphPrioritySampler.snapshot_adjacency` has run,
    a row not in ``owned`` may be shared with a snapshot, so it is
    copied and ``adj[x]`` rebound to the copy (rebinding an existing key
    keeps its place, and a copy keeps the row's order).  A node with no
    row is claimed too: the row the caller then creates is new.  Pruning
    ``owned`` to the nodes that still have rows only costs later copies,
    never a shared write, and bounds it when no further snapshot comes.
    """
    if len(owned) > 2 * len(adj) + 64:
        owned.intersection_update(adj)
    for x in nodes:
        if x not in owned:
            row = adj.get(x)
            if row is not None:
                adj[x] = row.copy()
            owned.add(x)


def materialize_slots(
    adjacency: Dict[Node, Dict[Node, int]],
    record_of: Callable[[int], EdgeRecord],
):
    """A :class:`~repro.core.reservoir.SampledGraph` of a slot adjacency,
    in its dict orders, with one shared ``record_of(slot)`` per slot."""
    from repro.core.reservoir import SampledGraph

    records: Dict[int, EdgeRecord] = {}
    adj: Dict[Node, Dict[Node, EdgeRecord]] = {}
    for u, nbrs in adjacency.items():
        row: Dict[Node, EdgeRecord] = {}
        for v, slot in nbrs.items():
            record = records.get(slot)
            if record is None:
                record = records[slot] = record_of(slot)
            row[v] = record
        adj[u] = row
    return SampledGraph.from_adjacency(adj, len(records))


class CompactSample:
    """Live :class:`~repro.core.reservoir.SampledGraph`-protocol view.

    Weight functions outside the inlined families and the
    record-reading estimators (:mod:`repro.core.subgraphs`,
    :mod:`repro.core.motifs`, :mod:`repro.core.local`) consume the
    sample through this protocol; Algorithm 2 reads the slots
    (:meth:`CompactGraphPrioritySampler.slot_view`).  Topology queries
    (``degree``, ``common_neighbor_count``, ``has_edge``) read the slot
    adjacency directly; record-yielding queries materialise
    :class:`~repro.core.records.EdgeRecord` values on demand — a
    cold-path convenience, not something the update loop ever does.
    Materialised records are snapshots: mutating them does not write back
    into the reservoir.
    """

    __slots__ = ("_sampler",)

    def __init__(self, sampler: "CompactGraphPrioritySampler") -> None:
        self._sampler = sampler

    # -- topology (hot-path safe) --------------------------------------
    @property
    def num_edges(self) -> int:
        return len(self._sampler._heap)

    @property
    def num_nodes(self) -> int:
        return len(self._sampler._adj)

    def has_edge(self, u: Node, v: Node) -> bool:
        nbrs = self._sampler._adj.get(u)
        return nbrs is not None and v in nbrs

    def degree(self, v: Node) -> int:
        return len(self._sampler._adj.get(v, ()))

    def common_neighbor_count(self, u: Node, v: Node) -> int:
        adj = self._sampler._adj
        nbrs_u = adj.get(u, _EMPTY)
        nbrs_v = adj.get(v, _EMPTY)
        if len(nbrs_u) > len(nbrs_v):
            nbrs_u, nbrs_v = nbrs_v, nbrs_u
        return sum(1 for w in nbrs_u if w in nbrs_v)

    # -- record materialisation (cold path) ----------------------------
    def record(self, u: Node, v: Node) -> Optional[EdgeRecord]:
        nbrs = self._sampler._adj.get(u)
        if nbrs is None:
            return None
        slot = nbrs.get(v)
        if slot is None:
            return None
        return self._sampler._materialize(slot)

    def neighbors(self, v: Node) -> Dict[Node, EdgeRecord]:
        """Neighbour → record map of ``v`` (materialised snapshot)."""
        materialize = self._sampler._materialize
        return {
            w: materialize(slot)
            for w, slot in self._sampler._adj.get(v, _EMPTY).items()
        }

    def records(self) -> Iterator[EdgeRecord]:
        """Each sampled edge once, in the object core's iteration order."""
        materialize = self._sampler._materialize
        edges = sampled_edges(self._sampler)[1]
        return (materialize(slot) for _, _, slot in edges)

    def triangles_with(
        self, u: Node, v: Node
    ) -> Iterator[Tuple[Node, EdgeRecord, EdgeRecord]]:
        adj = self._sampler._adj
        materialize = self._sampler._materialize
        nbrs_u = adj.get(u, _EMPTY)
        nbrs_v = adj.get(v, _EMPTY)
        if len(nbrs_u) <= len(nbrs_v):
            for w, slot_uw in nbrs_u.items():
                slot_vw = nbrs_v.get(w)
                if slot_vw is not None:
                    yield w, materialize(slot_uw), materialize(slot_vw)
        else:
            for w, slot_vw in nbrs_v.items():
                slot_uw = nbrs_u.get(w)
                if slot_uw is not None:
                    yield w, materialize(slot_uw), materialize(slot_vw)

    def incident_records(
        self, v: Node, exclude: Optional[Node] = None
    ) -> Iterator[EdgeRecord]:
        materialize = self._sampler._materialize
        for w, slot in self._sampler._adj.get(v, _EMPTY).items():
            if w != exclude:
                yield materialize(slot)

    def materialize(self):
        """One-shot object-core snapshot with identical iteration orders
        (:func:`materialize_slots`): the record-reading estimators pay
        O(m) records once, not per :meth:`neighbors` call."""
        return materialize_slots(
            self._sampler._adj, self._sampler._materialize
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompactSample(nodes={self.num_nodes}, edges={self.num_edges})"


_EMPTY: Dict[Node, int] = {}


class SlotArrays:
    """Dtype-pinned copy of the live slot prefix plus the heap root.

    The cheap snapshot shape: where :meth:`CompactSample.materialize`
    builds an O(m) object graph (one :class:`EdgeRecord` per slot plus
    two dict levels), this is five flat ``float64``/``int64`` column
    copies, two label lists and three scalars — the raw material the
    serving layer's :class:`~repro.serve.snapshot.SampleSnapshot`
    captures at every chunk boundary and materialises lazily only when
    a retrospective query actually arrives.

    Only the first :attr:`size` entries of each column are live (slots
    are allocated densely: admissions fill ``0..size-1`` and evictions
    overwrite in place, so the live slots are exactly that prefix).
    Columns are numpy arrays of length :attr:`capacity`, so instances
    can be recycled as double buffers via the ``out=`` parameter of
    :meth:`CompactGraphPrioritySampler.snapshot_arrays`.  Instances are
    value containers, not views: mutating the sampler afterwards never
    changes a snapshot, and vice versa.
    """

    __slots__ = (
        "size",
        "capacity",
        "u",
        "v",
        "weight",
        "priority",
        "arrival",
        "cov_triangle",
        "cov_wedge",
        "heap_root",
        "threshold",
        "stream_position",
    )

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.size = 0
        self.u: List[Node] = []
        self.v: List[Node] = []
        self.weight = _np.empty(capacity, dtype=_np.float64)
        self.priority = _np.empty(capacity, dtype=_np.float64)
        self.arrival = _np.empty(capacity, dtype=_np.int64)
        self.cov_triangle = _np.empty(capacity, dtype=_np.float64)
        self.cov_wedge = _np.empty(capacity, dtype=_np.float64)
        self.heap_root: Optional[Tuple[float, int]] = None
        self.threshold = 0.0
        self.stream_position = 0

    def record(self, slot: int) -> EdgeRecord:
        """Materialise one slot as an :class:`EdgeRecord` (cold path).

        Numpy scalars are unboxed back to plain Python floats/ints so a
        record built from a snapshot is field-for-field ``==`` (and
        bit-identical in float payloads) to one built live by
        :meth:`CompactGraphPrioritySampler._materialize`.
        """
        record = EdgeRecord(
            self.u[slot],
            self.v[slot],
            weight=float(self.weight[slot]),
            priority=float(self.priority[slot]),
            arrival=int(self.arrival[slot]),
        )
        record.cov_triangle = float(self.cov_triangle[slot])
        record.cov_wedge = float(self.cov_wedge[slot])
        return record


class CompactGraphPrioritySampler:
    """GPS(m) on slot-indexed parallel arrays (Algorithm 1, compact core).

    Drop-in behavioural equivalent of
    :class:`~repro.core.priority_sampler.GraphPrioritySampler` — same
    constructor, same sampling distribution, bit-identical samples under
    shared seeds — minus the per-arrival :class:`UpdateResult` reporting:
    :meth:`process` returns ``None`` (materialising an outcome object per
    edge is exactly the tax this core removes).  Callers that need
    per-arrival outcomes use the object core.

    Examples
    --------
    >>> sampler = CompactGraphPrioritySampler(capacity=2, seed=7)
    >>> sampler.process_many([(1, 2), (2, 3), (1, 3), (3, 4)])
    4
    >>> sampler.sample_size
    2
    """

    __slots__ = (
        "_capacity",
        "_weight_fn",
        "_wkind",
        "_wcoef",
        "_wdefault",
        "_rng",
        "_adj",
        "_su",
        "_sv",
        "_weight",
        "_priority",
        "_arrival",
        "_cov_tri",
        "_cov_wedge",
        "_heap",
        "_threshold",
        "_arrivals",
        "_duplicates",
        "_self_loops",
        "_view",
        "_slot_codes",
        "_codes_stale",
        "_mt",
        "_mt_rs",
        "_owned",
    )

    #: Below this many draws the list comprehension beats the MT19937
    #: state-transplant fixed cost (~170 µs per bulk call).
    _BULK_DRAW_MIN = 2048

    def __init__(
        self,
        capacity: int,
        weight_fn: Optional[WeightFunction] = None,
        seed: Optional[int] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._weight_fn: WeightFunction = weight_fn or TriangleWeight()
        self._wkind, self._wcoef, self._wdefault = _classify_weight(
            self._weight_fn
        )
        self._rng = random.Random(seed)
        # Slot-indexed parallel arrays, preallocated to capacity.
        self._su: List[Node] = [None] * capacity
        self._sv: List[Node] = [None] * capacity
        self._weight: List[float] = [0.0] * capacity
        self._priority: List[float] = [0.0] * capacity
        self._arrival: List[int] = [0] * capacity
        self._cov_tri: List[float] = [0.0] * capacity
        self._cov_wedge: List[float] = [0.0] * capacity
        self._heap = SlotMinHeap()
        self._adj: Dict[Node, Dict[Node, int]] = {}
        self._threshold = 0.0
        self._arrivals = 0
        self._duplicates = 0
        self._self_loops = 0
        self._view = CompactSample(self)
        # Per-slot canonical-edge codes for the chunked screen: built
        # lazily on the first process_chunk, maintained by its admits,
        # and invalidated whenever a scalar loop may have touched slots.
        self._slot_codes = None
        self._codes_stale = True
        # Lazily-built numpy MT19937 twin of self._rng for bulk draws.
        self._mt = None
        self._mt_rs = None
        # Nodes whose adjacency rows no snapshot shares (see _own_rows);
        # None until the first snapshot_adjacency, so batch runs skip it.
        self._owned: Optional[set] = None

    # ------------------------------------------------------------------
    # Stream processing (procedure GPSUpdate, slot edition)
    # ------------------------------------------------------------------
    def process(self, u: Node, v: Node) -> None:
        """Process one arrival (returns None; see the class docstring)."""
        self.process_many(((u, v),))

    def process_many(self, edges: Iterable[Tuple[Node, Node]]) -> int:
        """Feed a batch of arrivals through the slot update loop.

        Draws its uniforms in the same order and performs the same float
        operations as the object core, so shared-seed samples are
        bit-for-bit identical.  Returns the number of edges consumed
        (including skipped self-loops/duplicates).

        Dispatches once per batch to a loop specialised for the weight
        family — the deliberate code duplication below buys the removal
        of every per-arrival branch and Python call from the common
        configurations.
        """
        # Scalar admits don't maintain the chunk screen's slot codes;
        # the next process_chunk rebuilds them once.
        self._codes_stale = True
        wkind = self._wkind
        if wkind == _W_TRIANGLE:
            return self._process_many_triangle(edges)
        if wkind == _W_UNIFORM:
            return self._process_many_uniform(edges)
        return self._process_many_generic(edges)

    def _process_many_triangle(
        self, edges: Iterable[Tuple[Node, Node]]
    ) -> int:
        """Specialised loop: W = coef·|△̂(k)| + default, inlined."""
        adj = self._adj
        adj_get = adj.get
        owned = self._owned
        su = self._su
        sv = self._sv
        wts = self._weight
        prio = self._priority
        arr = self._arrival
        cov_tri = self._cov_tri
        cov_wedge = self._cov_wedge
        heap_arr = self._heap._heap
        hpush = heappush
        hreplace = heapreplace
        rand = self._rng.random
        capacity = self._capacity
        coef = self._wcoef
        default = self._wdefault
        size = len(heap_arr)
        root_prio = heap_arr[0][0] if size else 0.0
        threshold = self._threshold
        arrivals = self._arrivals
        duplicates = self._duplicates
        self_loops = self._self_loops
        consumed = 0
        try:
            for u, v in edges:
                consumed += 1
                if u == v:
                    self_loops += 1
                    continue
                nu = adj_get(u)
                if nu is None:
                    # u has no sampled edges: no duplicate, no closure.
                    w = default
                else:
                    if v in nu:
                        duplicates += 1
                        continue
                    nv = adj_get(v)
                    if nv is None:
                        w = default
                    else:
                        if len(nu) > len(nv):
                            small = nv
                            big = nu
                        else:
                            small = nu
                            big = nv
                        closed = 0
                        for x in small:
                            if x in big:
                                closed += 1
                        # coef·0 + default == default exactly, so the
                        # short-circuit is bit-neutral.
                        w = coef * closed + default if closed else default
                arrivals += 1
                r = w / (1.0 - rand())
                if size < capacity:
                    s = size
                    size += 1
                    su[s] = u
                    sv[s] = v
                    wts[s] = w
                    prio[s] = r
                    arr[s] = arrivals
                    cov_tri[s] = 0.0
                    cov_wedge[s] = 0.0
                    if owned is not None:
                        _own_rows(adj, owned, u, v)
                    nu = adj_get(u)
                    if nu is None:
                        adj[u] = {v: s}
                    else:
                        nu[v] = s
                    nv = adj_get(v)
                    if nv is None:
                        adj[v] = {u: s}
                    else:
                        nv[u] = s
                    hpush(heap_arr, (r, s))
                    root_prio = heap_arr[0][0]
                elif root_prio < r:
                    s = heap_arr[0][1]
                    if root_prio > threshold:
                        threshold = root_prio
                    eu = su[s]
                    ev = sv[s]
                    if owned is not None:
                        _own_rows(adj, owned, eu, ev, u, v)
                    d = adj[eu]
                    del d[ev]
                    if not d:
                        del adj[eu]
                    d = adj[ev]
                    del d[eu]
                    if not d:
                        del adj[ev]
                    su[s] = u
                    sv[s] = v
                    wts[s] = w
                    prio[s] = r
                    arr[s] = arrivals
                    cov_tri[s] = 0.0
                    cov_wedge[s] = 0.0
                    nu = adj_get(u)
                    if nu is None:
                        adj[u] = {v: s}
                    else:
                        nu[v] = s
                    nv = adj_get(v)
                    if nv is None:
                        adj[v] = {u: s}
                    else:
                        nv[u] = s
                    hreplace(heap_arr, (r, s))
                    root_prio = heap_arr[0][0]
                elif r > threshold:
                    threshold = r
        finally:
            self._threshold = threshold
            self._arrivals = arrivals
            self._duplicates = duplicates
            self._self_loops = self_loops
        return consumed

    def _process_many_uniform(
        self, edges: Iterable[Tuple[Node, Node]]
    ) -> int:
        """Specialised loop: W ≡ constant — no topology reads at all."""
        adj = self._adj
        adj_get = adj.get
        owned = self._owned
        su = self._su
        sv = self._sv
        wts = self._weight
        prio = self._priority
        arr = self._arrival
        cov_tri = self._cov_tri
        cov_wedge = self._cov_wedge
        heap_arr = self._heap._heap
        hpush = heappush
        hreplace = heapreplace
        rand = self._rng.random
        capacity = self._capacity
        constant = self._wdefault
        size = len(heap_arr)
        root_prio = heap_arr[0][0] if size else 0.0
        threshold = self._threshold
        arrivals = self._arrivals
        duplicates = self._duplicates
        self_loops = self._self_loops
        consumed = 0
        try:
            for u, v in edges:
                consumed += 1
                if u == v:
                    self_loops += 1
                    continue
                nu = adj_get(u)
                if nu is not None and v in nu:
                    duplicates += 1
                    continue
                arrivals += 1
                r = constant / (1.0 - rand())
                if size < capacity:
                    s = size
                    size += 1
                    su[s] = u
                    sv[s] = v
                    wts[s] = constant
                    prio[s] = r
                    arr[s] = arrivals
                    cov_tri[s] = 0.0
                    cov_wedge[s] = 0.0
                    if owned is not None:
                        _own_rows(adj, owned, u, v)
                        nu = adj_get(u)
                    if nu is None:
                        adj[u] = {v: s}
                    else:
                        nu[v] = s
                    nv = adj_get(v)
                    if nv is None:
                        adj[v] = {u: s}
                    else:
                        nv[u] = s
                    hpush(heap_arr, (r, s))
                    root_prio = heap_arr[0][0]
                elif root_prio < r:
                    s = heap_arr[0][1]
                    if root_prio > threshold:
                        threshold = root_prio
                    eu = su[s]
                    ev = sv[s]
                    if owned is not None:
                        _own_rows(adj, owned, eu, ev, u, v)
                    d = adj[eu]
                    del d[ev]
                    if not d:
                        del adj[eu]
                    d = adj[ev]
                    del d[eu]
                    if not d:
                        del adj[ev]
                    su[s] = u
                    sv[s] = v
                    wts[s] = constant
                    prio[s] = r
                    arr[s] = arrivals
                    cov_tri[s] = 0.0
                    cov_wedge[s] = 0.0
                    nu = adj_get(u)
                    if nu is None:
                        adj[u] = {v: s}
                    else:
                        nu[v] = s
                    nv = adj_get(v)
                    if nv is None:
                        adj[v] = {u: s}
                    else:
                        nv[u] = s
                    hreplace(heap_arr, (r, s))
                    root_prio = heap_arr[0][0]
                elif r > threshold:
                    threshold = r
        finally:
            self._threshold = threshold
            self._arrivals = arrivals
            self._duplicates = duplicates
            self._self_loops = self_loops
        return consumed

    def _process_many_generic(
        self, edges: Iterable[Tuple[Node, Node]]
    ) -> int:
        """Wedge-weight and arbitrary weight functions (via the view)."""
        adj = self._adj
        adj_get = adj.get
        owned = self._owned
        su = self._su
        sv = self._sv
        wts = self._weight
        prio = self._priority
        arr = self._arrival
        cov_tri = self._cov_tri
        cov_wedge = self._cov_wedge
        heap_arr = self._heap._heap
        hpush = heappush
        hreplace = heapreplace
        rand = self._rng.random
        capacity = self._capacity
        wkind = self._wkind
        coef = self._wcoef
        default = self._wdefault
        weight_fn = self._weight_fn
        view = self._view
        size = len(heap_arr)
        root_prio = heap_arr[0][0] if size else 0.0
        threshold = self._threshold
        arrivals = self._arrivals
        duplicates = self._duplicates
        self_loops = self._self_loops
        consumed = 0
        try:
            for u, v in edges:
                consumed += 1
                if u == v:
                    self_loops += 1
                    continue
                nu = adj_get(u)
                if nu is not None and v in nu:
                    duplicates += 1
                    continue
                arrivals += 1
                if wkind == _W_WEDGE:
                    nv = adj_get(v)
                    w = coef * (
                        (len(nu) if nu is not None else 0)
                        + (len(nv) if nv is not None else 0)
                    ) + default
                else:
                    w = weight_fn(u, v, view)
                    if not w > 0.0:
                        raise ValueError(
                            f"weight function returned non-positive {w!r}"
                        )
                r = w / (1.0 - rand())
                # --- admit / evict / bounce ----------------------------
                if size < capacity:
                    s = size
                    size += 1
                    su[s] = u
                    sv[s] = v
                    wts[s] = w
                    prio[s] = r
                    arr[s] = arrivals
                    cov_tri[s] = 0.0
                    cov_wedge[s] = 0.0
                    if owned is not None:
                        _own_rows(adj, owned, u, v)
                    nu = adj_get(u)
                    if nu is None:
                        adj[u] = {v: s}
                    else:
                        nu[v] = s
                    nv = adj_get(v)
                    if nv is None:
                        adj[v] = {u: s}
                    else:
                        nv[u] = s
                    hpush(heap_arr, (r, s))
                    root_prio = heap_arr[0][0]
                elif root_prio < r:
                    # Evict the root slot and reuse it for the arrival:
                    # the heap array keeps the same slot id at position 0,
                    # so one sift restores the invariant.
                    s = heap_arr[0][1]
                    if root_prio > threshold:
                        threshold = root_prio
                    eu = su[s]
                    ev = sv[s]
                    if owned is not None:
                        _own_rows(adj, owned, eu, ev, u, v)
                    d = adj[eu]
                    del d[ev]
                    if not d:
                        del adj[eu]
                    d = adj[ev]
                    del d[eu]
                    if not d:
                        del adj[ev]
                    su[s] = u
                    sv[s] = v
                    wts[s] = w
                    prio[s] = r
                    arr[s] = arrivals
                    cov_tri[s] = 0.0
                    cov_wedge[s] = 0.0
                    nu = adj_get(u)
                    if nu is None:
                        adj[u] = {v: s}
                    else:
                        nu[v] = s
                    nv = adj_get(v)
                    if nv is None:
                        adj[v] = {u: s}
                    else:
                        nv[u] = s
                    hreplace(heap_arr, (r, s))
                    root_prio = heap_arr[0][0]
                elif r > threshold:
                    # Bounce: the arriving edge is itself the eviction.
                    threshold = r
        finally:
            self._threshold = threshold
            self._arrivals = arrivals
            self._duplicates = duplicates
            self._self_loops = self_loops
        return consumed

    def process_stream(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        """Feed a whole stream through the sampler."""
        self.process_many(edges)

    # ------------------------------------------------------------------
    # Chunked (columnar) processing — the vectorised admission pre-pass
    # ------------------------------------------------------------------
    @property
    def chunk_vectorized(self) -> bool:
        """Whether :meth:`process_chunk` has a vectorised gate here.

        True exactly for the uniform weight family: uniform ranks are a
        pure function of the RNG draw, so a whole block screens against
        the heap root in a few array operations.
        The topology-reading families (triangle/wedge/generic) must
        inspect the evolving sample per arrival — both for admits and
        for the exact bounced priorities that feed ``z*`` — so their
        scalar family-specialised loops already are the fast path and
        :meth:`process_chunk` simply adapts the columnar block.
        """
        return self._wkind == _W_UNIFORM

    def process_chunk(self, us, vs) -> int:
        """Feed one columnar block ``(u column, v column)`` of arrivals.

        Bit-exact equivalent of ``process_many(zip(us, vs))`` — same
        uniform draws in the same order, same float operations, same
        dict mutation sequences — taken the vectorised way when
        :attr:`chunk_vectorized` holds and the block is *clean* (no
        self-loops, no within-block repeats, no edge already sampled);
        anything else falls back to the scalar loop for that block.

        The vectorised gate exploits two structural facts of GPS order
        sampling: once the reservoir is full its heap root is
        non-decreasing, so every arrival whose rank fails the root *at
        block start* is a guaranteed loser wherever it sits in the
        block; and losers never mutate the reservoir — their only trace
        is a max-fold of their priorities into the threshold ``z*``,
        which is order-independent.  So one boolean mask routes just
        the block's survivors into the scalar admit-or-evict path.

        >>> sampler = CompactGraphPrioritySampler(capacity=2, seed=7)
        >>> import numpy as np
        >>> sampler.process_chunk(np.array([1, 2, 1], dtype=np.int32),
        ...                       np.array([2, 3, 3], dtype=np.int32))
        3
        >>> sampler.sample_size
        2
        """
        n = len(us)
        if len(vs) != n:
            raise ValueError("u and v columns must have equal length")
        if n == 0:
            return 0
        if self._wkind != _W_UNIFORM:
            return self._process_chunk_scalar(us, vs)
        return self._process_chunk_uniform(
            _np.asarray(us), _np.asarray(vs), n
        )

    def _process_chunk_scalar(self, us, vs) -> int:
        """Columnar block → scalar loop (plain-int pairs, bit-identical)."""
        from repro.streams.chunks import pairs_from_columns

        return self.process_many(pairs_from_columns(us, vs))

    def _bulk_uniforms(self, n: int):
        """``n`` doubles bit-identical to ``n`` ``self._rng.random()`` calls.

        CPython's :class:`random.Random` and numpy's legacy
        ``RandomState`` share both the MT19937 core and the 53-bit
        double construction ``((a >> 5)·2²⁶ + (b >> 6)) / 2⁵³``, so the
        624-word Mersenne state can be transplanted into numpy
        (:func:`~repro.streams.stream.transplant_mt19937`), the block
        drawn in one C call, and the advanced state transplanted
        back — ``self._rng`` stays the single authoritative generator
        (checkpointing and scalar interludes read it directly) while
        the per-draw Python call disappears.  Below
        :data:`_BULK_DRAW_MIN` draws the transplant's fixed cost loses
        to a plain list comprehension, which is used instead.
        """
        rng = self._rng
        if n < self._BULK_DRAW_MIN:
            rand = rng.random
            return _np.array([rand() for _ in range(n)], dtype=_np.float64)
        mt = self._mt = transplant_mt19937(rng, self._mt)
        if self._mt_rs is None:
            self._mt_rs = _np.random.RandomState(mt)
        out = self._mt_rs.random_sample(n)
        advanced = mt.state["state"]
        version, _, gauss = rng.getstate()
        rng.setstate((
            version,
            tuple(advanced["key"].tolist()) + (int(advanced["pos"]),),
            gauss,
        ))
        return out

    def _rebuild_slot_codes(self, size: int) -> bool:
        """Recompute every live slot's canonical code; False = can't.

        Runs once after any scalar interlude (process_many marks the
        codes stale).  Fails — sending the caller to the scalar loop —
        when a sampled label is not an int in ``[0, 2³¹)``.
        """
        codes = self._slot_codes
        if codes is None:
            codes = self._slot_codes = _np.empty(
                self._capacity, dtype=_np.int64
            )
        su = self._su
        sv = self._sv
        for s in range(size):
            u = su[s]
            v = sv[s]
            if type(u) is not int or type(v) is not int:
                return False
            if not (0 <= u < _CODE_LIMIT and 0 <= v < _CODE_LIMIT):
                return False
            codes[s] = (
                u * _CODE_BASE + v if u < v else v * _CODE_BASE + u
            )
        self._codes_stale = False
        return True

    def _process_chunk_uniform(self, us, vs, n: int) -> int:
        """The vectorised uniform-weight gate (see :meth:`process_chunk`)."""
        heap_arr = self._heap._heap
        size = len(heap_arr)
        # --- screen: only clean int blocks take the vectorised path ---
        if us.dtype.kind != "i" or vs.dtype.kind != "i":
            return self._process_chunk_scalar(us, vs)
        lo = _np.minimum(us, vs)
        hi = _np.maximum(us, vs)
        if int(lo.min()) < 0 or int(hi.max()) >= _CODE_LIMIT:
            return self._process_chunk_scalar(us, vs)
        if bool((lo == hi).any()):  # self-loops present
            return self._process_chunk_scalar(us, vs)
        codes = lo.astype(_np.int64) * _CODE_BASE + hi
        ordered = _np.sort(codes)
        if bool((ordered[1:] == ordered[:-1]).any()):
            # An edge repeats within the block.
            return self._process_chunk_scalar(us, vs)
        if size:
            if self._codes_stale and not self._rebuild_slot_codes(size):
                return self._process_chunk_scalar(us, vs)
            live = self._slot_codes[:size]
            pos = _np.searchsorted(ordered, live)
            inside = pos < n
            if bool(inside.any()) and bool(
                (ordered[pos[inside]] == live[inside]).any()
            ):  # a block edge is currently sampled (would be a duplicate)
                return self._process_chunk_scalar(us, vs)
        elif self._codes_stale:
            if self._slot_codes is None:
                self._slot_codes = _np.empty(
                    self._capacity, dtype=_np.int64
                )
            self._codes_stale = False  # empty reservoir: nothing stale

        adj = self._adj
        adj_get = adj.get
        owned = self._owned
        su = self._su
        sv = self._sv
        wts = self._weight
        prio = self._priority
        arr = self._arrival
        cov_tri = self._cov_tri
        cov_wedge = self._cov_wedge
        slot_codes = self._slot_codes
        hpush = heappush
        hreplace = heapreplace
        rand = self._rng.random
        capacity = self._capacity
        constant = self._wdefault
        threshold = self._threshold
        arrivals = self._arrivals

        # --- fill phase: below capacity every clean arrival admits ----
        start = 0
        if size < capacity:
            fill = min(capacity - size, n)
            u_fill = us[:fill].tolist()
            v_fill = vs[:fill].tolist()
            code_fill = codes[:fill].tolist()
            for i in range(fill):
                u = u_fill[i]
                v = v_fill[i]
                arrivals += 1
                r = constant / (1.0 - rand())
                s = size
                size += 1
                su[s] = u
                sv[s] = v
                wts[s] = constant
                prio[s] = r
                arr[s] = arrivals
                cov_tri[s] = 0.0
                cov_wedge[s] = 0.0
                slot_codes[s] = code_fill[i]
                if owned is not None:
                    _own_rows(adj, owned, u, v)
                nu = adj_get(u)
                if nu is None:
                    adj[u] = {v: s}
                else:
                    nu[v] = s
                nv = adj_get(v)
                if nv is None:
                    adj[v] = {u: s}
                else:
                    nv[u] = s
                hpush(heap_arr, (r, s))
            start = fill
            if start == n:
                self._threshold = threshold
                self._arrivals = arrivals
                return n

        # --- vectorised gate over the full-reservoir remainder --------
        rest = n - start
        ranks = constant / (1.0 - self._bulk_uniforms(rest))
        root_prio = heap_arr[0][0]
        mask = ranks > root_prio
        survivors = _np.flatnonzero(mask)
        loser_max = None
        if survivors.size < rest:
            loser_max = float(ranks[~mask].max())
        base = arrivals  # arrival index of block edge i is base + i + 1
        # Batch-extract the survivors' fields once: per-item numpy
        # scalar indexing inside the loop would cost more than the
        # admit itself, and tolist() yields plain Python ints/floats —
        # the exact values the scalar loop would have computed.
        surv_idx = survivors.tolist()
        surv_r = ranks[survivors].tolist()
        abs_idx = survivors + start
        surv_u = us[abs_idx].tolist()
        surv_v = vs[abs_idx].tolist()
        surv_code = codes[abs_idx].tolist()
        for k in range(len(surv_idx)):
            r = surv_r[k]
            if root_prio < r:
                s = heap_arr[0][1]
                if root_prio > threshold:
                    threshold = root_prio
                eu = su[s]
                ev = sv[s]
                u = surv_u[k]
                v = surv_v[k]
                if owned is not None:
                    _own_rows(adj, owned, eu, ev, u, v)
                d = adj[eu]
                del d[ev]
                if not d:
                    del adj[eu]
                d = adj[ev]
                del d[eu]
                if not d:
                    del adj[ev]
                su[s] = u
                sv[s] = v
                wts[s] = constant
                prio[s] = r
                arr[s] = base + surv_idx[k] + 1
                cov_tri[s] = 0.0
                cov_wedge[s] = 0.0
                slot_codes[s] = surv_code[k]
                nu = adj_get(u)
                if nu is None:
                    adj[u] = {v: s}
                else:
                    nu[v] = s
                nv = adj_get(v)
                if nv is None:
                    adj[v] = {u: s}
                else:
                    nv[u] = s
                hreplace(heap_arr, (r, s))
                root_prio = heap_arr[0][0]
            elif r > threshold:
                # A block survivor outpaced by an earlier admit: a
                # bounce, exactly as the scalar loop would score it.
                threshold = r
        if loser_max is not None and loser_max > threshold:
            threshold = loser_max
        self._threshold = threshold
        self._arrivals = base + rest
        return n

    # ------------------------------------------------------------------
    # Sample access and HT normalisation (procedure GPSNormalize)
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def sample(self) -> CompactSample:
        """The sampled graph K̂ as a live protocol view."""
        return self._view

    @property
    def sample_size(self) -> int:
        return len(self._heap)

    @property
    def threshold(self) -> float:
        """z*: the largest priority evicted so far (0 before overflow)."""
        return self._threshold

    @property
    def stream_position(self) -> int:
        """Number of unique, loop-free arrivals processed."""
        return self._arrivals

    @property
    def duplicates_skipped(self) -> int:
        return self._duplicates

    @property
    def self_loops_skipped(self) -> int:
        return self._self_loops

    def _materialize(self, slot: int) -> EdgeRecord:
        """A fresh :class:`EdgeRecord` snapshot of ``slot``'s fields."""
        record = EdgeRecord(
            self._su[slot],
            self._sv[slot],
            weight=self._weight[slot],
            priority=self._priority[slot],
            arrival=self._arrival[slot],
        )
        record.cov_triangle = self._cov_tri[slot]
        record.cov_wedge = self._cov_wedge[slot]
        return record

    def snapshot_arrays(
        self, out: Optional[SlotArrays] = None
    ) -> SlotArrays:
        """Cheap state snapshot: dtype-pinned slot columns + heap root.

        O(m) flat copies (no per-edge allocation, no dict walk) of the
        live slot prefix — the fields :meth:`CompactSample.materialize`
        would box into records, as five ``float64``/``int64`` columns,
        the ``u``/``v`` label lists, the heap root ``(priority, slot)``
        pair, the threshold ``z*`` and the stream position.  Pass a
        previous snapshot as ``out`` to overwrite its columns in place
        (the serving layer's double-buffer recycling); the caller owns
        the guarantee that no reader still holds it.

        >>> sampler = CompactGraphPrioritySampler(capacity=4, seed=1)
        >>> sampler.process_many([(0, 1), (1, 2)])
        2
        >>> snap = sampler.snapshot_arrays()
        >>> snap.size, snap.stream_position
        (2, 2)
        """
        size = len(self._heap)
        heap_arr = self._heap._heap
        if out is None or out.capacity != self._capacity:
            out = SlotArrays(self._capacity)
        out.weight[:size] = self._weight[:size]
        out.priority[:size] = self._priority[:size]
        out.arrival[:size] = self._arrival[:size]
        out.cov_triangle[:size] = self._cov_tri[:size]
        out.cov_wedge[:size] = self._cov_wedge[:size]
        out.u = self._su[:size]
        out.v = self._sv[:size]
        out.size = size
        out.heap_root = heap_arr[0] if size else None
        out.threshold = self._threshold
        out.stream_position = self._arrivals
        return out

    def snapshot_adjacency(self) -> Dict[Node, Dict[Node, int]]:
        """Order-preserving view of the slot adjacency (node → nbr → slot).

        The companion of :meth:`snapshot_arrays` for consumers that
        need bit-identical *retrospective* estimates: the adjacency's
        dict insertion orders determine the float accumulation order of
        Algorithm 2 and every other retrospective estimator, and the
        slot columns alone cannot recover them.

        Only the outer map is copied: its rows are the sampler's own,
        shared copy-on-write.  From this call on, the update loops copy
        a row before they first write it (:func:`_own_rows`), so
        ingesting more never changes the snapshot, and a capture costs
        the rows the drive wrote since the previous one.  The rows are
        read-only: no caller may write them, since a write would reach
        the live sampler and every other snapshot sharing the row.
        """
        self._owned = set()
        return self._adj.copy()

    def slot_view(self) -> tuple:
        """``(adjacency, u, v, weights)``: the live slot state Algorithm 2
        reads (:func:`repro.core.post_stream.sampled_edges`), read-only."""
        return self._adj, self._su, self._sv, self._weight[: len(self._heap)]

    def records(self) -> Iterator[EdgeRecord]:
        """Records of all currently sampled edges (materialised views)."""
        return self._view.records()

    def inclusion_probability(self, record: EdgeRecord) -> float:
        """Conditional HT probability ``min{1, w/z*}`` of ``record``."""
        return record.inclusion_probability(self._threshold)

    def edge_probability(self, u: Node, v: Node) -> float:
        """HT probability of a sampled edge, or 0.0 when not sampled."""
        nbrs = self._adj.get(u)
        if nbrs is None:
            return 0.0
        slot = nbrs.get(v)
        if slot is None:
            return 0.0
        threshold = self._threshold
        if threshold <= 0.0:
            return 1.0
        ratio = self._weight[slot] / threshold
        return ratio if ratio < 1.0 else 1.0

    def normalized_probabilities(self) -> Dict[EdgeKey, float]:
        """GPSNormalize: canonical edge key → min{1, w/z*}."""
        p = sampled_edges(self)[2]
        su, sv = self._su, self._sv
        return {canonical_edge(su[s], sv[s]): p[s] for s in self._heap}

    def sampled_edges(self) -> Iterator[EdgeKey]:
        for slot in self._heap:
            yield canonical_edge(self._su[slot], self._sv[slot])

    def contains_edge(self, u: Node, v: Node) -> bool:
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompactGraphPrioritySampler(m={self._capacity}, "
            f"t={self._arrivals}, |K̂|={self.sample_size}, "
            f"z*={self._threshold:.4g})"
        )


class CompactInStreamEstimator:
    """Algorithm 3 fused with the compact update loop.

    Behavioural equivalent of
    :class:`~repro.core.in_stream.InStreamEstimator` over a
    :class:`CompactGraphPrioritySampler`: the snapshot phase (triangles
    and wedges the arriving edge closes, with the covariance
    accumulators of Theorem 7) runs directly over the slot arrays at the
    pre-update threshold, then the same loop performs the sampler
    update — one pass, zero per-arrival allocations, bit-identical
    estimates to the object core under shared seeds.

    Examples
    --------
    >>> est = CompactInStreamEstimator(capacity=100, seed=1)
    >>> est.process_many([(0, 1), (1, 2), (0, 2)])
    3
    >>> est.triangle_estimate
    1.0
    """

    __slots__ = (
        "_sampler",
        "_triangles",
        "_triangle_var",
        "_wedges",
        "_wedge_var",
        "_cross_cov",
    )

    def __init__(
        self,
        capacity: int,
        weight_fn: Optional[WeightFunction] = None,
        seed: Optional[int] = None,
        sampler: Optional[CompactGraphPrioritySampler] = None,
    ) -> None:
        if sampler is not None:
            self._sampler = sampler
        else:
            self._sampler = CompactGraphPrioritySampler(
                capacity, weight_fn=weight_fn, seed=seed
            )
        self._triangles = 0.0
        self._triangle_var = 0.0
        self._wedges = 0.0
        self._wedge_var = 0.0
        self._cross_cov = 0.0

    # ------------------------------------------------------------------
    # Stream processing
    # ------------------------------------------------------------------
    def process(self, u: Node, v: Node) -> None:
        """Snapshot the subgraphs ``(u, v)`` closes, then update."""
        self.process_many(((u, v),))

    def process_many(self, edges: Iterable[Tuple[Node, Node]]) -> int:
        """Fused snapshot + update per arrival over the slot arrays.

        Equivalent to the object core's estimator pass edge for edge
        (same accumulation order, same uniform draws).  Returns the
        number of edges consumed (including skipped arrivals).
        """
        sampler = self._sampler
        sampler._codes_stale = True  # this loop admits past the screen
        adj = sampler._adj
        adj_get = adj.get
        owned = sampler._owned
        su = sampler._su
        sv = sampler._sv
        wts = sampler._weight
        prio = sampler._priority
        arr = sampler._arrival
        cov_tri = sampler._cov_tri
        cov_wedge = sampler._cov_wedge
        heap_arr = sampler._heap._heap
        hpush = heappush
        hreplace = heapreplace
        rand = sampler._rng.random
        capacity = sampler._capacity
        wkind = sampler._wkind
        coef = sampler._wcoef
        default = sampler._wdefault
        weight_fn = sampler._weight_fn
        view = sampler._view
        size = len(heap_arr)
        root_prio = heap_arr[0][0] if size else 0.0
        threshold = sampler._threshold
        arrivals = sampler._arrivals
        duplicates = sampler._duplicates
        self_loops = sampler._self_loops
        triangles = self._triangles
        triangle_var = self._triangle_var
        wedges = self._wedges
        wedge_var = self._wedge_var
        cross_cov = self._cross_cov
        consumed = 0
        try:
            for u, v in edges:
                consumed += 1
                if u == v:
                    self_loops += 1
                    continue
                nu = adj_get(u)
                if nu is not None and v in nu:
                    # Lockstep skip: estimation and sampling drop the
                    # same arrivals (no snapshot, no uniform draw).
                    duplicates += 1
                    continue
                nv = adj_get(v)
                closed = 0

                # --- triangles completed by k (Alg. 3 lines 9–19) ------
                # rec1 is always the u-side edge, rec2 the v-side, like
                # SampledGraph.triangles_with.
                if nu is not None and nv is not None:
                    if len(nu) <= len(nv):
                        for x, s1 in nu.items():
                            s2 = nv.get(x)
                            if s2 is None:
                                continue
                            closed += 1
                            if threshold <= 0.0:
                                q1 = 1.0
                            else:
                                q1 = wts[s1] / threshold
                                if q1 >= 1.0:
                                    q1 = 1.0
                            if threshold <= 0.0:
                                q2 = 1.0
                            else:
                                q2 = wts[s2] / threshold
                                if q2 >= 1.0:
                                    q2 = 1.0
                            inv_prod = 1.0 / (q1 * q2)
                            triangles += inv_prod
                            triangle_var += (inv_prod - 1.0) * inv_prod
                            triangle_var += (
                                2.0 * (cov_tri[s1] + cov_tri[s2]) * inv_prod
                            )
                            cross_cov += (
                                cov_wedge[s1] + cov_wedge[s2]
                            ) * inv_prod
                            cov_tri[s1] += (1.0 / q1 - 1.0) / q2
                            cov_tri[s2] += (1.0 / q2 - 1.0) / q1
                    else:
                        for x, s2 in nv.items():
                            s1 = nu.get(x)
                            if s1 is None:
                                continue
                            closed += 1
                            if threshold <= 0.0:
                                q1 = 1.0
                            else:
                                q1 = wts[s1] / threshold
                                if q1 >= 1.0:
                                    q1 = 1.0
                            if threshold <= 0.0:
                                q2 = 1.0
                            else:
                                q2 = wts[s2] / threshold
                                if q2 >= 1.0:
                                    q2 = 1.0
                            inv_prod = 1.0 / (q1 * q2)
                            triangles += inv_prod
                            triangle_var += (inv_prod - 1.0) * inv_prod
                            triangle_var += (
                                2.0 * (cov_tri[s1] + cov_tri[s2]) * inv_prod
                            )
                            cross_cov += (
                                cov_wedge[s1] + cov_wedge[s2]
                            ) * inv_prod
                            cov_tri[s1] += (1.0 / q1 - 1.0) / q2
                            cov_tri[s2] += (1.0 / q2 - 1.0) / q1

                # --- wedges completed by k (lines 20–27) ----------------
                # (u, v) is not sampled (duplicate check above), so the
                # object core's exclude filter can never trigger here.
                if nu is not None:
                    for s in nu.values():
                        if threshold <= 0.0:
                            q = 1.0
                        else:
                            q = wts[s] / threshold
                            if q >= 1.0:
                                q = 1.0
                        inv = 1.0 / q
                        wedges += inv
                        wedge_var += inv * (inv - 1.0)
                        wedge_var += 2.0 * cov_wedge[s] * inv
                        cross_cov += cov_tri[s] * inv
                        cov_wedge[s] += inv - 1.0
                if nv is not None:
                    for s in nv.values():
                        if threshold <= 0.0:
                            q = 1.0
                        else:
                            q = wts[s] / threshold
                            if q >= 1.0:
                                q = 1.0
                        inv = 1.0 / q
                        wedges += inv
                        wedge_var += inv * (inv - 1.0)
                        wedge_var += 2.0 * cov_wedge[s] * inv
                        cross_cov += cov_tri[s] * inv
                        cov_wedge[s] += inv - 1.0

                # --- sampler update (lines 29–40) -----------------------
                arrivals += 1
                if wkind == _W_TRIANGLE:
                    # The snapshot's triangle enumeration already counted
                    # |△̂(k)| — reuse it instead of re-intersecting.
                    # coef·0 + default == default exactly.
                    w = coef * closed + default if closed else default
                elif wkind == _W_UNIFORM:
                    w = default
                elif wkind == _W_WEDGE:
                    w = coef * (
                        (len(nu) if nu is not None else 0)
                        + (len(nv) if nv is not None else 0)
                    ) + default
                else:
                    w = weight_fn(u, v, view)
                    if not w > 0.0:
                        raise ValueError(
                            f"weight function returned non-positive {w!r}"
                        )
                r = w / (1.0 - rand())
                if size < capacity:
                    s = size
                    size += 1
                    su[s] = u
                    sv[s] = v
                    wts[s] = w
                    prio[s] = r
                    arr[s] = arrivals
                    cov_tri[s] = 0.0
                    cov_wedge[s] = 0.0
                    if owned is not None:
                        _own_rows(adj, owned, u, v)
                    nu = adj_get(u)
                    if nu is None:
                        adj[u] = {v: s}
                    else:
                        nu[v] = s
                    nv = adj_get(v)
                    if nv is None:
                        adj[v] = {u: s}
                    else:
                        nv[u] = s
                    hpush(heap_arr, (r, s))
                    root_prio = heap_arr[0][0]
                elif root_prio < r:
                    s = heap_arr[0][1]
                    if root_prio > threshold:
                        threshold = root_prio
                    eu = su[s]
                    ev = sv[s]
                    if owned is not None:
                        _own_rows(adj, owned, eu, ev, u, v)
                    d = adj[eu]
                    del d[ev]
                    if not d:
                        del adj[eu]
                    d = adj[ev]
                    del d[eu]
                    if not d:
                        del adj[ev]
                    su[s] = u
                    sv[s] = v
                    wts[s] = w
                    prio[s] = r
                    arr[s] = arrivals
                    cov_tri[s] = 0.0
                    cov_wedge[s] = 0.0
                    nu = adj_get(u)
                    if nu is None:
                        adj[u] = {v: s}
                    else:
                        nu[v] = s
                    nv = adj_get(v)
                    if nv is None:
                        adj[v] = {u: s}
                    else:
                        nv[u] = s
                    hreplace(heap_arr, (r, s))
                    root_prio = heap_arr[0][0]
                elif r > threshold:
                    threshold = r
        finally:
            sampler._threshold = threshold
            sampler._arrivals = arrivals
            sampler._duplicates = duplicates
            sampler._self_loops = self_loops
            self._triangles = triangles
            self._triangle_var = triangle_var
            self._wedges = wedges
            self._wedge_var = wedge_var
            self._cross_cov = cross_cov
        return consumed

    def process_stream(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        self.process_many(edges)

    #: Algorithm 3 snapshots every arrival against the live adjacency —
    #: winners and losers alike contribute wedge/triangle closures — so
    #: there is no loser population a vectorised gate could skip.
    chunk_vectorized = False

    def process_chunk(self, us, vs) -> int:
        """Columnar block → the fused scalar loop (bit-exact adapter).

        Exists so chunk-producing drivers can feed either counter shape;
        see :attr:`chunk_vectorized` for why no gate applies here.
        """
        from repro.streams.chunks import pairs_from_columns

        return self.process_many(pairs_from_columns(us, vs))

    def track(
        self,
        edges: Iterable[Tuple[Node, Node]],
        checkpoints,
    ) -> Iterator[Tuple[int, GraphEstimates]]:
        """Process ``edges``, yielding ``(t, estimates)`` at checkpoints."""
        marks = list(checkpoints)
        next_idx = 0
        t = 0
        for u, v in edges:
            self.process_many(((u, v),))
            t += 1
            while next_idx < len(marks) and marks[next_idx] == t:
                yield t, self.estimates()
                next_idx += 1

    def snapshot_arrays(
        self, out: Optional[SlotArrays] = None
    ) -> SlotArrays:
        """The sampler's slot snapshot (see the sampler's method).

        The estimator's own Algorithm-3 accumulators are already O(1)
        to read (:meth:`estimates` assembles them without touching the
        slots), so the reservoir columns are the only state worth a
        bulk copy.
        """
        return self._sampler.snapshot_arrays(out)

    def snapshot_adjacency(self) -> Dict[Node, Dict[Node, int]]:
        """Copy-on-write slot-adjacency view (see the sampler's method)."""
        return self._sampler.snapshot_adjacency()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def sampler(self) -> CompactGraphPrioritySampler:
        """The underlying compact reservoir (shared-sample protocol)."""
        return self._sampler

    @property
    def triangle_estimate(self) -> float:
        return self._triangles

    @property
    def wedge_estimate(self) -> float:
        return self._wedges

    @property
    def clustering_estimate(self) -> float:
        if self._wedges == 0:
            return 0.0
        return 3.0 * self._triangles / self._wedges

    def estimates(self) -> GraphEstimates:
        """Current snapshot estimates with variances and bounds; O(1)."""
        sampler = self._sampler
        return GraphEstimates.from_raw(
            triangle_count=self._triangles,
            triangle_variance=self._triangle_var,
            wedge_count=self._wedges,
            wedge_variance=self._wedge_var,
            tri_wedge_covariance=self._cross_cov,
            stream_position=sampler.stream_position,
            sample_size=sampler.sample_size,
            threshold=sampler.threshold,
        )


# ----------------------------------------------------------------------
# Core selection
# ----------------------------------------------------------------------
def validate_core(core: str) -> str:
    """Check a core name; unknown names raise with the known set."""
    if core not in CORES:
        raise ValueError(f"unknown core {core!r}; known cores: {CORES}")
    return core


def make_priority_sampler(
    capacity: int,
    weight_fn: Optional[WeightFunction] = None,
    seed: Optional[int] = None,
    core: str = DEFAULT_CORE,
):
    """Build a GPS sampler on the selected core.

    ``core="compact"`` (default) returns the slot-based
    :class:`CompactGraphPrioritySampler`; ``core="object"`` the boxed
    reference :class:`~repro.core.priority_sampler.GraphPrioritySampler`.
    Both select bit-identical samples under shared seeds.

    Example
    -------
    >>> make_priority_sampler(8, seed=1, core="object").sample_size
    0
    """
    from repro.core.priority_sampler import GraphPrioritySampler

    validate_core(core)
    cls = (
        CompactGraphPrioritySampler if core == "compact"
        else GraphPrioritySampler
    )
    return cls(capacity, weight_fn=weight_fn, seed=seed)


def make_in_stream_estimator(
    capacity: int,
    weight_fn: Optional[WeightFunction] = None,
    seed: Optional[int] = None,
    core: str = DEFAULT_CORE,
):
    """Build an in-stream estimator on the selected core.

    Example
    -------
    >>> est = make_in_stream_estimator(8, seed=1)
    >>> type(est).__name__
    'CompactInStreamEstimator'
    """
    from repro.core.in_stream import InStreamEstimator

    validate_core(core)
    cls = (
        CompactInStreamEstimator if core == "compact" else InStreamEstimator
    )
    return cls(capacity, weight_fn=weight_fn, seed=seed)


__all__ = [
    "CORES",
    "DEFAULT_CORE",
    "CompactGraphPrioritySampler",
    "CompactInStreamEstimator",
    "CompactSample",
    "SlotArrays",
    "make_in_stream_estimator",
    "make_priority_sampler",
    "materialize_slots",
    "validate_core",
]
