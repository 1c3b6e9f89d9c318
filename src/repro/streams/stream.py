"""Edge streams: the arbitrary-order arrival model of the paper.

An :class:`EdgeStream` wraps a concrete edge sequence and can be iterated
multiple times (each iteration replays the same order).  The canonical
constructor, :meth:`EdgeStream.from_graph`, randomly permutes a graph's
edge set with an explicit seed — exactly the experimental setup of Sec. 6
("We generate the graph stream by randomly permuting the set of edges in
each graph").

A stream is backed by ``(u, v)`` tuples or by int32 columns
(:meth:`EdgeStream.from_columns`, what :meth:`EdgeStream.from_file`
makes of an integer edge-list file and the shared-memory fan-out
attaches).  A tuple stream builds its columns on first use and caches
them; a column-backed stream never builds a tuple list: iterating it
yields plain-int pairs one ``DEFAULT_CHUNK_SIZE`` block at a time and
caches nothing, so the chunked engine reads the columns' blocks and a
scalar pass reads pairs made fresh from them.
Every seeded permutation of a stream whose labels convert gathers the
columns, whatever drive then reads it.

Every seeded arrival order is :func:`shuffled_indices`: the index array
of ``random.Random(seed).shuffle(list(range(n)))``, replayed bit for bit
in NumPy rather than by CPython's per-element loop.
"""

from __future__ import annotations

import functools
import random
from itertools import chain, starmap
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.adjacency import AdjacencyGraph
from repro.graph.edge import Node
from repro.graph.io import PathLike, iter_edge_list, read_edge_columns
from repro.streams.chunks import (
    DEFAULT_CHUNK_SIZE,
    columnar_or_none,
    pairs_from_columns,
)
from repro.streams.interner import NodeInterner
from repro.streams.transforms import simplify_columns, simplify_edges

#: Bounds below this are drawn by a plain per-step loop: there a block's
#: words are nearly all ambiguous and its fixed point converges slowly.
_LOOP_BOUND = 1 << 10
#: Upper limit on the raw words drawn per block (memory stays bounded).
_BLOCK_WORDS = 1 << 16
#: From here on the reference shuffle runs: indices leave int32, and
#: CPython draws bounds above 2**32 from two words.
_INDEX_LIMIT = 1 << 31
#: The first-use self-check's size: large enough that the replica's
#: block draws cross two powers of two before its plain loop starts.
_CHECK_N = 5000


def transplant_mt19937(
    rng: random.Random, into: Optional[np.random.MT19937] = None
) -> np.random.MT19937:
    """A numpy ``MT19937`` holding ``rng``'s exact Mersenne state.

    CPython's :class:`random.Random` and numpy's ``MT19937`` run the
    same 624-word generator, so after the state is copied across the
    bit generator's raw words are the ones ``rng.getrandbits(32)`` would
    return next, and a ``RandomState`` over it draws the doubles
    ``rng.random()`` would.  ``into`` reuses an existing bit generator.
    ``rng`` itself is not advanced.
    """
    internal = rng.getstate()[1]
    mt = into
    if mt is None:
        # The state is overwritten below before any draw, so the
        # construction-time seed is never observed.
        mt = np.random.MT19937()  # repro-lint: disable=rng-discipline
    mt.state = {
        "bit_generator": "MT19937",
        "state": {
            "key": np.asarray(internal[:-1], dtype=np.uint32),
            "pos": internal[-1],
        },
    }
    return mt


def _shuffle_draws(n: int, mt: np.random.MT19937) -> np.ndarray:
    """The swap partners ``random.Random.shuffle`` draws for ``n`` items.

    Entry ``t`` is the ``j`` of step ``t``, which swaps positions
    ``n - 1 - t`` and ``j`` after drawing ``j`` below the bound
    ``n - t``.  CPython draws each ``j`` from 32-bit words: with
    ``k = bound.bit_length()`` a word gives ``word >> (32 - k)``, and
    the word is rejected while that is ``>= bound``.

    Words come in blocks short enough that ``k`` stays fixed across the
    block.  Word ``p`` of a block is accepted iff fewer than
    ``bound - value[p]`` words before it were, so the accepted set is
    the fixed point of the block's running accept count.  It is unique,
    because word ``p`` depends only on the words before it, and each
    pass of the iteration below fixes at least one more word of the
    prefix.  A block holds at most an eighth of its bound, so few words
    are ambiguous and a handful of passes settle it.
    """
    draws = np.empty(max(n - 1, 0), dtype=np.int32)
    t = 0
    while n - t >= _LOOP_BOUND:
        bound = n - t
        k = bound.bit_length()
        # Bounds fall by one per accepted word, so a block of `size`
        # words stays within [bound - size + 1, bound]: k bits each.
        size = min(bound >> 3, bound - (1 << (k - 1)) + 1, _BLOCK_WORDS)
        values = (mt.random_raw(size) >> np.uint64(32 - k)).astype(np.int64)
        room = bound - values
        accepted = room > 0
        while True:
            before = np.cumsum(accepted)
            before -= accepted
            settled = before < room
            if np.array_equal(settled, accepted):
                break
            accepted = settled
        taken = values[accepted]
        draws[t:t + len(taken)] = taken
        t += len(taken)
    words = _raw_words(mt)
    for step in range(t, n - 1):
        bound = n - step
        shift = 32 - bound.bit_length()
        j = next(words) >> shift
        while j >= bound:
            j = next(words) >> shift
        draws[step] = j
    return draws


def _raw_words(mt: np.random.MT19937) -> Iterator[int]:
    """``mt``'s raw 32-bit words as Python ints, drawn 1024 at a time."""
    while True:
        yield from mt.random_raw(1024).tolist()


def _apply_transpositions(n: int, draws: np.ndarray) -> np.ndarray:
    """``list(range(n))`` after the swaps ``draws`` lists, as int32.

    Applied in rounds of deterministic reservations, the parallel Knuth
    shuffle of Shun, Gu, Blelloch, Fineman and Gibbons (SODA 2015).
    Step ``i`` (swapping ``i`` and ``j_i``) must follow every earlier,
    larger step that touches either position.  Each round, every
    remaining step reserves both its positions with priority ``i``
    (a max-scatter) and commits when it holds both.  Those steps touch
    disjoint positions and have nothing left to wait for, so they swap
    together.  The rounds number O(log n) with high probability.
    """
    index = np.arange(n, dtype=np.int32)
    i = np.arange(n - 1, 0, -1, dtype=np.int32)
    moving = i != draws  # a step with j_i == i swaps nothing
    i, j = i[moving], draws[moving]
    owner = np.full(n, -1, dtype=np.int32)
    while len(i):
        # Position i is step i's own and, being the lowest priority
        # there, is taken by any larger step that also targets it.
        owner[i] = i
        np.maximum.at(owner, j, i)
        ready = (owner[i] == i) & (owner[j] == i)
        ri, rj = i[ready], j[ready]
        index[ri], index[rj] = index[rj], index[ri]
        # A committed step's own position is never touched again, so
        # only the targets need clearing before the next round.
        owner[j] = -1
        waiting = ~ready
        i, j = i[waiting], j[waiting]
    return index


def _replica(n: int, seed: int) -> np.ndarray:
    """The vectorised replay of ``random.Random(seed).shuffle``."""
    mt = transplant_mt19937(random.Random(seed))
    return _apply_transpositions(n, _shuffle_draws(n, mt))


@functools.lru_cache(maxsize=None)
def _replica_agrees() -> bool:
    """Whether the replica equals this interpreter's ``shuffle``.

    Checked once, on first use: CPython promises stable seeding and
    ``random()``, not ``shuffle``, so an interpreter whose shuffle draws
    differently sends every permutation to the reference loop.
    """
    order = list(range(_CHECK_N))
    random.Random(0).shuffle(order)
    return _replica(_CHECK_N, 0).tolist() == order


def shuffled_indices(n: int, seed: int) -> np.ndarray:
    """The index array of ``random.Random(seed).shuffle(list(range(n)))``.

    Bit for bit, for any seed ``random.Random`` accepts.  The vectorised
    replica answers when its first-use self-check agrees with this
    interpreter's ``shuffle`` and ``n < 2**31`` (int32 indices);
    anything else runs the reference loop itself.

    >>> order = list(range(10))
    >>> random.Random(3).shuffle(order)
    >>> shuffled_indices(10, 3).tolist() == order
    True
    """
    if n < _INDEX_LIMIT and _replica_agrees():
        return _replica(n, seed)
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return np.fromiter(order, dtype=np.intp, count=n)


class EdgeStream:
    """A replayable, finite stream of undirected edges."""

    __slots__ = ("_edges", "_columns", "_held_seed", "_held")

    def __init__(self, edges: Sequence[Tuple[Node, Node]]) -> None:
        self._edges: Optional[List[Tuple[Node, Node]]] = list(edges)
        self._columns = None  # lazily built by columnar(); False = can't
        self._held_seed: Optional[int] = None  # see permuted()
        self._held: Optional["EdgeStream"] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def canonical_edges(graph: AdjacencyGraph) -> List[Tuple[Node, Node]]:
        """``graph``'s edge set in the canonical pre-permutation order.

        This ordering is the contract every seeded stream shares: a
        permutation with seed ``s`` of the canonical order is *the*
        stream ``(graph, s)`` denotes, wherever it is rebuilt (here, in
        replication workers, in the :mod:`repro.api` executor).
        """
        return sorted(graph.edges(), key=repr)

    @classmethod
    def from_graph(
        cls, graph: AdjacencyGraph, seed: Optional[int] = None
    ) -> "EdgeStream":
        """Random permutation of ``graph``'s edge set (paper Sec. 6 setup).

        The canonical order under :meth:`permuted`: the same seed always
        yields the same arrival order, and ``seed=None`` keeps the
        canonical order.
        """
        return cls(cls.canonical_edges(graph)).permuted(seed)

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[Node, Node]]) -> "EdgeStream":
        """Stream with the given explicit arrival order."""
        return cls(list(edges))

    @classmethod
    def from_columns(cls, us, vs) -> "EdgeStream":
        """Stream over equal-length int32 columns, in their order.

        The columns carry the labels themselves (no relabelling), and
        no tuple list is ever built from them.

        >>> import numpy as np
        >>> column = np.array([0, 1], dtype=np.int32)
        >>> list(EdgeStream.from_columns(column, column + 1))
        [(0, 1), (1, 2)]
        """
        if len(us) != len(vs):
            raise ValueError("edge columns must have equal length")
        stream = cls.__new__(cls)
        stream._edges = None
        stream._columns = (us, vs)
        stream._held_seed = stream._held = None
        return stream

    @classmethod
    def from_file(cls, path: PathLike) -> "EdgeStream":
        """An edge-list file's simplified edge population, in file order.

        The one place a file becomes a population: an integer file
        parses into int32 columns (:func:`~repro.graph.io.read_edge_columns`)
        and :func:`~repro.streams.transforms.simplify_columns` drops its
        self loops and repeats, so the stream is column-backed; a file
        the columnar reader declines is read by the reference line loop
        (:func:`~repro.graph.io.iter_edge_list`) and
        :func:`~repro.streams.transforms.simplify_edges`, with equal
        edges, into a tuple-backed stream.
        """
        columns = read_edge_columns(path)
        if columns is not None:
            return cls.from_columns(*simplify_columns(*columns))
        return cls(list(simplify_edges(iter_edge_list(path))))

    def permuted(self, seed: Optional[int]) -> "EdgeStream":
        """The seeded arrival permutation of this stream.

        The edges are gathered through :func:`shuffled_indices`, the
        index order of ``random.Random(seed).shuffle``.  Fisher–Yates
        swaps are value-blind, so this is exactly what shuffling the
        edges themselves gives, and the order is the one every entry
        point shares.  Whenever the labels convert (:meth:`columnar`,
        built once per population and cached) the int32 columns are
        gathered, so the permutation is column-backed for a chunked and
        a scalar pass alike; only labels that do not convert gather
        tuples.  ``seed=None`` keeps the order and returns this stream.

        The stream keeps the permutation it last returned and returns
        it again while the seed repeats, so the tasks of one stream seed
        (a sweep's cells, the shards of a pass) share one order.  A new
        seed drops the held permutation before gathering the next, so
        at most one is held.

        >>> stream = EdgeStream([(0, 1), (1, 2), (2, 3)])
        >>> order = list(stream)
        >>> random.Random(5).shuffle(order)
        >>> list(stream.permuted(5)) == order
        True
        >>> stream.permuted(5) is stream.permuted(5)
        True
        """
        if seed is None:
            return self
        if self._held is not None and seed == self._held_seed:
            return self._held
        self._held_seed = self._held = None
        index = shuffled_indices(len(self), seed)
        columns = self.columnar()
        if columns is not None:
            us, vs = columns
            held = EdgeStream.from_columns(us[index], vs[index])
        else:
            edges = self._edges
            held = EdgeStream([edges[i] for i in index.tolist()])
        self._held_seed, self._held = seed, held
        return held

    # ------------------------------------------------------------------
    # Columnar (chunked) access
    # ------------------------------------------------------------------
    def columnar(self):
        """The whole stream as ``(u, v)`` int32 columns, or ``None``.

        Succeeds only when every node label is already an int32-range
        integer — then the columns carry the original labels and the
        chunked pipeline is label-faithful (no interning).  The result
        is cached, so however many :meth:`permuted` and :meth:`chunks`
        calls follow, the conversion is paid once, and a column-backed
        stream never converts.

        >>> EdgeStream([(0, 1), (1, 2)]).columnar()[0].tolist()
        [0, 1]
        >>> EdgeStream([("a", "b")]).columnar() is None
        True
        """
        if self._columns is None:
            built = columnar_or_none(self._edges)
            self._columns = False if built is None else built
        return None if self._columns is False else self._columns

    def id_columns(self):
        """``(u, v)`` int32 columns to count on, whatever the labels.

        The stream's own :meth:`columnar` labels when they convert,
        else dense ids interned in first-appearance order (strings, ids
        past int32).  Exact counts are label-free, so either serves.

        >>> EdgeStream([("a", "b"), ("b", "c")]).id_columns()[1].tolist()
        [1, 2]
        """
        columns = self.columnar()
        if columns is None:
            columns = columnar_or_none(NodeInterner().intern_edges(self._edges))
        return columns

    def _require_columns(self):
        columns = self.columnar()
        if columns is None:
            raise TypeError(
                "stream labels are not int32-range ints; pass a "
                "NodeInterner to intern them to dense ids"
            )
        return columns

    def chunks(
        self,
        size: int = DEFAULT_CHUNK_SIZE,
        interner: Optional[NodeInterner] = None,
    ) -> Iterator[Tuple["object", "object"]]:
        """Yield the stream as columnar int32 blocks of ≤ ``size`` edges.

        Blocks are zero-copy views into the cached :meth:`columnar`
        arrays, in arrival order — the input shape of
        ``process_chunk`` on the compact GPS core.  Streams whose
        labels are not int32-range integers need an explicit
        :class:`~repro.streams.interner.NodeInterner` (dense ids in
        first-encounter order; the interner keeps the label map) and
        raise :class:`TypeError` without one.

        >>> [u.tolist() for u, v in EdgeStream([(0, 1), (1, 2), (2, 3)]).chunks(2)]
        [[0, 1], [2]]
        """
        if size <= 0:
            raise ValueError("chunk size must be positive")
        if self.columnar() is None and interner is not None:
            u, v = columnar_or_none(interner.intern_edges(self._edges))
        else:
            u, v = self._require_columns()
        for start in range(0, len(u), size):
            yield u[start:start + size], v[start:start + size]

    # ------------------------------------------------------------------
    # Sequence-ish protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Tuple[Node, Node]]:
        """The arrivals in order; a column-backed stream converts one
        block of plain-int pairs at a time and keeps none of them."""
        if self._edges is not None:
            return iter(self._edges)
        return chain.from_iterable(starmap(pairs_from_columns, self.chunks()))

    def __len__(self) -> int:
        if self._edges is None:
            return len(self._columns[0])
        return len(self._edges)

    def __getitem__(self, index):
        if self._edges is not None:
            if isinstance(index, slice):
                return EdgeStream(self._edges[index])
            return self._edges[index]
        us, vs = self._columns
        if isinstance(index, slice):
            return EdgeStream.from_columns(us[index], vs[index])
        return us[index].item(), vs[index].item()

    def prefix(self, length: int) -> "EdgeStream":
        """The first ``length`` arrivals as a new stream."""
        return self[:length]

    def checkpoints(self, count: int) -> List[int]:
        """``count`` evenly spaced arrival indices ending at the stream end.

        Always produces exactly ``min(count, n)`` strictly increasing marks
        in ``[1, n]``: when rounding makes two ideal marks collide, the
        later one advances to the next free index (and marks near the end
        retreat just enough that the remainder still fit).

        Used by the time-series experiments (Table 3, Figure 3) to pick
        when to record estimates.
        """
        if count <= 0:
            return []
        n = len(self)
        if count >= n:
            return list(range(1, n + 1))
        step = n / count
        marks: List[int] = []
        for i in range(count):
            mark = int(round(step * (i + 1)))
            lowest = marks[-1] + 1 if marks else 1
            highest = n - (count - 1 - i)  # leave room for the rest
            marks.append(min(max(mark, lowest), highest))
        return marks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EdgeStream(len={len(self)})"
