"""Node interning: arbitrary labels → dense ``int32`` ids.

The paper's stream model allows any hashable node labels, but everything
downstream of the stream — reservoir membership, adjacency lookups,
triangle intersections — only needs label *identity*.  Interning the
labels to dense machine integers at stream-construction time therefore
changes no estimate (every metric in the repo is label-free) while
buying two things:

* the compact core's hot-path dict operations hash small ints instead of
  arbitrary objects;
* the edge population becomes a flat ``int32`` array — the shape the
  chunked pipeline's columns and the zero-copy shared-memory fan-out
  (:mod:`repro.engine.shared_edges`) need.  The fan-out itself never
  interns: it publishes populations whose labels already are int32
  ints, so callers intern first when they want that path.

Ids are assigned densely in first-encounter order, so interning the same
edge sequence always produces the same id sequence.

The synthetic generators (:mod:`repro.graph.generators`) already emit
dense ``0..n-1`` int labels, for which interning is the identity
relabelling, and integer edge-list files parse straight into int32
columns; interning serves the rest (the live service's wide-id file
source, and exact counts over non-int32 labels through
``EdgeStream.id_columns``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

from repro.graph.edge import Node

#: Dense ids are published as int32 (float-free, numpy-friendly); a
#: graph would need > 2**31 - 1 distinct nodes to overflow this.
MAX_NODES = 2**31 - 1

Edge = Tuple[Node, Node]
InternedEdge = Tuple[int, int]


class NodeInterner:
    """Bijective ``label ↔ dense int`` mapping in first-encounter order.

    Examples
    --------
    >>> interner = NodeInterner()
    >>> interner.intern_edges([("a", "b"), ("b", "c")])
    [(0, 1), (1, 2)]
    >>> interner.label(2), len(interner)
    ('c', 3)
    """

    __slots__ = ("_ids", "_labels")

    def __init__(self) -> None:
        self._ids: Dict[Node, int] = {}
        self._labels: List[Node] = []

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: Node) -> bool:
        return label in self._ids

    def intern(self, label: Node) -> int:
        """The dense id of ``label``, assigning the next id if new."""
        ids = self._ids
        node_id = ids.get(label)
        if node_id is None:
            node_id = len(ids)
            if node_id >= MAX_NODES:
                raise OverflowError(
                    f"more than {MAX_NODES} distinct node labels"
                )
            ids[label] = node_id
            self._labels.append(label)
        return node_id

    def intern_edges(self, edges: Iterable[Edge]) -> List[InternedEdge]:
        """Intern a whole edge sequence (order-preserving)."""
        ids = self._ids
        labels = self._labels
        out: List[InternedEdge] = []
        append = out.append
        for u, v in edges:
            iu = ids.get(u)
            if iu is None:
                iu = len(ids)
                ids[u] = iu
                labels.append(u)
            iv = ids.get(v)
            if iv is None:
                iv = len(ids)
                ids[v] = iv
                labels.append(v)
            append((iu, iv))
        if len(labels) > MAX_NODES:
            raise OverflowError(f"more than {MAX_NODES} distinct node labels")
        return out

    def id_of(self, label: Node) -> int:
        """The id of an already-interned label; unknown labels raise."""
        try:
            return self._ids[label]
        except KeyError:
            raise KeyError(f"label {label!r} was never interned") from None

    def label(self, node_id: int) -> Node:
        """The original label of a dense id."""
        try:
            return self._labels[node_id]
        except IndexError:
            raise KeyError(f"no label interned with id {node_id}") from None

    def edge_labels(
        self, edges: Iterable[InternedEdge]
    ) -> Iterator[Edge]:
        """Map interned edges back to their original labels."""
        labels = self._labels
        for u, v in edges:
            yield labels[u], labels[v]

    @property
    def labels(self) -> Tuple[Node, ...]:
        """All interned labels, indexed by id."""
        return tuple(self._labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeInterner(nodes={len(self._labels)})"


__all__ = ["MAX_NODES", "NodeInterner"]
