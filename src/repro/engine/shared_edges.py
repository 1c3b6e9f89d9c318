"""Zero-copy publication of int-labelled edge populations to worker pools.

Every task of the executor (:func:`repro.api.execution.execute`) streams
a seeded permutation of one shared edge population.  Shipping that
population to each worker as pickled tuples costs O(|K|) per worker;
this module makes the per-worker cost a fixed-size descriptor instead:

* the parent publishes the population's ``int32`` columns **once**
  through :mod:`multiprocessing.shared_memory` (the u column, then the v
  column) — only populations whose labels already are int32 ints
  (:meth:`repro.streams.stream.EdgeStream.columnar`), so nothing is
  relabelled and every label-reading weight or router downstream sees
  the original labels.  A column-backed population (a parsed edge-list
  file) publishes without a tuple ever being built;
* each worker attaches to the segment by name — the only thing that
  crosses the process boundary is a ``(segment name, edge count)``
  descriptor of a few dozen bytes — copies the columns out, and closes
  its mapping.

Lifecycle: the publishing side owns the segment and must
:meth:`~SharedEdgePopulation.unlink` it (use the context manager — it
unlinks on success, failure and KeyboardInterrupt alike).  Attaching
sides never unlink.  On Python < 3.13 an attach also registers with the
``resource_tracker``; under the default ``fork`` start method parent and
workers share one tracker, so the registrations coalesce and the
parent's unlink retires them all.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple, Union

import numpy as np

from repro.streams.stream import EdgeStream

try:  # pragma: no cover - absent only on exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

_ITEMSIZE = np.dtype(np.int32).itemsize

InternedEdge = Tuple[int, int]

#: What crosses the process boundary: ``(segment name, edge count)``.
Descriptor = Tuple[str, int]


def shared_memory_available() -> bool:
    """Whether :mod:`multiprocessing.shared_memory` is usable here."""
    return _shared_memory is not None


class SharedEdgePopulation:
    """One published edge population: create → hand out descriptor → unlink.

    Examples
    --------
    >>> publish = SharedEdgePopulation.publish
    >>> with publish([(0, 1), (1, 2)]) as shared:
    ...     edges = SharedEdgePopulation.attach(shared.descriptor)
    >>> edges
    [(0, 1), (1, 2)]
    """

    __slots__ = ("_shm", "_edges")

    def __init__(self, shm, num_edges: int) -> None:
        self._shm = shm
        self._edges = num_edges

    # ------------------------------------------------------------------
    # Publishing side
    # ------------------------------------------------------------------
    @classmethod
    def publish(
        cls, edges: Union[EdgeStream, Iterable[InternedEdge]]
    ) -> "SharedEdgePopulation":
        """Copy a population's int32 columns into a new shared segment.

        ``edges`` is an :class:`~repro.streams.stream.EdgeStream` (its
        cached columns are copied as they are) or any sequence of
        int32-range int pairs; anything else raises ``ValueError``.
        """
        if _shared_memory is None:  # pragma: no cover
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        if not isinstance(edges, EdgeStream):
            edges = EdgeStream(edges)
        columns = edges.columnar()
        if columns is None:
            raise ValueError("only int32-labelled (u, v) pairs can be published")
        num_edges = len(columns[0])
        size = num_edges * _ITEMSIZE
        shm = _shared_memory.SharedMemory(create=True, size=max(1, 2 * size))
        shm.buf[:size] = columns[0].astype(np.int32, copy=False).tobytes()
        shm.buf[size:2 * size] = columns[1].astype(np.int32, copy=False).tobytes()
        return cls(shm, num_edges)

    @property
    def descriptor(self) -> Descriptor:
        """The picklable ``(segment name, edge count)`` worker payload."""
        return (self._shm.name, self._edges)

    @property
    def num_edges(self) -> int:
        return self._edges

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (publisher-only; idempotent)."""
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink
            pass

    def __enter__(self) -> "SharedEdgePopulation":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
        self.unlink()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedEdgePopulation(name={self._shm.name!r}, "
            f"edges={self._edges})"
        )

    # ------------------------------------------------------------------
    # Attaching side (workers)
    # ------------------------------------------------------------------
    @staticmethod
    def attach_columns(descriptor: Descriptor) -> Tuple[np.ndarray, np.ndarray]:
        """Copy a published segment's ``(u, v)`` int32 columns out.

        Closes the mapping immediately, so the worker holds no reference
        to the segment afterwards.
        """
        if _shared_memory is None:  # pragma: no cover
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        name, num_edges = descriptor
        shm = _shared_memory.SharedMemory(name=name)
        try:
            flat = np.frombuffer(
                shm.buf, dtype=np.int32, count=2 * num_edges
            ).copy()
        finally:
            shm.close()
        return flat[:num_edges], flat[num_edges:]

    @classmethod
    def attach(cls, descriptor: Descriptor) -> List[InternedEdge]:
        """Rebuild the edge list from a published segment."""
        us, vs = cls.attach_columns(descriptor)
        return list(zip(us.tolist(), vs.tolist()))


__all__ = [
    "Descriptor",
    "SharedEdgePopulation",
    "shared_memory_available",
]
