"""Zero-copy publication of int-labelled edge populations to worker pools.

Every task of the executor (:func:`repro.api.execution.execute`) streams
a seeded permutation of one shared edge population.  Shipping that
population to each worker as pickled tuples costs O(|K|) per worker;
this module makes the per-worker cost a fixed-size descriptor instead:

* the parent publishes the flat ``int32`` label array **once** through
  :mod:`multiprocessing.shared_memory` — only populations whose labels
  already are int32 ints (:func:`repro.streams.chunks.int32_labelled`),
  so nothing is relabelled and every label-reading weight or router
  downstream sees the original labels;
* each worker attaches to the segment by name — the only thing that
  crosses the process boundary is a ``(segment name, edge count)``
  descriptor of a few dozen bytes — copies the labels out, and closes
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

from array import array
from itertools import chain
from typing import List, Sequence, Tuple

try:  # pragma: no cover - absent only on exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

#: 4-byte signed int typecode ("i" on every mainstream CPython build).
_TYPECODE = "i" if array("i").itemsize == 4 else "l"
_ITEMSIZE = array(_TYPECODE).itemsize

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
        cls, edges: Sequence[InternedEdge]
    ) -> "SharedEdgePopulation":
        """Copy ``edges`` (int32-range int pairs) into a new shared segment."""
        if _shared_memory is None:  # pragma: no cover
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        flat = array(_TYPECODE, chain.from_iterable(edges))
        num_edges, remainder = divmod(len(flat), 2)
        if remainder:
            raise ValueError("edges must be (u, v) pairs")
        shm = _shared_memory.SharedMemory(
            create=True, size=max(1, len(flat) * _ITEMSIZE)
        )
        shm.buf[: len(flat) * _ITEMSIZE] = flat.tobytes()
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
    def attach(descriptor: Descriptor) -> List[InternedEdge]:
        """Rebuild the edge list from a published segment.

        Copies the ids out and closes the mapping immediately, so the
        worker holds no reference to the segment afterwards.
        """
        if _shared_memory is None:  # pragma: no cover
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        name, num_edges = descriptor
        shm = _shared_memory.SharedMemory(name=name)
        try:
            flat = array(_TYPECODE)
            flat.frombytes(shm.buf[: 2 * num_edges * _ITEMSIZE])
        finally:
            shm.close()
        return list(zip(flat[0::2], flat[1::2]))


__all__ = [
    "Descriptor",
    "SharedEdgePopulation",
    "shared_memory_available",
]
