"""Content-addressed caching of exact ground truth (and sweep cells).

Every cell of a sweep grid reports error against the *exact* statistics
of its source graph.  Exact triangle counting is O(a(G)·|K|), versus one
budget-bounded streaming pass per cell.  :func:`file_statistics` runs it
on the file's parsed int32 columns
(:func:`repro.graph.exact.column_statistics`): for a 200k-edge file on a
2-vCPU VM that takes 0.13–0.17 s and a 56 MB process peak, where a
dict-of-sets graph took 1.2–1.4 s and 114 MB.  The paper's evaluation
grids (Tables 2–3, Figures 1–3) share a handful of sources across dozens
of cells, so the exact counts are computed **once per source** and
reused everywhere.

:class:`GroundTruthCache` does exactly that, content-addressed:

* a registered dataset is addressed by its name *plus* the SHA-256 of
  its generated canonical edge set, so editing a generator (seed, size,
  family) in the registry invalidates old disk entries instead of
  silently serving the previous graph's statistics;
* an edge-list file is addressed by the SHA-256 of its bytes, so editing
  the file invalidates the entry while renaming or copying it does not;
* entries live in memory always, and as JSON files under
  ``<root>/ground_truth/`` when a cache directory is given, surviving
  across processes and ``--resume`` runs.

Note the cache key deliberately has **no stream-seed component**: the
exact statistics of the full graph are invariant under the arrival
permutation, so one entry serves every ``stream_seed`` (and every
method/budget/weight) in the grid.

:class:`ContentAddressedStore` is the shared disk layer; the sweep
runner reuses it for per-cell :class:`~repro.api.execution.RunReport`
payloads (``<root>/cells/``), which is what makes
``python -m repro sweep --resume`` skip already-computed cells.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

from repro.graph.exact import GraphStatistics, column_statistics
from repro.streams.stream import EdgeStream

#: Bump when the on-disk payload layout changes; stale versions are
#: treated as misses rather than parsed.
_FORMAT_VERSION = 1


def _canonical_json(data: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def content_key(descriptor: Dict[str, Any]) -> str:
    """SHA-256 content address of a JSON-safe descriptor.

    The descriptor *is* the identity: two descriptors with equal
    canonical JSON map to the same key, anything else to different keys
    (and a :data:`_FORMAT_VERSION` bump re-keys everything).

    Example
    -------
    >>> key = content_key({"kind": "dataset", "name": "com-amazon"})
    >>> len(key), key == content_key({"kind": "dataset", "name": "com-amazon"})
    (64, True)
    >>> key == content_key({"kind": "dataset", "name": "soc-orkut"})
    False
    """
    payload = _canonical_json({"v": _FORMAT_VERSION, "descriptor": descriptor})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def file_statistics(path: str) -> GraphStatistics:
    """Exact statistics of an edge-list file, counted on its columns.

    The file's population (:meth:`EdgeStream.from_file`) is counted on
    its int32 columns: an integer file's own, or dense ids interned
    from a declined file's tuples (:meth:`EdgeStream.id_columns`).
    Either way the statistics equal those of
    ``compute_statistics(read_edge_list(path))``.

    Example
    -------
    >>> import os, tempfile
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     path = os.path.join(tmp, "g.txt")
    ...     with open(path, "w") as handle:
    ...         _ = handle.write("% triangle + tail\\n0 1\\n1 2\\n2 0\\n2 3\\n1 0\\n")
    ...     stats = file_statistics(path)
    >>> stats.num_edges, stats.triangles, stats.wedges
    (4, 1, 5)
    """
    return column_statistics(*EdgeStream.from_file(path).id_columns())


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _dataset_sha256(name: str) -> str:
    """Hash of a registered dataset's canonical edge set.

    Generating the graph is cheap next to exact counting (and
    ``make_graph`` memoises it per process), so the persistent cache key
    can afford to follow the *generated content* rather than trusting
    the name — a changed generator definition then misses instead of
    replaying the old graph's statistics.
    """
    from repro.experiments.datasets import make_graph
    from repro.streams.stream import EdgeStream

    digest = hashlib.sha256()
    for edge in EdgeStream.canonical_edges(make_graph(name)):
        digest.update(repr(edge).encode("utf-8"))
    return digest.hexdigest()


def source_descriptor(source: str) -> Dict[str, Any]:
    """The content identity of a :class:`~repro.api.spec.RunSpec` source.

    Registered dataset names carry the hash of their generated edge set;
    file paths resolve to the hash of their bytes.  Either way the
    address follows the *content*, not the name or location.

    Example
    -------
    >>> descriptor = source_descriptor("infra-roadNet-CA")
    >>> descriptor["kind"], descriptor["name"], len(descriptor["edges_sha256"])
    ('dataset', 'infra-roadNet-CA', 64)
    """
    from repro.experiments.datasets import DATASETS

    if source in DATASETS:
        return {
            "kind": "dataset",
            "name": source,
            "edges_sha256": _dataset_sha256(source),
        }
    if os.path.exists(source):
        return {"kind": "file", "sha256": _file_sha256(source)}
    raise ValueError(
        f"cannot resolve source {source!r}: not a registered dataset "
        f"and no such file"
    )


class ContentAddressedStore:
    """A flat ``key -> JSON payload`` store under one directory.

    Keys are content hashes (see :func:`content_key`); payloads are
    JSON-safe dicts.  Reads of missing or undecodable entries return
    ``None`` — a corrupt cache degrades to recomputation, never to an
    error.  A structurally corrupt entry (undecodable bytes, or JSON
    that is not our envelope) is additionally *quarantined*: renamed to
    ``<key>.json.corrupt`` and counted on :attr:`quarantined`, so the
    recomputed payload replaces it cleanly while the damaged bytes stay
    available for forensics.  With ``root=None`` the store is disabled
    (every read misses, writes are dropped), which lets callers hold
    one code path.

    Example
    -------
    >>> store = ContentAddressedStore(None)  # disabled: read misses
    >>> store.read("0" * 64) is None
    True
    """

    #: Suffix quarantined (corrupt) entries are renamed to.
    QUARANTINE_SUFFIX = ".corrupt"

    def __init__(self, root: Optional[Path]) -> None:
        self._root = Path(root) if root is not None else None
        #: Corrupt entries set aside by :meth:`read` over this
        #: instance's lifetime.
        self.quarantined = 0

    @property
    def root(self) -> Optional[Path]:
        return self._root

    def path_for(self, key: str) -> Optional[Path]:
        """Where ``key``'s payload lives (None when the store is disabled)."""
        if self._root is None:
            return None
        return self._root / f"{key}.json"

    def entries(self) -> "tuple[Path, ...]":
        """Paths of the store's payload entries, sorted by name.

        Quarantine leaves ``<key>.json.corrupt`` siblings next to the
        payloads, and in-flight writers hold ``.<key16>-*.tmp`` files.
        A scan must never mistake either for an entry, so the filter is
        explicit: payloads are exactly the non-hidden ``*.json`` files.
        """
        if self._root is None or not self._root.is_dir():
            return ()
        return tuple(
            sorted(
                path
                for path in self._root.iterdir()
                if path.suffix == ".json"
                and not path.name.startswith(".")
                and not path.name.endswith(self.QUARANTINE_SUFFIX)
                and not path.name.endswith(".tmp")
            )
        )

    def read(self, key: str) -> Optional[Dict[str, Any]]:
        path = self.path_for(key)
        if path is None or not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError):
            # Undecodable bytes and broken JSON are the same failure:
            # the entry is structurally corrupt.
            self._quarantine(path)
            return None
        except OSError:
            return None
        # Valid JSON that is not our envelope (null, a list, a bare
        # number …) is corruption too: degrade to a miss, never raise.
        if not isinstance(payload, dict):
            self._quarantine(path)
            return None
        if payload.get("version") != _FORMAT_VERSION:
            # A stale-but-intact format version is a plain miss, not
            # corruption: nothing to set aside.
            return None
        data = payload.get("data")
        if not isinstance(data, dict):
            self._quarantine(path)
            return None
        return data

    def _quarantine(self, path: Path) -> None:
        """Set a corrupt entry aside so the recount can overwrite cleanly."""
        try:
            path.rename(path.with_name(path.name + self.QUARANTINE_SUFFIX))
        except OSError:  # pragma: no cover - raced or read-only cache
            return
        self.quarantined += 1

    def write(self, key: str, data: Dict[str, Any]) -> None:
        path = self.path_for(key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        # Unique tmp name per writer: concurrent processes sharing one
        # cache directory (same content key => same payload) must not
        # truncate each other's in-flight file; each publishes its own
        # complete copy atomically and the last replace wins.
        fd, tmp = tempfile.mkstemp(
            prefix=f".{key[:16]}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(
                    json.dumps(
                        {"version": _FORMAT_VERSION, "data": data}, indent=1
                    )
                )
            os.replace(tmp, path)  # atomic: readers never see partial JSON
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


class GroundTruthCache:
    """Exact per-source statistics, computed once and reused everywhere.

    Layered: an in-process memo (always on) over an optional on-disk
    :class:`ContentAddressedStore` (``<root>/ground_truth/``).  The
    ``hits``/``misses`` counters record memo+disk hits versus exact
    recounts, and surface in :class:`~repro.api.sweep.SweepReport` so a
    resumed sweep can *prove* it never recounted.

    Example
    -------
    >>> cache = GroundTruthCache()              # memory-only
    >>> a = cache.statistics("infra-roadNet-CA")   # computed (miss)
    >>> b = cache.statistics("infra-roadNet-CA")   # memoised (hit)
    >>> (a == b, cache.misses, cache.hits)
    (True, 1, 1)
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        self._store = ContentAddressedStore(
            Path(root) / "ground_truth" if root is not None else None
        )
        self._memory: Dict[str, GraphStatistics] = {}
        self._keys: Dict[str, str] = {}  # source -> content key memo
        self.hits = 0
        self.misses = 0

    @property
    def root(self) -> Optional[Path]:
        return self._store.root

    @property
    def quarantined(self) -> int:
        """Corrupt disk entries the store set aside (see the store)."""
        return self._store.quarantined

    def key_for(self, source: str) -> str:
        """Content key of ``source`` (file hashing memoised per instance)."""
        key = self._keys.get(source)
        if key is None:
            key = content_key(source_descriptor(source))
            self._keys[source] = key
        return key

    def statistics(self, source: str) -> GraphStatistics:
        """Exact statistics of ``source``, from the cheapest layer that has them.

        Resolution order: in-process memo, then the disk store, then an
        exact recount (registered datasets reuse the process-wide
        :func:`~repro.experiments.datasets.get_statistics` memo so the
        sweep layer and the legacy harnesses share one computation).

        Memory-only caches memoise by source *name* — content hashing
        exists to validate entries that outlive the process, so a cache
        with no disk layer never pays the per-edge hashing pass.
        """
        key = source if self._store.root is None else self.key_for(source)
        cached = self._memory.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        stored = self._store.read(key)
        if stored is not None:
            stats = GraphStatistics(
                num_nodes=int(stored["num_nodes"]),
                num_edges=int(stored["num_edges"]),
                triangles=int(stored["triangles"]),
                wedges=int(stored["wedges"]),
                clustering=float(stored["clustering"]),
            )
            self._memory[key] = stats
            self.hits += 1
            return stats
        self.misses += 1
        stats = self._compute(source)
        self._memory[key] = stats
        self._store.write(key, stats.as_dict())
        return stats

    @staticmethod
    def _compute(source: str) -> GraphStatistics:
        from repro.experiments.datasets import DATASETS, get_statistics

        if source in DATASETS:
            return get_statistics(source)
        return file_statistics(source)


__all__ = [
    "ContentAddressedStore",
    "GroundTruthCache",
    "content_key",
    "file_statistics",
    "source_descriptor",
]
