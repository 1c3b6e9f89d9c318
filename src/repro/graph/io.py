"""Edge-list I/O.

Lets users run every experiment on real downloaded graphs (e.g. the
network-repository datasets the paper uses) instead of the synthetic
stand-ins.  Supported format: one edge per line, two node tokens separated
by whitespace or an explicit delimiter, ``#``/``%``/``//`` comment lines,
optional gzip (by ``.gz`` extension).  Extra columns (timestamps, weights)
are ignored unless requested.

Two readers share that format.  :func:`iter_edge_list` is the reference:
a text-mode line loop that accepts any ``node_type`` and names the
offending ``path:line`` in an :class:`EdgeListError`.  The columnar
reader (:func:`read_edge_columns`, behind
:meth:`repro.streams.stream.EdgeStream.from_file` and so
:func:`read_edge_list`, and the lazy byte slabs of
:func:`iter_edge_chunks`) parses integer files with numpy straight into
``int32`` columns, and declines any slab it cannot prove the reference
would read identically — non-ASCII bytes, ``+``/``_`` or any other
non-digit in a label, ids outside int32, a malformed first or second
token.  A declined file is re-read by the reference, so both readers
always agree.
"""

from __future__ import annotations

import gzip
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.graph.adjacency import AdjacencyGraph
from repro.graph.edge import Node

PathLike = Union[str, Path]

_COMMENT_PREFIXES = ("#", "%", "//")

#: Bytes per columnar slab when a whole file is read: large enough to
#: amortise the per-slab numpy calls, small enough that the parser's
#: temporaries stay in cache.  On a 200k-edge file 64–128 KiB parsed
#: fastest (~35 ms), 256 KiB took ~50 ms and 4 MiB ~60 ms.
_FILE_SLAB_BYTES = 1 << 16

#: Bytes per edge assumed when sizing a lazy reader's slabs, so one
#: slab parse covers about one block (``"12345 67890\n"`` is 12), and
#: the smallest slab it reads.
_SLAB_BYTES_PER_EDGE = 16
_MIN_SLAB_BYTES = 1 << 12


class EdgeListError(ValueError):
    """A malformed edge line; the message names ``path:line``."""


def _open_text(path: PathLike, mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _open_bytes(path: PathLike):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def edge_tokens(
    line: str, delimiter: Optional[str] = None
) -> Optional[Tuple[str, str]]:
    """The two node tokens of one edge-list line, or ``None`` to skip it.

    The one line rule of every text reader (files, followed files,
    sockets): blank lines, ``#``/``%``/``//`` comments and lines with
    fewer than two tokens are skipped; tokens past the second are
    ignored.

    >>> edge_tokens("1 2 0.5"), edge_tokens("% header"), edge_tokens("7")
    (('1', '2'), None, None)
    """
    line = line.strip()
    if not line or line.startswith(_COMMENT_PREFIXES):
        return None
    parts = line.split(delimiter)
    if len(parts) < 2:
        return None
    return parts[0], parts[1]


def iter_edge_list(
    path: PathLike,
    delimiter: Optional[str] = None,
    node_type: Callable[[str], Node] = int,
) -> Iterator[Tuple[Node, Node]]:
    """Yield ``(u, v)`` pairs from an edge-list file, skipping comments.

    ``delimiter=None`` splits on arbitrary whitespace.  Lines with fewer
    than two tokens are skipped; extra tokens beyond the first two are
    ignored (timestamps/weights in temporal edge lists).  A token that
    ``node_type`` rejects raises :class:`EdgeListError` naming the file
    and line.
    """
    with _open_text(path, "r") as handle:
        for lineno, line in enumerate(handle, 1):
            tokens = edge_tokens(line, delimiter)
            if tokens is None:
                continue
            try:
                u, v = node_type(tokens[0]), node_type(tokens[1])
            except ValueError as exc:
                raise EdgeListError(
                    f"{path}:{lineno}: malformed edge {line.strip()!r} "
                    f"({exc})"
                ) from None
            yield u, v


# ----------------------------------------------------------------------
# The columnar reader
# ----------------------------------------------------------------------
#: Longest label the columnar reader parses (leading zeros included);
#: a longer one declines to the reference.
_MAX_LABEL_WIDTH = 20


def _empty_columns():
    return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32)


def parse_edge_columns(data: bytes):
    """``(u, v)`` int32 columns of whole edge-list lines, or ``None``.

    ``data`` holds complete lines (a file, or a slab of one cut after a
    line end).  Returns ``None`` — decline — unless every byte is ASCII
    and every edge line's first two tokens match ``-?[0-9]+`` inside
    int32, which is exactly when :func:`iter_edge_list` would yield the
    same pairs as plain ints.  Comment, blank and one-token lines are
    skipped by the reference's rule; tabs, CRLF and lone-``\\r`` line
    ends and extra columns are accepted.

    >>> u, v = parse_edge_columns(b"% header\\r\\n1 2 0.5\\n\\n3\\t-4\\n")
    >>> u.tolist(), v.tolist()
    ([1, 3], [2, -4])
    >>> parse_edge_columns(b"1 +2\\n") is None
    True
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    if not len(buf) or int(buf.max()) >= 0x80:
        return None if len(buf) else _empty_columns()
    # str.split's ASCII whitespace: 9-13 and 28-32 (line ends included).
    sep = buf <= 32
    sep &= ~((buf < 9) | ((buf > 13) & (buf < 28)))
    padded = np.ones(len(buf) + 2, dtype=bool)
    padded[1:-1] = sep
    flips = np.flatnonzero(padded[1:] != padded[:-1])
    starts, ends = flips[0::2], flips[1::2]
    # Token g opens a line when a line-end byte lies before it and after
    # token g-1.
    opens = np.zeros(len(starts) + 1, dtype=bool)
    opens[0] = True
    line_ends = np.flatnonzero((buf == 10) | (buf == 13))
    opens[np.searchsorted(starts, line_ends)] = True
    lead = np.flatnonzero(opens[:-2] & ~opens[1:-1])  # line has 2+ tokens
    head = buf[starts[lead]]
    comment = (
        (head == ord("#"))
        | (head == ord("%"))
        | ((head == ord("/")) & (buf[starts[lead] + 1] == ord("/")))
    )
    lead = lead[~comment]
    if not len(lead):
        return _empty_columns()
    lo = np.concatenate([starts[lead], starts[lead + 1]])
    hi = np.concatenate([ends[lead], ends[lead + 1]])
    negative = buf[lo] == ord("-")
    lo[negative] += 1
    width = hi - lo
    if int(width.min()) < 1 or int(width.max()) > _MAX_LABEL_WIDTH:
        return None
    # Right to left, one digit place per step over every label at once.
    values = np.zeros(len(lo), dtype=np.int64)
    at = hi - 1
    for place in range(int(width.max())):
        digit = buf[at] - np.uint8(ord("0"))  # a non-digit wraps past 9
        if place:
            digit[width <= place] = 0
        if (digit > 9).any():
            return None
        if place < 10:
            # Widen first: uint8 times a scalar stays uint8 under NumPy
            # 1.x value-based promotion and would wrap.
            values += digit.astype(np.int64) * 10**place
        elif digit.any():  # a significant eleventh digit: outside int32
            return None
        at -= 1
        np.maximum(at, lo, out=at)
    values[negative] *= -1
    if int(values.min()) < -(2**31) or int(values.max()) > 2**31 - 1:
        return None
    values = values.astype(np.int32)
    return values[: len(lead)], values[len(lead):]


def _column_slabs(path: PathLike, slab_bytes: int):
    """The file's edges as int32 column pairs, one per byte slab.

    Slabs are cut after the last line end of each read, so every slab
    holds whole lines.  Yields ``None`` once and stops at the first slab
    :func:`parse_edge_columns` declines.
    """
    with _open_bytes(path) as handle:
        carry = b""
        while True:
            chunk = handle.read(slab_bytes)
            data = carry + chunk if carry else chunk
            if chunk:
                cut = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1
                if not cut:
                    carry = data
                    continue
                slab, carry = data[:cut], data[cut:]
            else:
                slab = data
            columns = parse_edge_columns(slab)
            yield columns
            if columns is None or not chunk:
                return


def read_edge_columns(path: PathLike):
    """A whole integer edge-list file as ``(u, v)`` int32 columns, or None.

    File order, no simplification.  ``None`` means the columnar reader
    declined (see :func:`parse_edge_columns`); the caller then reads the
    file with :func:`iter_edge_list`, which yields the same edges or
    raises :class:`EdgeListError`.
    """
    us: List[np.ndarray] = []
    vs: List[np.ndarray] = []
    for columns in _column_slabs(path, _FILE_SLAB_BYTES):
        if columns is None:
            return None
        us.append(columns[0])
        vs.append(columns[1])
    if not us:
        return _empty_columns()
    return np.concatenate(us), np.concatenate(vs)


def iter_edge_chunks(path: PathLike, size: Optional[int] = None):
    """Read an integer edge-list file lazily as columnar ``int32`` blocks.

    The chunk-shaped sibling of :func:`iter_edge_list`: the lines
    arrive as ``(u, v)`` int32 array pairs of at most ``size`` edges
    (default :data:`repro.streams.chunks.DEFAULT_CHUNK_SIZE`), the
    input shape of the compact core's ``process_chunk``, without ever
    materialising the whole stream.  One slab parse covers about one
    block's bytes, so the parser never holds the interpreter for long.
    Blocks are cut exactly where ``iter_chunks(iter_edge_list(path),
    size)`` cuts them; past a declined slab that reference pipeline
    takes over, fed the edges not yet emitted, so an id outside int32
    raises :class:`TypeError` there.  This is the lazy file source of
    the live service (:class:`repro.serve.source.FileTailSource`).
    """
    from repro.streams.chunks import DEFAULT_CHUNK_SIZE, iter_chunks

    size = size if size is not None else DEFAULT_CHUNK_SIZE
    if size <= 0:
        raise ValueError("chunk size must be positive")
    slab_bytes = max(size * _SLAB_BYTES_PER_EDGE, _MIN_SLAB_BYTES)
    pending_u, pending_v = _empty_columns()
    done = 0
    for columns in _column_slabs(path, slab_bytes):
        if columns is None:
            held = zip(pending_u.tolist(), pending_v.tolist())
            rest = islice(iter_edge_list(path), done, None)
            yield from iter_chunks(chain(held, rest), size)
            return
        done += len(columns[0])
        us = np.concatenate([pending_u, columns[0]])
        vs = np.concatenate([pending_v, columns[1]])
        full = len(us) - len(us) % size
        for at in range(0, full, size):
            yield us[at:at + size], vs[at:at + size]
        pending_u, pending_v = us[full:], vs[full:]
    if len(pending_u):
        yield pending_u, pending_v


def read_edge_list(path: PathLike) -> AdjacencyGraph:
    """Read an edge-list file into an :class:`AdjacencyGraph` (simplified).

    The graph of the file's population,
    :meth:`repro.streams.stream.EdgeStream.from_file`.
    """
    # Lazy import: repro.streams.stream imports this module.
    from repro.streams.stream import EdgeStream

    return AdjacencyGraph(EdgeStream.from_file(path))


def write_edge_list(
    edges: Union[AdjacencyGraph, Iterable[Tuple[Node, Node]]],
    path: PathLike,
    delimiter: str = " ",
    header: Optional[str] = None,
) -> int:
    """Write edges (or a graph's edges) to a file; returns edge count."""
    if isinstance(edges, AdjacencyGraph):
        edges = edges.edges()
    count = 0
    with _open_text(path, "w") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        for u, v in edges:
            handle.write(f"{u}{delimiter}{v}\n")
            count += 1
    return count
