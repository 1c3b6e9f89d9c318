"""Seeded Chung–Lu edge-list generator for the benchmark's inputs.

The benchmark never hands the program a pre-built Python object: every
workload reads an edge-list file written here.  The file is a simple
graph (no self-loops, no duplicate edges in either orientation) whose
lines are already in a seeded random arrival order, so a
``stream_seed=None`` pass streams it as written.  The generator uses
only numpy, not the program under test, so a change to the program
can never change its own inputs.

Run standalone::

    python3 perfbench/gen.py --edges 200000 --nodes 50000 --seed 7 --out g.txt
"""

from __future__ import annotations

import argparse

import numpy as np

#: Power-law tail exponent of the expected-degree sequence.
EXPONENT = 2.5


def chung_lu_edges(num_edges: int, num_nodes: int, seed: int):
    """``num_edges`` distinct undirected edges as two int64 columns.

    Endpoints are drawn independently with probability proportional to
    a power-law weight (the Chung–Lu model), so a few hubs carry most
    wedges and triangles.  Edges come out in draw order, which is a
    seeded random arrival order; each edge gets a random orientation, and
    node ids are numbered by first appearance.
    """
    if num_edges < 1 or num_nodes < 2:
        raise ValueError("need at least one edge and two nodes")
    if num_edges > num_nodes * (num_nodes - 1) // 4:
        raise ValueError("too many edges for the node count")
    rng = np.random.default_rng(seed)
    ranks = np.arange(num_nodes, dtype=np.float64)
    weights = (1.0 - (ranks + 0.5) / num_nodes) ** (-1.0 / (EXPONENT - 1.0))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]

    codes = np.empty(0, dtype=np.int64)
    while len(codes) < num_edges:
        draw = 2 * (num_edges - len(codes)) + 1024
        us = np.searchsorted(cdf, rng.random(draw), side="right")
        vs = np.searchsorted(cdf, rng.random(draw), side="right")
        keep = us != vs
        lo = np.minimum(us[keep], vs[keep]).astype(np.int64)
        hi = np.maximum(us[keep], vs[keep]).astype(np.int64)
        codes = np.concatenate([codes, lo * num_nodes + hi])
        _, first = np.unique(codes, return_index=True)
        codes = codes[np.sort(first)]
    codes = codes[:num_edges]

    flip = rng.random(num_edges) < 0.5
    lo, hi = codes // num_nodes, codes % num_nodes
    us, vs = np.where(flip, hi, lo), np.where(flip, lo, hi)
    # Dense ids in order of first appearance, so interning the file (what
    # the pooled sweep does before it publishes) relabels nothing.
    nodes, first = np.unique(
        np.column_stack([us, vs]).ravel(), return_index=True)
    relabel = np.empty(num_nodes, dtype=np.int64)
    relabel[nodes[np.argsort(first)]] = np.arange(len(nodes))
    return relabel[us], relabel[vs]


def write_edge_file(path: str, num_edges: int, num_nodes: int, seed: int) -> None:
    """Write the seeded graph as ``u v`` lines (one edge per line)."""
    us, vs = chung_lu_edges(num_edges, num_nodes, seed)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            "\n".join(f"{u} {v}" for u, v in zip(us.tolist(), vs.tolist()))
        )
        handle.write("\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--edges", type=int, required=True)
    parser.add_argument("--nodes", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write_edge_file(args.out, args.edges, args.nodes, args.seed)


if __name__ == "__main__":
    main()
