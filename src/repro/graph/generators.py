"""From-scratch random graph generators.

The paper evaluates on 50 real graphs from networkrepository.com (social,
web, tech, citation, infrastructure).  Those downloads are not available
offline, so the experiment harness substitutes synthetic graphs whose family
matches each domain (see DESIGN.md Sec. 5):

* social / collaboration  → :func:`powerlaw_cluster` (heavy tail + high
  clustering, Holme–Kim);
* web / tech              → :func:`chung_lu` with a power-law weight
  sequence (heavy tail, moderate clustering);
* facebook school graphs  → dense :func:`stochastic_block_model`;
* citation graphs         → :func:`barabasi_albert` (heavy tail, low
  clustering);
* road networks           → :func:`road_grid` (bounded degree, near-zero
  clustering).

All generators take an explicit ``seed`` and are deterministic given it.
Deterministic families (complete/star/cycle/path/grid) are included for
unit tests with hand-computable triangle/wedge counts.

Every generator emits dense ``0..n-1`` integer node labels (``road_grid``
flattens its lattice coordinates), so generated graphs are already in the
interned form the compact core and the shared-memory replication fan-out
run on — :class:`repro.streams.NodeInterner` would be the identity
relabelling for them.  Keep that property when adding generators.
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import List, Optional, Sequence

from repro.graph.adjacency import AdjacencyGraph


def complete_graph(n: int) -> AdjacencyGraph:
    """K_n: C(n,3) triangles, 3·C(n,3) wedges, clustering 1."""
    graph = AdjacencyGraph()
    for u in range(n):
        graph.add_node(u)
        for v in range(u + 1, n):
            graph.add_edge(u, v)
    return graph


def star_graph(n_leaves: int) -> AdjacencyGraph:
    """Hub node 0 with ``n_leaves`` leaves: 0 triangles, C(n,2) wedges."""
    graph = AdjacencyGraph()
    graph.add_node(0)
    for leaf in range(1, n_leaves + 1):
        graph.add_edge(0, leaf)
    return graph


def cycle_graph(n: int) -> AdjacencyGraph:
    """C_n: one triangle iff n == 3, n wedges for n ≥ 3."""
    graph = AdjacencyGraph()
    if n == 1:
        graph.add_node(0)
        return graph
    for u in range(n):
        graph.add_edge(u, (u + 1) % n)
    return graph


def path_graph(n: int) -> AdjacencyGraph:
    """P_n on ``n`` nodes: 0 triangles, n−2 wedges."""
    graph = AdjacencyGraph()
    if n >= 1:
        graph.add_node(0)
    for u in range(n - 1):
        graph.add_edge(u, u + 1)
    return graph


def erdos_renyi_gnm(n: int, num_edges: int, seed: Optional[int] = None) -> AdjacencyGraph:
    """Uniform random simple graph G(n, M) with exactly ``num_edges`` edges."""
    max_edges = n * (n - 1) // 2
    if num_edges > max_edges:
        raise ValueError(f"cannot place {num_edges} edges on {n} nodes (max {max_edges})")
    rng = random.Random(seed)
    graph = AdjacencyGraph()
    for v in range(n):
        graph.add_node(v)
    while graph.num_edges < num_edges:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            graph.add_edge(u, v)
    return graph


def barabasi_albert(n: int, attach: int, seed: Optional[int] = None) -> AdjacencyGraph:
    """Barabási–Albert preferential attachment with ``attach`` edges per node.

    Implemented with the repeated-nodes list so endpoint selection is
    proportional to degree.  Starts from a star on ``attach + 1`` nodes.
    """
    if attach < 1 or n <= attach:
        raise ValueError("need n > attach >= 1")
    rng = random.Random(seed)
    graph = AdjacencyGraph()
    repeated: List[int] = []
    for v in range(attach):
        graph.add_edge(v, attach)
        repeated.extend((v, attach))
    for new_node in range(attach + 1, n):
        targets: set = set()
        while len(targets) < attach:
            targets.add(repeated[rng.randrange(len(repeated))])
        for target in targets:
            graph.add_edge(new_node, target)
            repeated.extend((new_node, target))
    return graph


def powerlaw_cluster(
    n: int, attach: int, triangle_prob: float, seed: Optional[int] = None
) -> AdjacencyGraph:
    """Holme–Kim power-law graph with tunable clustering.

    Like Barabási–Albert, but after each preferential attachment step a
    triad-closing step runs with probability ``triangle_prob``: the new node
    also links to a random neighbour of the node it just attached to,
    closing a triangle.  High ``triangle_prob`` yields the heavy-tailed,
    highly clustered structure of social/co-appearance networks.
    """
    if not 0.0 <= triangle_prob <= 1.0:
        raise ValueError("triangle_prob must be in [0, 1]")
    if attach < 1 or n <= attach:
        raise ValueError("need n > attach >= 1")
    rng = random.Random(seed)
    graph = AdjacencyGraph()
    repeated: List[int] = []
    for v in range(attach):
        graph.add_edge(v, attach)
        repeated.extend((v, attach))
    for new_node in range(attach + 1, n):
        placed = 0
        last_target: Optional[int] = None
        while placed < attach:
            close_triad = (
                last_target is not None
                and rng.random() < triangle_prob
                and graph.degree(last_target) > 0
            )
            if close_triad:
                nbrs = list(graph.neighbors(last_target))
                candidate = nbrs[rng.randrange(len(nbrs))]
            else:
                candidate = repeated[rng.randrange(len(repeated))]
            if candidate != new_node and graph.add_edge(new_node, candidate):
                repeated.extend((new_node, candidate))
                placed += 1
                last_target = candidate
    return graph


def chung_lu(
    n: int,
    target_edges: int,
    exponent: float = 2.3,
    min_weight: float = 1.0,
    seed: Optional[int] = None,
) -> AdjacencyGraph:
    """Chung–Lu style graph with a power-law expected-degree sequence.

    Node weights are drawn deterministically from a discretised power law
    with tail ``exponent``; edges are sampled by picking both endpoints
    proportionally to weight until ``target_edges`` distinct non-loop edges
    exist.  Produces heavy-tailed graphs resembling web/tech networks.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    rng = random.Random(seed)
    # Deterministic power-law weights via the inverse-CDF at node quantiles.
    weights = [
        min_weight * (1.0 - (idx + 0.5) / n) ** (-1.0 / (exponent - 1.0))
        for idx in range(n)
    ]
    cumulative = list(accumulate(weights))
    total = cumulative[-1]
    graph = AdjacencyGraph()
    for v in range(n):
        graph.add_node(v)
    max_edges = n * (n - 1) // 2
    target_edges = min(target_edges, max_edges)
    nodes = range(n)
    attempts = 0
    attempt_budget = 100 * target_edges + 1000
    while graph.num_edges < target_edges and attempts < attempt_budget:
        need = target_edges - graph.num_edges
        batch = rng.choices(nodes, cum_weights=cumulative, k=2 * need)
        attempts += need
        for i in range(0, len(batch), 2):
            u, v = batch[i], batch[i + 1]
            if u != v:
                graph.add_edge(u, v)
            if graph.num_edges >= target_edges:
                break
    return graph


def watts_strogatz(
    n: int, k: int, rewire_prob: float, seed: Optional[int] = None
) -> AdjacencyGraph:
    """Watts–Strogatz small world: ring lattice with random rewiring."""
    if k % 2 or k >= n:
        raise ValueError("k must be even and < n")
    rng = random.Random(seed)
    graph = AdjacencyGraph()
    for v in range(n):
        graph.add_node(v)
    for v in range(n):
        for offset in range(1, k // 2 + 1):
            graph.add_edge(v, (v + offset) % n)
    for v in range(n):
        for offset in range(1, k // 2 + 1):
            if rng.random() < rewire_prob:
                old = (v + offset) % n
                if not graph.has_edge(v, old) or graph.degree(v) >= n - 1:
                    continue
                # Rejection-sample a non-neighbour endpoint (O(1) expected
                # for sparse graphs; bounded attempts keep worst case sane).
                for _attempt in range(64):
                    w = rng.randrange(n)
                    if w != v and not graph.has_edge(v, w):
                        graph.remove_edge(v, old)
                        graph.add_edge(v, w)
                        break
    return graph


def stochastic_block_model(
    sizes: Sequence[int],
    p_in: float,
    p_out: float,
    seed: Optional[int] = None,
) -> AdjacencyGraph:
    """Planted-partition graph: dense within blocks, sparse across.

    Stand-in for the dense, highly clustered Facebook school graphs
    (socfb-Penn94 / socfb-Texas84) in the experiment registry.
    """
    rng = random.Random(seed)
    graph = AdjacencyGraph()
    boundaries = [0]
    for size in sizes:
        boundaries.append(boundaries[-1] + size)
    n = boundaries[-1]
    for v in range(n):
        graph.add_node(v)
    block_of = []
    for block, size in enumerate(sizes):
        block_of.extend([block] * size)
    for u in range(n):
        for v in range(u + 1, n):
            prob = p_in if block_of[u] == block_of[v] else p_out
            if prob > 0.0 and rng.random() < prob:
                graph.add_edge(u, v)
    return graph


def road_grid(
    rows: int,
    cols: int,
    diagonal_prob: float = 0.03,
    seed: Optional[int] = None,
) -> AdjacencyGraph:
    """Planar-ish road network: grid plus occasional diagonal short-cuts.

    Grids have zero triangles; the rare diagonals close a handful, giving
    the near-zero clustering typical of road networks (infra-roadNet-CA).
    """
    rng = random.Random(seed)
    graph = AdjacencyGraph()

    def node(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                graph.add_edge(node(r, c), node(r, c + 1))
            if r + 1 < rows:
                graph.add_edge(node(r, c), node(r + 1, c))
            if (
                r + 1 < rows
                and c + 1 < cols
                and diagonal_prob > 0.0
                and rng.random() < diagonal_prob
            ):
                graph.add_edge(node(r, c), node(r + 1, c + 1))
    return graph
