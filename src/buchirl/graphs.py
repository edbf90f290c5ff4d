"""The package's one graph search, over nodes 0..n-1 and an edge list given
as two int64 columns: edge i runs from src[i] to dst[i].

It finds which states can still earn (`shaping.simulate_batch`, and
`solvers.evaluate_policies` over a whole stack of strategies at once) and,
for the oracle, the states worth exactly 0 or 1, the walk to an accepting
anchor, and end and bottom components.  Lists inside, arrays at the
interface: each search builds per-node Python lists from the columns and
returns an (n,) int64 array.  Most calls see graphs of at most 15 nodes,
where array code costs more than it saves.
"""

from __future__ import annotations

import numpy as np


def _lists(n: int, src: np.ndarray, dst: np.ndarray) -> list[list[int]]:
    """Per-node lists over nodes 0..n-1: the list of u holds dst[i] for every
    edge i with src[i] == u, in edge order."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(src.tolist(), dst.tolist()):
        nbrs[u].append(v)
    return nbrs


def backward_levels(n: int, src: np.ndarray, dst: np.ndarray, seeds) -> np.ndarray:
    """(n,) int64: the fewest edges from each node into a seed along the
    edges, -1 where no seed is reached, so level >= 0 marks the nodes that
    reach one.  `seeds` is a boolean mask or an array of node indices."""
    pred = _lists(n, dst, src)
    seeds = np.asarray(seeds)
    if seeds.dtype == bool:
        seeds = np.flatnonzero(seeds)
    level = [-1] * n
    frontier = []
    for s in seeds.tolist():
        if level[s] < 0:
            level[s] = 0
            frontier.append(s)
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for v in frontier:
            for u in pred[v]:
                if level[u] < 0:
                    level[u] = depth
                    nxt.append(u)
        frontier = nxt
    return np.array(level, dtype=np.int64)


def strongly_connected_components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """(n,) int64: each node's strongly connected component, numbered in
    the order Tarjan's algorithm emits them, which is reverse topological:
    every edge points to a component of equal or smaller index.

    Iterative, to cope with deep graphs.  A visited node is on Tarjan's
    stack exactly while its component is unnumbered.
    """
    succ = _lists(n, src, dst)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = n_comps = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            u, it = work[-1]
            pushed = False
            for v in it:
                if index[v] == -1:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    work.append((v, iter(succ[v])))
                    pushed = True
                    break
                if comp[v] < 0 and index[v] < low[u]:
                    low[u] = index[v]
            if pushed:
                continue
            work.pop()
            if work and low[u] < low[work[-1][0]]:
                low[work[-1][0]] = low[u]
            if low[u] == index[u]:
                while True:
                    w = stack.pop()
                    comp[w] = n_comps
                    if w == u:
                        break
                n_comps += 1
    return np.array(comp, dtype=np.int64)
