"""The graph kernel against networkx: breadth-first levels and strongly
connected components on seeded random digraphs (self-loops, duplicate edges
and isolated nodes), the empty and one-node graphs, and a 60k-node path and
cycle, far deeper than Python's recursion limit."""

import time

import networkx as nx
import numpy as np

from buchirl.graphs import adjacency, backward_levels, strongly_connected_components

LONG = 60_000
LONG_LIMIT_S = 2.0  # about 0.3 s with its checks on a 2-CPU machine; quadratic work takes minutes


def random_graphs():
    """(n, src, dst, seeds) for small graphs, from one seeded generator."""
    yield 0, [], [], []
    yield 1, [], [], []
    yield 1, [], [], [0]
    yield 1, [0], [0], [0, 0]
    rng = np.random.default_rng(21)
    for _ in range(150):
        n = int(rng.integers(2, 30))
        # edges only among a random subset of nodes, so the rest are isolated
        used = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        m = int(rng.integers(0, 3 * n))
        src = rng.choice(used, size=m).tolist()
        dst = rng.choice(used, size=m).tolist()
        if m:
            src += [src[0], dst[0]]  # a duplicate edge and a self-loop
            dst += [dst[0], dst[0]]
        seeds = rng.integers(0, n, size=int(rng.integers(0, 4))).tolist()
        yield n, src, dst, seeds


def digraph(n, src, dst):
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(zip(src, dst))
    return g


def test_adjacency_keeps_edge_order_and_duplicates():
    assert adjacency(0, [], []) == []
    assert adjacency(4, [0, 2, 0, 0], [1, 1, 1, 2]) == [[1, 1, 2], [], [1], []]


def test_backward_levels_are_shortest_distances_to_the_seeds():
    for n, src, dst, seeds in random_graphs():
        level = backward_levels(seeds, adjacency(n, dst, src))
        want = [-1] * n
        if seeds:
            dist = nx.multi_source_dijkstra_path_length(digraph(n, src, dst).reverse(), set(seeds))
            for u, d in dist.items():
                want[u] = d
        assert level == want, (n, src, dst, seeds)


def test_components_match_networkx_in_reverse_topological_order():
    for n, src, dst, _ in random_graphs():
        comps = strongly_connected_components(adjacency(n, src, dst))
        want = nx.strongly_connected_components(digraph(n, src, dst))
        assert sorted(map(sorted, comps)) == sorted(map(sorted, want)), (n, src, dst)
        comp_of = {u: i for i, comp in enumerate(comps) for u in comp}
        # an edge stays inside its component or points into an earlier one
        assert all(comp_of[v] <= comp_of[u] for u, v in zip(src, dst)), (n, src, dst)


def test_long_path_and_cycle():
    path_src, path_dst = list(range(LONG - 1)), list(range(1, LONG))
    start = time.perf_counter()
    level = backward_levels([LONG - 1], adjacency(LONG, path_dst, path_src))
    comps = strongly_connected_components(adjacency(LONG, path_src, path_dst))
    assert level == list(range(LONG - 1, -1, -1))
    assert comps == [[u] for u in range(LONG - 1, -1, -1)]

    cycle_src, cycle_dst = path_src + [LONG - 1], path_dst + [0]
    level = backward_levels([0], adjacency(LONG, cycle_dst, cycle_src))
    comps = strongly_connected_components(adjacency(LONG, cycle_src, cycle_dst))
    assert level == [0] + list(range(LONG - 1, 0, -1))
    assert len(comps) == 1 and sorted(comps[0]) == list(range(LONG))
    assert time.perf_counter() - start < LONG_LIMIT_S
