"""The graph kernel against networkx: breadth-first levels and strongly
connected components on seeded random digraphs (self-loops, duplicate edges
and isolated nodes), the empty and one-node graphs, and a 60k-node path and
cycle, far deeper than Python's recursion limit."""

import time

import networkx as nx
import numpy as np

from buchirl.graphs import backward_levels, strongly_connected_components

LONG = 60_000
LONG_LIMIT_S = 2.0  # about 0.3 s with its checks on a 2-CPU machine; quadratic work takes minutes


def random_graphs():
    """(n, src, dst, seeds) for small graphs, from one seeded generator: the
    edge columns as int64 arrays, the seeds as an index array."""
    cases = [(0, [], [], []), (1, [], [], []), (1, [], [], [0]), (1, [0], [0], [0, 0])]
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
        cases.append((n, src, dst, seeds))
    for n, src, dst, seeds in cases:
        yield n, *(np.array(c, dtype=np.int64) for c in (src, dst, seeds))


def digraph(n, src, dst):
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(zip(src.tolist(), dst.tolist()))
    return g


def test_backward_levels_are_shortest_distances_to_the_seeds():
    for n, src, dst, seeds in random_graphs():
        level = backward_levels(n, src, dst, seeds)
        want = np.full(n, -1)
        if seeds.size:
            dist = nx.multi_source_dijkstra_path_length(digraph(n, src, dst).reverse(), set(seeds.tolist()))
            want[list(dist)] = list(dist.values())
        assert level.dtype == np.int64 and level.shape == (n,), (n, src, dst, seeds)
        assert np.array_equal(level, want), (n, src, dst, seeds)
        mask = np.zeros(n, dtype=bool)
        mask[seeds] = True
        assert np.array_equal(backward_levels(n, src, dst, mask), level), (n, src, dst, seeds)


def test_components_match_networkx_in_reverse_topological_order():
    for n, src, dst, _ in random_graphs():
        comp = strongly_connected_components(n, src, dst)
        assert comp.dtype == np.int64 and comp.shape == (n,), (n, src, dst)
        got = [np.flatnonzero(comp == c).tolist() for c in np.unique(comp)]
        want = nx.strongly_connected_components(digraph(n, src, dst))
        assert sorted(got) == sorted(map(sorted, want)), (n, src, dst)
        # components are numbered 0, 1, ... in the order Tarjan emits them,
        # and an edge stays inside its component or points into an earlier one
        assert np.array_equal(np.unique(comp), np.arange(len(got))), (n, src, dst)
        assert (comp[dst] <= comp[src]).all(), (n, src, dst)


def test_long_path_and_cycle():
    path_src, path_dst = np.arange(LONG - 1), np.arange(1, LONG)
    start = time.perf_counter()
    level = backward_levels(LONG, path_src, path_dst, [LONG - 1])
    comp = strongly_connected_components(LONG, path_src, path_dst)
    assert np.array_equal(level, np.arange(LONG - 1, -1, -1))
    assert np.array_equal(comp, np.arange(LONG - 1, -1, -1))

    cycle_src, cycle_dst = np.append(path_src, LONG - 1), np.append(path_dst, 0)
    level = backward_levels(LONG, cycle_src, cycle_dst, [0])
    comp = strongly_connected_components(LONG, cycle_src, cycle_dst)
    assert np.array_equal(level, np.r_[0, LONG - 1 : 0 : -1])
    assert np.array_equal(comp, np.zeros(LONG))
    assert time.perf_counter() - start < LONG_LIMIT_S
