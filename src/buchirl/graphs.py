"""The package's one graph search, over nodes 0..n-1 and per-node lists.

It finds which states can still earn (`shaping.simulate_batch`, and
`solvers.evaluate_policies` over a whole stack of strategies at once) and,
for the oracle, the states worth exactly 0 or 1, the walk to an accepting
anchor, and end and bottom components.  Pure Python over lists: most calls
see graphs of at most 15 nodes, where array code costs more than it saves.
"""

from __future__ import annotations

from typing import Iterable


def adjacency(n: int, src: Iterable[int], dst: Iterable[int]) -> list[list[int]]:
    """Per-node lists over nodes 0..n-1: the list of u holds dst[i] for every
    edge i with src[i] == u, in edge order.  Pass array columns as lists
    (`.tolist()`); the loop is faster over Python ints."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(src, dst):
        nbrs[u].append(v)
    return nbrs


def backward_levels(seeds: Iterable[int], nbrs: list[list[int]]) -> list[int]:
    """Breadth-first level of each node from `seeds` along `nbrs`, -1 where
    no seed is reached.  With `nbrs[v]` the predecessors of v, a level is
    the fewest edges from the node into a seed, and level >= 0 marks the
    nodes that reach one."""
    level = [-1] * len(nbrs)
    frontier = []
    for s in seeds:
        if level[s] < 0:
            level[s] = 0
            frontier.append(s)
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for v in frontier:
            for u in nbrs[v]:
                if level[u] < 0:
                    level[u] = depth
                    nxt.append(u)
        frontier = nxt
    return level


def strongly_connected_components(succ: list[list[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative to cope with deep graphs.

    `succ[u]` lists the successors of node u.  Components are emitted in
    reverse topological order: every edge leaving a component points into a
    component that appears earlier in the result.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            u, it = work[-1]
            pushed = False
            for v in it:
                if index[v] == -1:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    on_stack[v] = True
                    work.append((v, iter(succ[v])))
                    pushed = True
                    break
                if on_stack[v] and index[v] < low[u]:
                    low[u] = index[v]
            if pushed:
                continue
            work.pop()
            if work and low[u] < low[work[-1][0]]:
                low[work[-1][0]] = low[u]
            if low[u] == index[u]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == u:
                        break
                comps.append(comp)
    return comps
