"""Shared graph helper: strongly connected components.

Used by the oracle for end-component decomposition and bottom-component
classification of induced chains.
"""

from __future__ import annotations

from typing import Callable, Iterable


def strongly_connected_components(
    n: int, succ: Callable[[int], Iterable[int]]
) -> list[list[int]]:
    """Tarjan's algorithm, iterative to cope with deep graphs.

    Nodes are 0..n-1, `succ(u)` yields the successors of u.  Components are
    emitted in reverse topological order: every edge leaving a component
    points into a component that appears earlier in the result.
    """
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
        work = [(root, iter(succ(root)))]
        while work:
            u, it = work[-1]
            pushed = False
            for v in it:
                if index[v] == -1:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    on_stack[v] = True
                    work.append((v, iter(succ(v))))
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
