"""Independent model-checking route on the raw product.

The Buchi value is computed from maximal end components plus exact maximal
reachability, and per-strategy satisfaction from the bottom components of
the induced chain.  The reward pipeline is numerically checked against these
answers, so nothing here may reuse the augmentation or the reward solvers;
the linear systems are assembled separately on purpose.

For products of nondeterministic automata without an asserted good-for-MDPs
flag the computed value is only guaranteed to be a lower bound on the Buchi
value of the underlying MDP; results carry that caveat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import strongly_connected_components
from .product import ProductMdp, Strategy


class PolicyIterationError(RuntimeError):
    """Maximal-reachability policy iteration did not stabilize."""


@dataclass(frozen=True)
class EndComponent:
    """Closed strongly connected sub-MDP: states plus the retained pairs."""

    states: tuple[int, ...]
    retained: tuple[tuple[int, ...], ...]  # pair indices, aligned with states
    accepting: bool

    def retained_at(self, state: int) -> tuple[int, ...]:
        return self.retained[self.states.index(state)]


@dataclass(frozen=True)
class BuchiResult:
    values: np.ndarray
    strategy: Strategy
    mecs: tuple[EndComponent, ...]
    accepting_mecs: tuple[int, ...]
    lower_bound_only: bool

    def at_initial(self) -> float:
        return float(self.values[0])


def mec_decomposition(p: ProductMdp) -> tuple[EndComponent, ...]:
    """Maximal end components, sorted by smallest member state.

    Iteratively drops pairs whose branches leave the current strongly
    connected component and states left without pairs, until stable.
    """
    n, starts, bounds = p.n_states, p.pair_start, p.branch_start
    pair_state = np.repeat(np.arange(n), np.diff(starts))
    source = np.repeat(pair_state, np.diff(bounds))
    branch_pair = np.repeat(np.arange(p.n_pairs), np.diff(bounds))
    kept = np.ones(p.n_pairs, dtype=bool)
    while True:
        # a state without kept pairs has no edges, so it is a component of
        # its own, and every branch into it leaves its source's component
        edge = kept[branch_pair]
        comp_of = _component_index(n, source[edge], p.succ[edge])
        leaves = comp_of[p.succ] != comp_of[source]
        keep = kept & ~np.logical_or.reduceat(leaves, bounds[:-1])
        if np.array_equal(keep, kept):
            break
        kept = keep

    groups: dict[int, list[int]] = {}
    comp_list = comp_of.tolist()
    for u in np.flatnonzero(np.logical_or.reduceat(kept, starts[:-1])).tolist():
        groups.setdefault(comp_list[u], []).append(u)
    starts, kept = starts.tolist(), kept.tolist()
    pair_acc = np.logical_or.reduceat(p.accepting, bounds[:-1]).tolist()
    mecs = []
    for members in groups.values():  # first seen = smallest member first
        pairs = [[k for k in range(starts[u], starts[u + 1]) if kept[k]] for u in members]
        retained = tuple(tuple(k - starts[u] for k in ks) for u, ks in zip(members, pairs))
        acc = any(pair_acc[k] for ks in pairs for k in ks)
        mecs.append(EndComponent(tuple(members), retained, acc))
    return tuple(mecs)


def _component_index(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Strongly connected component of each node; edges src -> dst, src ascending."""
    off = np.searchsorted(src, np.arange(n + 1)).tolist()
    out = dst.tolist()
    comp_of = [0] * n
    for ci, comp in enumerate(strongly_connected_components(n, lambda u: out[off[u] : off[u + 1]])):
        for u in comp:
            comp_of[u] = ci
    return np.array(comp_of)


def _chosen_branches(p: ProductMdp, choice) -> list[range]:
    """Indices of the branches of the pair `choice` picks, per state."""
    starts, bounds = p.pair_start.tolist(), p.branch_start.tolist()
    return [range(bounds[starts[st] + k], bounds[starts[st] + k + 1]) for st, k in enumerate(choice)]


def _chain_reach(
    p: ProductMdp, choice: list[int], ones: frozenset[int], zeros: frozenset[int]
) -> np.ndarray:
    """Reach probability of `ones` in the chain induced by `choice`.

    States in `ones` are worth 1, in `zeros` 0; free states that cannot reach
    `ones` are exactly 0 and fixing them keeps the system nonsingular.
    """
    n = p.n_states
    chosen = _chosen_branches(p, choice)
    succ, prob = p.succ.tolist(), p.prob.tolist()
    free = [st for st in range(n) if st not in ones and st not in zeros]
    b = np.zeros(n)
    rev: list[list[int]] = [[] for _ in range(n)]
    for st in free:
        for e in chosen[st]:
            if succ[e] in ones:
                b[st] += prob[e]
            elif succ[e] not in zeros:
                rev[succ[e]].append(st)
    live = {st for st in free if b[st] > 0.0}
    stack = list(live)
    while stack:
        u = stack.pop()
        for w in rev[u]:
            if w not in live:
                live.add(w)
                stack.append(w)
    v = np.zeros(n)
    for st in ones:
        v[st] = 1.0
    order = sorted(live)
    if order:
        pos = {st: i for i, st in enumerate(order)}
        a = np.eye(len(order))
        for i, st in enumerate(order):
            for e in chosen[st]:
                j = pos.get(succ[e])
                if j is not None:
                    a[i, j] -= prob[e]
        v[np.array(order)] = np.linalg.solve(a, b[np.array(order)])
    return v


def _max_reach(p: ProductMdp, targets: frozenset[int]) -> tuple[np.ndarray, list[int]]:
    """Exact maximal reach probability by policy iteration.

    Evaluation always takes the least solution (zeros fixed off the live
    set), and switches need a strict margin, so the iteration cannot cycle
    through equal-valued policies.  Among the best pairs of a state the
    lowest index wins.
    """
    n, starts = p.n_states, p.pair_start[:-1]
    pair_state = np.repeat(np.arange(n), np.diff(p.pair_start))
    branch_pair = np.repeat(np.arange(p.n_pairs), np.diff(p.branch_start))
    pair_ids = np.arange(p.n_pairs)
    free = np.ones(n, dtype=bool)
    free[list(targets)] = False
    choice = [0] * n
    v = _chain_reach(p, choice, targets, frozenset())
    for _ in range(10_000):
        q = np.bincount(branch_pair, weights=p.prob * v[p.succ], minlength=p.n_pairs)
        best = np.maximum.reduceat(q, starts)
        first = np.minimum.reduceat(np.where(q == best[pair_state], pair_ids, p.n_pairs), starts)
        first -= starts
        switch = free & (best > v + 1e-12) & (first != choice)
        if not switch.any():
            return v, choice
        for st in np.flatnonzero(switch).tolist():
            choice[st] = int(first[st])
        v = _chain_reach(p, choice, targets, frozenset())
    raise PolicyIterationError("max-reach policy iteration failed to stabilize")


def buchi_value(p: ProductMdp) -> BuchiResult:
    """Maximal probability of seeing accepting branches forever, per state.

    Equals the maximal probability of reaching an accepting maximal end
    component.  The returned strategy realizes the value: outside accepting
    components it maximizes reachability, inside one it walks toward the
    source of one accepting branch and fires it.
    """
    mecs = mec_decomposition(p)
    acc_ids = tuple(i for i, ec in enumerate(mecs) if ec.accepting)
    u_states = frozenset(st for i in acc_ids for st in mecs[i].states)
    if not u_states:
        values = np.zeros(p.n_states)
        choice = [0] * p.n_states
        return BuchiResult(values, Strategy(tuple(choice)), mecs, acc_ids, p.gfm_caveat)
    values, choice = _max_reach(p, u_states)
    for i in acc_ids:
        _anchor_component(p, mecs[i], choice)
    return BuchiResult(values, Strategy(tuple(choice)), mecs, acc_ids, p.gfm_caveat)


def _anchor_component(p: ProductMdp, ec: EndComponent, choice: list[int]) -> None:
    """Overwrite `choice` inside `ec` so some accepting branch recurs forever.

    Picks the first accepting branch as an anchor, points every other member
    along retained pairs that step closer to the anchor state, and fires the
    anchor pair there.  The walk stays inside the component, the anchor state
    is then visited again and again, and each visit crosses the accepting
    branch with fixed positive probability.
    """
    starts, bounds = p.pair_start, p.branch_start
    branches = {}  # (member, retained pair) -> (successors, accepting flags)
    for u, kept in zip(ec.states, ec.retained):
        for k in kept:
            lo, hi = bounds[starts[u] + k], bounds[starts[u] + k + 1]
            branches[u, k] = p.succ[lo:hi].tolist(), p.accepting[lo:hi].tolist()
    anchor = next((uk for uk, (_, acc) in branches.items() if any(acc)), None)
    assert anchor is not None, "accepting component without accepting branch"
    u_star, k_star = anchor
    members = set(ec.states)
    dist = {u_star: 0}
    frontier = [u_star]
    rev: dict[int, list[int]] = {u: [] for u in ec.states}
    for (u, _), (succ, _) in branches.items():
        for t in succ:
            rev[t].append(u)
    while frontier:
        nxt = []
        for v in frontier:
            for u in rev[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    assert set(dist) == members, "end component not strongly connected"
    choice[u_star] = k_star
    for u, kept in zip(ec.states, ec.retained):
        if u == u_star:
            continue
        for k in kept:
            if any(dist[t] == dist[u] - 1 for t in branches[u, k][0]):
                choice[u] = k
                break


def policy_buchi_probability(p: ProductMdp, f: Strategy) -> np.ndarray:
    """Probability, per state, that the chain induced by `f` keeps crossing
    accepting branches.

    Classifies bottom strongly connected components of the chain as accepting
    or not, then solves exact absorption into the accepting ones.
    """
    f.check(p)
    chosen = _chosen_branches(p, f.choice)
    succ, accepting = p.succ.tolist(), p.accepting.tolist()
    out = [succ[r.start : r.stop] for r in chosen]
    win: set[int] = set()
    lose: set[int] = set()
    for comp in strongly_connected_components(p.n_states, out.__getitem__):
        members = set(comp)
        if all(t in members for u in comp for t in out[u]):  # bottom
            acc = any(accepting[e] for u in comp for e in chosen[u])
            (win if acc else lose).update(comp)
    return _chain_reach(p, list(f.choice), frozenset(win), frozenset(lose))
