"""Independent model-checking route on the raw product.

The Buchi value is computed from maximal end components plus exact maximal
reachability, and per-strategy satisfaction from the bottom components of
the induced chain.  Every chain is first settled by graph search: states
that cannot reach the target are exactly 0, states that cannot reach a
state worth 0 exactly 1, and a dense linear solve covers only the states
left undecided.  The reward pipeline is numerically checked against these
answers, so nothing here may reuse the augmentation or the reward solvers:
the linear systems are assembled separately on purpose.  Graph search is
not numerics, and it is shared through `graphs` with the reward side.

For products of nondeterministic automata without an asserted good-for-MDPs
flag the computed value is only guaranteed to be a lower bound on the Buchi
value of the underlying MDP; results carry that caveat.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graphs import adjacency, backward_levels, strongly_connected_components
from .product import ProductMdp, Strategy


class PolicyIterationError(RuntimeError):
    """Maximal-reachability policy iteration did not stabilize."""


@dataclass(frozen=True)
class EndComponent:
    """Closed strongly connected sub-MDP: states plus the retained pairs."""

    states: tuple[int, ...]
    retained: tuple[tuple[int, ...], ...]  # pair indices, aligned with states
    accepting: bool


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
    n, starts, bounds, branch_pair = p.n_states, p.pair_start, p.branch_start, p.branch_pair
    source = p.pair_state[branch_pair]
    kept = np.ones(p.n_pairs, dtype=bool)
    while True:
        # a state without kept pairs has no edges, so it is a component of
        # its own, and every branch into it leaves its source's component
        edge = kept[branch_pair]
        out = adjacency(n, source[edge].tolist(), p.succ[edge].tolist())
        comp_list = [0] * n
        for ci, comp in enumerate(strongly_connected_components(out)):
            for u in comp:
                comp_list[u] = ci
        comp_of = np.array(comp_list)
        leaves = comp_of[p.succ] != comp_of[source]
        keep = kept & ~np.logical_or.reduceat(leaves, bounds[:-1])
        if np.array_equal(keep, kept):
            break
        kept = keep

    groups: dict[int, list[int]] = {}
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


def _chosen_branches(p: ProductMdp, choice) -> list[range]:
    """Indices of the branches of the pair `choice` picks, per state."""
    starts, bounds = p.pair_start.tolist(), p.branch_start.tolist()
    return [range(bounds[starts[st] + k], bounds[starts[st] + k + 1]) for st, k in enumerate(choice)]


def _chain_reach(
    p: ProductMdp, choice: list[int], ones: frozenset[int], zeros: frozenset[int]
) -> np.ndarray:
    """Reach probability of `ones` in the chain induced by `choice`.

    States in `ones` are worth 1, in `zeros` 0.  Two backward searches over
    the chosen branches settle the rest by the graph alone: a free state
    that cannot reach `ones` is worth exactly 0 (the live set is the rest),
    and a live state that cannot reach a state worth 0 is worth exactly 1.
    A dense solve runs only over the live states left undecided, with the
    mass into states worth 1 on its right-hand side; fixing the 0s keeps
    that system nonsingular.
    """
    n = p.n_states
    chosen = _chosen_branches(p, choice)
    succ, prob = p.succ.tolist(), p.prob.tolist()
    free = [st for st in range(n) if st not in ones and st not in zeros]
    rev: list[list[int]] = [[] for _ in range(n)]
    hits: set[int] = set()  # free states one branch away from `ones`
    for st in free:
        for e in chosen[st]:
            if succ[e] in ones:
                hits.add(st)
            elif succ[e] not in zeros:
                rev[succ[e]].append(st)
    live = {st for st, lv in enumerate(backward_levels(hits, rev)) if lv >= 0}
    # live states one branch away from a state worth 0, which is one in
    # `zeros` or a free state off the live set; the closure stays live
    # because every predecessor of a live state is live
    doomed = {st for st in live if any(succ[e] not in ones and succ[e] not in live for e in chosen[st])}
    unsure = backward_levels(doomed, rev)
    sure = {st for st in live if unsure[st] < 0}
    v = np.zeros(n)
    for st in ones | sure:
        v[st] = 1.0
    order = sorted(live - sure)
    if order:
        pos = {st: i for i, st in enumerate(order)}
        a = np.eye(len(order))
        b = np.zeros(len(order))
        for i, st in enumerate(order):
            for e in chosen[st]:
                j = pos.get(succ[e])
                if j is not None:
                    a[i, j] -= prob[e]
                elif v[succ[e]] == 1.0:
                    b[i] += prob[e]
        v[np.array(order)] = np.linalg.solve(a, b)
    return v


def _max_reach(p: ProductMdp, targets: frozenset[int]) -> tuple[np.ndarray, list[int]]:
    """Exact maximal reach probability by policy iteration.

    Evaluation always takes the least solution (zeros fixed off the live
    set), and switches need a strict margin, so the iteration cannot cycle
    through equal-valued policies.  Among the best pairs of a state the
    lowest index wins.
    """
    n, starts, pair_state = p.n_states, p.pair_start[:-1], p.pair_state
    pair_ids = np.arange(p.n_pairs)
    free = np.ones(n, dtype=bool)
    free[list(targets)] = False
    choice = [0] * n
    v = _chain_reach(p, choice, targets, frozenset())
    for _ in range(10_000):
        q = np.bincount(p.branch_pair, weights=p.prob * v[p.succ], minlength=p.n_pairs)
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
    branch with fixed positive probability.  "First" follows the order of
    `ec`: member by member, retained pair by retained pair.
    """
    members = np.array(ec.states, dtype=np.int64)
    counts = [len(kept) for kept in ec.retained]
    owner = np.repeat(np.arange(members.size), counts)  # member position of each retained pair
    ranks = np.fromiter(chain.from_iterable(ec.retained), dtype=np.int64, count=owner.size)
    pid = p.pair_start[members][owner] + ranks
    lo = p.branch_start[pid]
    size = p.branch_start[pid + 1] - lo
    at = np.cumsum(size) - size  # where each retained pair's branches start in `br`
    br = np.arange(at[-1] + size[-1]) + np.repeat(lo - at, size)
    hits = np.flatnonzero(np.logical_or.reduceat(p.accepting[br], at))
    assert hits.size, "accepting component without accepting branch"
    anchor = hits[0]
    # a retained pair never leaves `ec`, so every successor is a member
    order = np.argsort(members)
    src = np.repeat(owner, size)
    dst = order[np.searchsorted(members, p.succ[br], sorter=order)]
    dist = np.array(backward_levels([int(owner[anchor])], adjacency(members.size, dst.tolist(), src.tolist())))
    assert dist.min() >= 0, "end component not strongly connected"
    steps = np.flatnonzero(np.logical_or.reduceat(dist[dst] == dist[src] - 1, at))
    _, first = np.unique(owner[steps], return_index=True)  # each member's first such pair
    picks = steps[first]
    picks = picks[owner[picks] != owner[anchor]]
    for u, k in zip(members[owner[picks]].tolist(), ranks[picks].tolist()):
        choice[u] = k
    choice[ec.states[owner[anchor]]] = int(ranks[anchor])


def policy_buchi_probability(p: ProductMdp, f: Strategy) -> np.ndarray:
    """Probability, per state, that the chain induced by `f` keeps crossing
    accepting branches.

    Classifies bottom strongly connected components of the chain as accepting
    or not, then computes absorption into the accepting ones: exactly 0 and
    exactly 1 where the graph decides it, by a dense solve over the states
    left undecided.
    """
    f.check(p)
    chosen = _chosen_branches(p, f.choice)
    succ, accepting = p.succ.tolist(), p.accepting.tolist()
    out = [succ[r.start : r.stop] for r in chosen]
    win: set[int] = set()
    lose: set[int] = set()
    for comp in strongly_connected_components(out):
        members = set(comp)
        if all(t in members for u in comp for t in out[u]):  # bottom
            acc = any(accepting[e] for u in comp for e in chosen[u])
            (win if acc else lose).update(comp)
    return _chain_reach(p, list(f.choice), frozenset(win), frozenset(lose))
