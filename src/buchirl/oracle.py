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
    n = p.n_states
    alive = [True] * n
    retained = [list(range(len(p.pairs[st]))) for st in range(n)]

    def succ(u: int):
        if not alive[u]:
            return []
        out = []
        for k in retained[u]:
            for br in p.pairs[u][k].branches:
                if alive[br.succ]:
                    out.append(br.succ)
        return out

    while True:
        comps = strongly_connected_components(n, succ)
        comp_of = [0] * n
        for ci, comp in enumerate(comps):
            for u in comp:
                comp_of[u] = ci
        changed = False
        for u in range(n):
            if not alive[u]:
                continue
            keep = [
                k
                for k in retained[u]
                if all(
                    alive[br.succ] and comp_of[br.succ] == comp_of[u]
                    for br in p.pairs[u][k].branches
                )
            ]
            if len(keep) != len(retained[u]):
                retained[u] = keep
                changed = True
            if not keep:
                alive[u] = False
                changed = True
        if not changed:
            break

    groups: dict[int, list[int]] = {}
    for u in range(n):
        if alive[u]:
            groups.setdefault(comp_of[u], []).append(u)
    mecs = []
    for members in sorted(groups.values(), key=min):
        members.sort()
        kept = tuple(tuple(retained[u]) for u in members)
        acc = any(
            br.accepting
            for u in members
            for k in retained[u]
            for br in p.pairs[u][k].branches
        )
        mecs.append(EndComponent(tuple(members), kept, acc))
    return tuple(mecs)


def _chain_reach(
    p: ProductMdp, choice: list[int], ones: frozenset[int], zeros: frozenset[int]
) -> np.ndarray:
    """Reach probability of `ones` in the chain induced by `choice`.

    States in `ones` are worth 1, in `zeros` 0; free states that cannot reach
    `ones` are exactly 0 and fixing them keeps the system nonsingular.
    """
    n = p.n_states
    free = [st for st in range(n) if st not in ones and st not in zeros]
    b = np.zeros(n)
    rev: list[list[int]] = [[] for _ in range(n)]
    for st in free:
        for br in p.pairs[st][choice[st]].branches:
            if br.succ in ones:
                b[st] += br.prob
            elif br.succ not in zeros:
                rev[br.succ].append(st)
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
            for br in p.pairs[st][choice[st]].branches:
                j = pos.get(br.succ)
                if j is not None:
                    a[i, j] -= br.prob
        v[np.array(order)] = np.linalg.solve(a, b[np.array(order)])
    return v


def _max_reach(p: ProductMdp, targets: frozenset[int]) -> tuple[np.ndarray, list[int]]:
    """Exact maximal reach probability by policy iteration.

    Evaluation always takes the least solution (zeros fixed off the live
    set), and switches need a strict margin, so the iteration cannot cycle
    through equal-valued policies.
    """
    n = p.n_states
    choice = [0] * n
    v = _chain_reach(p, choice, targets, frozenset())
    for _ in range(10_000):
        improved = False
        for st in range(n):
            if st in targets:
                continue
            best_k = -1
            best_q = v[st] + 1e-12
            for k, pair in enumerate(p.pairs[st]):
                q = sum(br.prob * v[br.succ] for br in pair.branches)
                if q > best_q:
                    best_q = q
                    best_k = k
            if best_k >= 0 and best_k != choice[st]:
                choice[st] = best_k
                improved = True
        if not improved:
            return v, choice
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
        ec = mecs[i]
        _anchor_component(p, ec, choice)
    return BuchiResult(values, Strategy(tuple(choice)), mecs, acc_ids, p.gfm_caveat)


def _anchor_component(p: ProductMdp, ec: EndComponent, choice: list[int]) -> None:
    """Overwrite `choice` inside `ec` so some accepting branch recurs forever.

    Picks the first accepting branch as an anchor, points every other member
    along retained pairs that step closer to the anchor state, and fires the
    anchor pair there.  The walk stays inside the component, the anchor state
    is then visited again and again, and each visit crosses the accepting
    branch with fixed positive probability.
    """
    anchor = None
    for u in ec.states:
        for k in ec.retained_at(u):
            if any(br.accepting for br in p.pairs[u][k].branches):
                anchor = (u, k)
                break
        if anchor:
            break
    assert anchor is not None, "accepting component without accepting branch"
    u_star, k_star = anchor
    members = set(ec.states)
    dist = {u_star: 0}
    frontier = [u_star]
    rev: dict[int, list[int]] = {u: [] for u in ec.states}
    for u in ec.states:
        for k in ec.retained_at(u):
            for br in p.pairs[u][k].branches:
                rev[br.succ].append(u)
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
    for u in ec.states:
        if u == u_star:
            continue
        for k in ec.retained_at(u):
            if any(dist[br.succ] == dist[u] - 1 for br in p.pairs[u][k].branches):
                choice[u] = k
                break


def policy_buchi_probability(p: ProductMdp, f: Strategy) -> np.ndarray:
    """Probability, per state, that the chain induced by `f` keeps crossing
    accepting branches.

    Classifies bottom strongly connected components of the chain as accepting
    or not, then solves exact absorption into the accepting ones.
    """
    f.check(p)
    n = p.n_states

    def succ(u: int):
        return [br.succ for br in p.pairs[u][f.choice[u]].branches]

    comps = strongly_connected_components(n, succ)
    comp_of = [0] * n
    for ci, comp in enumerate(comps):
        for u in comp:
            comp_of[u] = ci
    win: set[int] = set()
    lose: set[int] = set()
    for comp in comps:
        members = set(comp)
        bottom = all(br.succ in members for u in comp for br in p.pairs[u][f.choice[u]].branches)
        if not bottom:
            continue
        acc = any(br.accepting for u in comp for br in p.pairs[u][f.choice[u]].branches)
        (win if acc else lose).update(comp)
    return _chain_reach(p, list(f.choice), frozenset(win), frozenset(lose))
