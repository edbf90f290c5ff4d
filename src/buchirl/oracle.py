"""Independent model-checking route on the raw product.

The Buchi value is computed from maximal end components plus exact maximal
reachability, and per-strategy satisfaction from the bottom components of
the induced chain.  Every chain is first settled by graph search: states
that cannot reach the target are exactly 0, states that cannot reach a
state worth 0 exactly 1, and a dense linear solve covers only the states
left undecided.  A strategy's chain is read from the product's columns
(`ProductMdp.select`), and the searches and the linear system work on those
branch arrays.  The reward pipeline is numerically checked against these
answers, so nothing here may reuse the augmentation or the reward solvers:
the linear systems are assembled separately on purpose.  Graph search is
not numerics, and it is shared through `graphs` with the reward side.

For products of nondeterministic automata without an asserted good-for-MDPs
flag the computed value is only guaranteed to be a lower bound on the Buchi
value of the underlying MDP; results carry that caveat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import backward_levels, strongly_connected_components
from .product import ProductMdp, Strategy


class PolicyIterationError(RuntimeError):
    """Maximal-reachability policy iteration did not stabilize."""


@dataclass(frozen=True)
class EndComponent:
    """Closed strongly connected sub-MDP.  A member's pairs in it, its kept
    pairs, are exactly those whose branches all stay among `states`."""

    states: tuple[int, ...]
    accepting: bool  # some kept pair has an accepting branch


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
        comp_of = strongly_connected_components(n, source[edge], p.succ[edge])
        leaves = comp_of[p.succ] != comp_of[source]
        keep = kept & ~np.logical_or.reduceat(leaves, bounds[:-1])
        if np.array_equal(keep, kept):
            break
        kept = keep

    groups: dict[int, list[int]] = {}
    alive = np.flatnonzero(np.logical_or.reduceat(kept, starts[:-1]))
    for u, c in zip(alive.tolist(), comp_of[alive].tolist()):
        groups.setdefault(c, []).append(u)
    fire = kept & np.logical_or.reduceat(p.accepting, bounds[:-1])
    accepting = set(comp_of[p.pair_state[fire]].tolist())
    # first seen = smallest member first
    return tuple(EndComponent(tuple(members), c in accepting) for c, members in groups.items())


def _chain_reach(p: ProductMdp, choice, ones: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    """Reach probability of `ones` in the chain induced by `choice`."""
    _, src, br = p.select(choice)
    return _absorption(p, src, br, ones, zeros)


def _absorption(p: ProductMdp, src: np.ndarray, br: np.ndarray, ones: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    """Reach probability of `ones` in the chain whose branches are the flat
    indices `br`, from the states `src`, as `ProductMdp.select` gives them.

    States in `ones` are worth 1, in `zeros` 0; both are (n_states,) boolean
    masks.  Two backward searches over the chosen branches settle the rest
    by the graph alone: a free state that cannot reach `ones` is worth
    exactly 0 (the live set is the rest), and a live state that cannot
    reach a state worth 0 is worth exactly 1.  A dense solve runs only over
    the live states left undecided, with the mass into states worth 1 on
    its right-hand side; fixing the 0s keeps that system nonsingular.  Its
    entries are summed in branch order.
    """
    n = p.n_states
    dst = p.succ[br]
    free = ~(ones | zeros)
    hits = src[free[src] & ones[dst]]  # free states one branch away from `ones`
    if not hits.size:  # then no free state reaches `ones`
        return ones.astype(float)
    inner = free[src] & free[dst]
    isrc, idst = src[inner], dst[inner]
    live = backward_levels(n, isrc, idst, hits) >= 0
    # live states one branch away from a state worth 0, which is one in
    # `zeros` or a free state off the live set; the closure stays live
    # because every predecessor of a live state is live
    doomed = src[live[src] & ~ones[dst] & ~live[dst]]
    sure = live & (backward_levels(n, isrc, idst, doomed) < 0)
    v = (ones | sure).astype(float)
    undecided = live & ~sure
    order = np.flatnonzero(undecided)
    if order.size:
        pos = np.full(n, -1)
        pos[order] = np.arange(order.size)
        rows = undecided[src]
        i, j, w = pos[src[rows]], pos[dst[rows]], p.prob[br[rows]]
        inside = j >= 0
        a = np.eye(order.size)
        np.subtract.at(a, (i[inside], j[inside]), w[inside])
        to_one = ~inside & (v[dst[rows]] == 1.0)
        b = np.bincount(i[to_one], weights=w[to_one], minlength=order.size)
        v[order] = np.linalg.solve(a, b)
    return v


def _max_reach(p: ProductMdp, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact maximal reach probability by policy iteration, with the
    strategy as an (n_states,) int64 array of pair ranks.

    Evaluation always takes the least solution (zeros fixed off the live
    set), and switches need a strict margin, so the iteration cannot cycle
    through equal-valued policies.  Among the best pairs of a state the
    lowest index wins.
    """
    free, none = ~targets, np.zeros(p.n_states, dtype=bool)
    choice = np.zeros(p.n_states, dtype=np.int64)
    v = _chain_reach(p, choice, targets, none)
    for _ in range(10_000):
        q = np.bincount(p.branch_pair, weights=p.prob * v[p.succ], minlength=p.n_pairs)
        best, first = p.first_best(q)
        switch = free & (best > v + 1e-12) & (first != choice)
        if not switch.any():
            return v, choice
        choice[switch] = first[switch]
        v = _chain_reach(p, choice, targets, none)
    raise PolicyIterationError("max-reach policy iteration failed to stabilize")


def buchi_value(p: ProductMdp) -> BuchiResult:
    """Maximal probability of seeing accepting branches forever, per state.

    Equals the maximal probability of reaching an accepting maximal end
    component.  The returned strategy realizes the value: outside accepting
    components it maximizes reachability, inside one it walks toward the
    source of one accepting branch and fires it.

    All accepting components are anchored in one pass.  A member's kept
    pairs are those whose branches all stay in its component, and each
    component's anchor is its lowest-index kept pair with an accepting
    branch.  One backward search from every anchor state over the kept
    branches gives each member its distance to its own anchor, since no
    kept branch leaves its component.  The anchor state fires the anchor
    pair, and every other member takes its lowest kept pair with a branch
    one level closer.  The walk stays inside the component, the anchor
    state is visited again and again, and each visit crosses the accepting
    branch with fixed positive probability.
    """
    mecs = mec_decomposition(p)
    acc_ids = tuple(i for i, ec in enumerate(mecs) if ec.accepting)
    if not acc_ids:
        return BuchiResult(np.zeros(p.n_states), Strategy((0,) * p.n_states), mecs, acc_ids, p.gfm_caveat)
    comp = np.full(p.n_states, -1)  # the accepting component of each state, or -1
    members = [st for i in acc_ids for st in mecs[i].states]
    comp[members] = np.repeat(acc_ids, [len(mecs[i].states) for i in acc_ids])
    values, choice = _max_reach(p, comp >= 0)

    bounds, source, pair_comp = p.branch_start[:-1], p.pair_state[p.branch_pair], comp[p.pair_state]
    kept = (pair_comp >= 0) & np.logical_and.reduceat(comp[p.succ] == comp[source], bounds)
    fire = np.flatnonzero(kept & np.logical_or.reduceat(p.accepting, bounds))
    _, first = np.unique(pair_comp[fire], return_index=True)  # each component's lowest
    anchors = fire[first]
    assert anchors.size == len(acc_ids), "accepting component without accepting branch"
    edge = kept[p.branch_pair]
    dist = backward_levels(p.n_states, source[edge], p.succ[edge], p.pair_state[anchors])
    assert dist[members].min() >= 0, "end component not strongly connected"
    closer = kept & np.logical_or.reduceat(dist[p.succ] == dist[source] - 1, bounds)
    walk = dist > 0  # members away from their anchor state
    choice[walk] = p.first_best(closer.astype(float))[1][walk]
    choice[p.pair_state[anchors]] = anchors - p.pair_start[p.pair_state[anchors]]
    return BuchiResult(values, Strategy(tuple(choice.tolist())), mecs, acc_ids, p.gfm_caveat)


def policy_buchi_probability(p: ProductMdp, f: Strategy) -> np.ndarray:
    """Probability, per state, that the chain induced by `f` keeps crossing
    accepting branches.

    Classifies bottom strongly connected components of the chain as accepting
    or not, then computes absorption into the accepting ones: exactly 0 and
    exactly 1 where the graph decides it, by a dense solve over the states
    left undecided.
    """
    f.check(p)
    _, src, br = p.select(f.choice)
    dst = p.succ[br]
    comp_of = strongly_connected_components(p.n_states, src, dst)
    cs, n = comp_of[src], p.n_states  # at most n components
    bottom = (np.bincount(cs[cs != comp_of[dst]], minlength=n) == 0)[comp_of]
    accepting = np.bincount(cs[p.accepting[br]], minlength=n)[comp_of] > 0
    win, lose = bottom & accepting, bottom & ~accepting
    return _absorption(p, src, br, win, lose)
