"""Independent reference computations for the property tests.

Nothing in here calls the package's solvers, oracle internals, or graph
helpers: satisfaction probabilities come from networkx component analysis
plus small dense solves assembled on the spot, optima from exhaustive
enumeration of positional strategies, lasso acceptance from a flagged
transitive closure, and the product and payoff-view tables from loops over
tuples, one branch at a time.  Size caps keep everything desk-scale.
"""

import itertools
import math

import networkx as nx
import numpy as np

from buchirl.automata import is_complete, is_deterministic
from buchirl.product import (
    AlphabetMismatchError,
    Branch,
    DeadEndError,
    IncompleteAutomatonError,
    Pair,
    ProductError,
)
from buchirl.shaping import FlatBranches, Mode


def augment_reference(p, spec):
    """The branch table of one payoff view, built one branch at a time.

    Each pair keeps its raw branches in order, reweighted for the view, and in
    the leaked views gains one merged leak branch into the target, last,
    whose mass is summed with `+=` over the accepting branches.  Rows are
    (succ, prob, weight, reward), laid out as a `FlatBranches` table.
    """
    zeta = spec.zeta
    leaked = spec.mode is not Mode.BIASED_DISCOUNT
    r_cont = 0.0 if spec.mode is Mode.REACH_TARGET else 1.0
    target = p.n_states
    pairs = []
    for st in range(p.n_states):
        for pair in p.pairs[st]:
            rows = []
            leak_mass = 0.0
            for b in pair.branches:
                if not b.accepting:
                    rows.append((b.succ, b.prob, b.prob, 0.0))
                elif leaked:
                    rows.append((b.succ, b.prob * zeta, b.prob * zeta, r_cont))
                    leak_mass += b.prob * (1.0 - zeta)
                else:
                    rows.append((b.succ, b.prob, b.prob * zeta, 1.0))
            if leak_mass > 0.0:
                rows.append((target, leak_mass, 0.0, 1.0))
            pairs.append(rows)
    succ, prob, weight, reward = (np.array(c) for c in zip(*(r for rows in pairs for r in rows)))
    bounds = list(itertools.accumulate(map(len, pairs), initial=0))
    pr = (prob * reward).tolist()
    return FlatBranches(
        np.array(list(itertools.accumulate(map(len, p.pairs), initial=0))),
        np.array(bounds),
        succ,
        prob,
        weight,
        reward,
        np.array([math.fsum(pr[i:j]) for i, j in zip(bounds, bounds[1:])]),
    )


def product_reference(m, a):
    """The reachable product as (states, pairs, gfm_caveat), built with tuples.

    The construction loop as it was before the product became columns: each
    pair's branches are collected as `Branch` tuples and kept when every MDP
    branch has a move to the pair's automaton successor.  Raises as
    `build_product` does.
    """
    if set(m.symbols) != set(a.symbols):
        only_m = sorted(set(m.symbols) - set(a.symbols))
        only_a = sorted(set(a.symbols) - set(m.symbols))
        raise AlphabetMismatchError(
            f"alphabets differ (MDP only: {only_m}, automaton only: {only_a})"
        )
    if not is_complete(a):
        raise IncompleteAutomatonError(
            "automaton is missing moves; complete it first "
            "(complete_with_trap adds a rejecting trap)"
        )
    sym_map = tuple(a.symbols.index(name) for name in m.symbols)

    states: list[tuple[int, int]] = [(m.initial, a.initial)]
    index: dict[tuple[int, int], int] = {states[0]: 0}
    pairs_out: list[tuple[Pair, ...]] = []

    def state_id(sq: tuple[int, int]) -> int:
        i = index.get(sq)
        if i is None:
            i = len(states)
            index[sq] = i
            states.append(sq)
        return i

    head = 0
    while head < len(states):
        s, q = states[head]
        plist: list[Pair] = []
        for act in m.available(s):
            edges = m.branches(s, act)
            if any(e.symbol is None for e in edges):
                raise ProductError(
                    f"unlabelled edge at ({m.states[s]},{m.actions[act]}); "
                    "validate the MDP first"
                )
            for q2 in range(a.n_states):
                branches: list[Branch] = []
                for e in edges:
                    acc = None
                    for r, f in a.moves(q, sym_map[e.symbol]):
                        if r == q2:
                            acc = f
                            break
                    if acc is None:
                        branches = []
                        break
                    branches.append(
                        Branch(state_id((e.succ, q2)), e.prob, e.symbol, acc)
                    )
                if branches:
                    plist.append(Pair(act, q2, tuple(branches)))
        if not plist:
            raise DeadEndError(
                f"product state ({m.states[s]},q{q}) has no available pair; "
                "every automaton choice drops probability mass"
            )
        pairs_out.append(tuple(plist))
        head += 1

    caveat = not (a.gfm is True or is_deterministic(a))
    return tuple(states), tuple(pairs_out), caveat


def policy_sat_bruteforce(p, choice):
    """Buchi probability per state of a positional policy, via BSCC absorption.

    Bottom strongly connected components of the induced chain are winning iff
    they contain an accepting branch; all other states are transient for the
    win/lose partition, so I - Q is nonsingular on them and one dense solve
    gives the absorption probabilities.
    """
    n = p.n_states
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    for st in range(n):
        for br in p.pairs[st][choice[st]].branches:
            g.add_edge(st, br.succ)
    win = set()
    lose = set()
    for comp in nx.strongly_connected_components(g):
        if all(v in comp for u in comp for v in g.successors(u)):
            acc = any(
                br.accepting for u in comp for br in p.pairs[u][choice[u]].branches
            )
            (win if acc else lose).update(comp)
    v = np.zeros(n)
    for st in win:
        v[st] = 1.0
    transient = [st for st in range(n) if st not in win and st not in lose]
    if transient:
        pos = {st: i for i, st in enumerate(transient)}
        a = np.eye(len(transient))
        b = np.zeros(len(transient))
        for i, st in enumerate(transient):
            for br in p.pairs[st][choice[st]].branches:
                j = pos.get(br.succ)
                if j is not None:
                    a[i, j] -= br.prob
                elif br.succ in win:
                    b[i] += br.prob
        v[transient] = np.linalg.solve(a, b)
    return v


def all_strategies(p):
    """Every positional strategy of a product, as choice tuples."""
    return itertools.product(*(range(len(plist)) for plist in p.pairs))


def buchi_value_bruteforce(p):
    """Componentwise max of policy_sat_bruteforce over all positional strategies."""
    best = np.zeros(p.n_states)
    for choice in all_strategies(p):
        best = np.maximum(best, policy_sat_bruteforce(p, choice))
    return best


def is_end_component(p, subset):
    """Does `subset` carry a closed, strongly connected sub-MDP?

    Uses the maximal retained-pair sets: keeping every pair whose branches
    stay inside can only add edges, so strong connectivity with them is
    equivalent to strong connectivity with any witness selection.
    """
    subset = set(subset)
    g = nx.DiGraph()
    g.add_nodes_from(subset)
    for st in subset:
        closed = [
            pair
            for pair in p.pairs[st]
            if all(br.succ in subset for br in pair.branches)
        ]
        if not closed:
            return False
        for pair in closed:
            for br in pair.branches:
                g.add_edge(st, br.succ)
    return nx.is_strongly_connected(g)


def all_end_components(p):
    """Every state subset that is an end component (cap: 2^n subsets)."""
    n = p.n_states
    out = []
    for mask in range(1, 1 << n):
        subset = [st for st in range(n) if mask >> st & 1]
        if is_end_component(p, subset):
            out.append(frozenset(subset))
    return out


def policy_value_bruteforce(model, choice, tol=1e-14, sweeps=200_000):
    """Expected payoff of a positional strategy by plain fixed-point sweeps.

    Pure-python Bellman sweeps on the chosen augmented branches, read as
    per-pair slices of the flat table; no linear algebra shared with
    evaluate_policy.  Converges geometrically since every reward cycle
    carries weight at most zeta < 1.
    """
    n = model.n_states
    flat = model.flat
    cols = (flat.succ, flat.prob, flat.weight, flat.reward)
    chosen = []
    for st in range(n):
        pid = flat.pair_start[st] + choice[st]
        cut = slice(flat.branch_start[pid], flat.branch_start[pid + 1])
        chosen.append(list(zip(*(c[cut].tolist() for c in cols))))
    v = [0.0] * n
    for _ in range(sweeps):
        worst = 0.0
        new = []
        for st in range(n):
            tot = 0.0
            for succ, prob, weight, reward in chosen[st]:
                tot += prob * reward
                if weight != 0.0 and succ != model.target:
                    tot += weight * v[succ]
            new.append(tot)
            worst = max(worst, abs(tot - v[st]))
        v = new
        if worst <= tol:
            break
    return np.array(v)


def optimal_value_bruteforce(model):
    """Componentwise max of policy values over all positional strategies."""
    best = np.zeros(model.n_states)
    for choice in all_strategies(model.product):
        best = np.maximum(best, policy_value_bruteforce(model, choice))
    return best


def lasso_accept_bruteforce(a, word):
    """Lasso acceptance by flagged reachability on the cycle-unrolled graph.

    A run graph node is (automaton state, cycle position).  The word is
    accepted iff some node u reachable from the after-prefix frontier can
    return to itself along a path crossing at least one accepting edge.
    """
    c = len(word.cycle)
    plain = {}
    good = {}
    for q in range(a.n_states):
        for i in range(c):
            u = (q, i)
            plain[u] = set()
            good[u] = set()
            for r, acc in a.moves(q, word.cycle[i]):
                v = (r, (i + 1) % c)
                plain[u].add(v)
                if acc:
                    good[u].add(v)

    frontier = {a.initial}
    for s in word.prefix:
        frontier = {r for q in frontier for r, _ in a.moves(q, s)}
        if not frontier:
            return False
    seen = {(q, 0) for q in frontier}
    stack = list(seen)
    while stack:
        u = stack.pop()
        for v in plain[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)

    for u in seen:
        flagged = {(u, False)}
        work = [(u, False)]
        hit = False
        while work and not hit:
            v, flag = work.pop()
            for w in plain[v]:
                nf = flag or w in good[v]
                if nf and w == u:
                    hit = True
                    break
                if (w, nf) not in flagged:
                    flagged.add((w, nf))
                    work.append((w, nf))
        if hit:
            return True
    return False
