"""Independent reference computations for the property tests.

Nothing in here calls the package's solvers or oracle internals:
satisfaction probabilities come from networkx component analysis plus small
dense solves assembled on the spot, optima from exhaustive enumeration of
positional strategies, lasso acceptance from a flagged transitive closure,
and the product and payoff-view tables from loops over tuples, one branch at
a time.  Size caps keep everything desk-scale.  `oracle_reference`, the
oracle's former tuple walk, which the column oracle must match bit for bit,
finds its strongly connected components with networkx as well.
`policy_value_bruteforce` stopped after T sweeps gives the exact T-step
payoffs that the sampler's means are tested against.
"""

import itertools
import math

import networkx as nx
import numpy as np

from buchirl.automata import is_deterministic
from buchirl.oracle import BuchiResult, EndComponent, PolicyIterationError
from buchirl.product import (
    AlphabetMismatchError,
    Branch,
    DeadEndError,
    IncompleteAutomatonError,
    Pair,
    ProductError,
    ProductMdp,
    Strategy,
)
from buchirl.shaping import FlatBranches, Mode


def augment_reference(p, spec):
    """The columns of one payoff view, built one branch at a time.

    Each pair keeps its raw branches in order, reweighted for the view.  In
    the leaked views the pair's accepting branches also add (1-zeta) of
    their mass to its leak into the target, summed with `+=`, and the leak
    pays 1.  A branch's mass in the view's dynamics, zeta-scaled in the
    leaked views and the product's own in the biased one, weighs its reward
    in `base`.  Rows are (weight, reward) per branch and (base, leak) per
    pair, laid out as a `FlatBranches` table.
    """
    zeta = spec.zeta
    leaked = spec.mode is not Mode.BIASED_DISCOUNT
    r_cont = 0.0 if spec.mode is Mode.REACH_TARGET else 1.0
    rows, base, leak = [], [], []
    for st in range(p.n_states):
        for pair in p.pairs[st]:
            leak_mass = 0.0
            terms = []
            for b in pair.branches:
                if not b.accepting:
                    mass, row = b.prob, (b.prob, 0.0)
                elif leaked:
                    mass, row = b.prob * zeta, (b.prob * zeta, r_cont)
                    leak_mass += b.prob * (1.0 - zeta)
                else:
                    mass, row = b.prob, (b.prob * zeta, 1.0)
                rows.append(row)
                terms.append(mass * row[1])
            base.append(math.fsum(terms + [leak_mass]))
            leak.append(leak_mass)
    weight, reward = (np.array(c) for c in zip(*rows))
    return FlatBranches(weight, reward, np.array(base), np.array(leak))


def product_reference(m, a):
    """The reachable product as (states, pairs, gfm_caveat), built with tuples.

    The tuple construction loop that the columns replaced, reading each
    (state, action)'s edges off `Mdp.groups`: each pair's branches are
    collected as `Branch` tuples and kept when every MDP branch has a move
    to the pair's automaton successor; a successor state is numbered only
    when its pair is kept.  Raises as `build_product` does: a missing
    automaton move, like an unlabelled edge, only when the search reads it.
    """
    if set(m.symbols) != set(a.symbols):
        only_m = sorted(set(m.symbols) - set(a.symbols))
        only_a = sorted(set(a.symbols) - set(m.symbols))
        raise AlphabetMismatchError(
            f"alphabets differ (MDP only: {only_m}, automaton only: {only_a})"
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

    state_start, group_action, edge_start, edge = m.groups
    rows = list(zip(m.succ.tolist(), m.prob.tolist(), m.symbol.tolist()))

    head = 0
    while head < len(states):
        s, q = states[head]
        plist: list[Pair] = []
        for k in range(state_start[s], state_start[s + 1]):
            act = int(group_action[k])
            edges = [rows[i] for i in edge[edge_start[k]:edge_start[k + 1]]]
            if any(x < 0 for _, _, x in edges):
                raise ProductError(
                    f"unlabelled edge at ({m.states[s]},{m.actions[act]}); "
                    "validate the MDP first"
                )
            if not all(a.moves(q, sym_map[x]) for _, _, x in edges):
                raise IncompleteAutomatonError(
                    "automaton is missing moves; complete it first "
                    "(complete_with_trap adds a rejecting trap)"
                )
            for q2 in range(a.n_states):
                marks: list[bool] = []
                for _, _, x in edges:
                    acc = None
                    for r, f in a.moves(q, sym_map[x]):
                        if r == q2:
                            acc = f
                            break
                    if acc is None:
                        marks = []
                        break
                    marks.append(acc)
                if marks:
                    # successors are numbered only once the pair survives
                    branches = tuple(
                        Branch(state_id((t, q2)), pr, x, acc)
                        for (t, pr, x), acc in zip(edges, marks)
                    )
                    plist.append(Pair(act, q2, branches))
        if not plist:
            raise DeadEndError(
                f"product state ({m.states[s]},q{q}) has no available pair; "
                "every automaton choice drops probability mass"
            )
        pairs_out.append(tuple(plist))
        head += 1

    caveat = not (a.gfm is True or is_deterministic(a))
    return tuple(states), tuple(pairs_out), caveat


def oracle_reference(p, strategies=()):
    """The tuple-walking oracle that the column oracle replaced.

    Returns `buchi_value(p)` and `policy_buchi_probability(p, f)` for each
    strategy, computed by the functions below, which are the oracle's former
    loops over `p.pairs`, kept verbatim but for the retained pairs, which
    travel beside the components rather than in them.
    """
    return buchi_value(p), [policy_buchi_probability(p, f) for f in strategies]


def _components(n, succ):
    """Strongly connected components of nodes 0..n-1 under `succ`, by networkx."""
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from((u, v) for u in range(n) for v in succ(u))
    return list(nx.strongly_connected_components(g))


def mec_decomposition(p: ProductMdp):
    """Maximal end components, sorted by smallest member state, and aligned
    with them, the retained pair indices of each member.

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
        comps = _components(n, succ)
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
    mecs, kept = [], []
    for members in sorted(groups.values(), key=min):
        members.sort()
        kept.append(tuple(tuple(retained[u]) for u in members))
        acc = any(
            br.accepting
            for u in members
            for k in retained[u]
            for br in p.pairs[u][k].branches
        )
        mecs.append(EndComponent(tuple(members), acc))
    return tuple(mecs), tuple(kept)


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
    mecs, kept = mec_decomposition(p)
    acc_ids = tuple(i for i, ec in enumerate(mecs) if ec.accepting)
    u_states = frozenset(st for i in acc_ids for st in mecs[i].states)
    if not u_states:
        values = np.zeros(p.n_states)
        choice = [0] * p.n_states
        return BuchiResult(values, Strategy(tuple(choice)), mecs, acc_ids, p.gfm_caveat)
    values, choice = _max_reach(p, u_states)
    for i in acc_ids:
        _anchor_component(p, mecs[i], kept[i], choice)
    return BuchiResult(values, Strategy(tuple(choice)), mecs, acc_ids, p.gfm_caveat)


def _anchor_component(p: ProductMdp, ec: EndComponent, kept, choice: list[int]) -> None:
    """Overwrite `choice` inside `ec` so some accepting branch recurs forever.

    Picks the first accepting branch as an anchor, points every other member
    along retained pairs that step closer to the anchor state, and fires the
    anchor pair there.  The walk stays inside the component, the anchor state
    is then visited again and again, and each visit crosses the accepting
    branch with fixed positive probability.
    """
    retained = dict(zip(ec.states, kept))
    anchor = None
    for u in ec.states:
        for k in retained[u]:
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
        for k in retained[u]:
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
        for k in retained[u]:
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

    comps = _components(n, succ)
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


def policy_value_bruteforce(model, choice, tol=0.0, sweeps=200_000):
    """Expected payoff of a positional strategy by plain fixed-point sweeps.

    Pure-python Bellman sweeps on the chosen branches, read as per-pair
    slices of the product's successors and the view's columns, plus each
    chosen pair's leak, which pays 1 and ends the run; no linear algebra
    shared with evaluate_policy.  Converges geometrically since every reward cycle
    carries weight at most zeta < 1.  By default it sweeps until a sweep
    changes nothing: from zero the rounded iterates never decrease, so they
    settle on a floating-point fixed point, within a few ulps / (1 - zeta)
    of the exact values.  Stopping at a step of size d instead leaves an
    error of about d / (1 - zeta).  With a negative `tol` it runs exactly
    `sweeps` sweeps, and v[s] is then the expected payoff of the first
    `sweeps` steps from s.
    """
    n = model.n_states
    p, flat = model.product, model.flat
    # the branch masses of the view's dynamics: zeta-scaled where it leaks
    prob = p.prob if model.mode is Mode.BIASED_DISCOUNT else flat.weight
    cols = (p.succ, prob, flat.weight, flat.reward)
    chosen = []
    for st in range(n):
        pid = p.pair_start[st] + choice[st]
        cut = slice(p.branch_start[pid], p.branch_start[pid + 1])
        chosen.append((list(zip(*(c[cut].tolist() for c in cols))), float(flat.leak[pid])))
    v = [0.0] * n
    for _ in range(sweeps):
        worst = 0.0
        new = []
        for st in range(n):
            tot = 0.0
            rows, leak = chosen[st]
            for succ, prob, weight, reward in rows:
                tot += prob * reward
                tot += weight * v[succ]
            tot += leak
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

    `word` is a (prefix, cycle) pair of symbol-index tuples, the cycle
    nonempty, standing for prefix.cycle^omega.  A run graph node is
    (automaton state, cycle position).  The word is accepted iff some node u
    reachable from the after-prefix frontier can return to itself along a
    path crossing at least one accepting edge.
    """
    prefix, cycle = word
    c = len(cycle)
    plain = {}
    good = {}
    for q in range(a.n_states):
        for i in range(c):
            u = (q, i)
            plain[u] = set()
            good[u] = set()
            for r, acc in a.moves(q, cycle[i]):
                v = (r, (i + 1) % c)
                plain[u].add(v)
                if acc:
                    good[u].add(v)

    frontier = {a.initial}
    for s in prefix:
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
