"""Random instances for the property tests: desk-scale ones, one with pairs
of 1 to 12 branches, and one size of a few hundred product states for the
sparse policy solver; a chain of many one-state end components for the
oracle; gambler's ruin and red-and-black, whose Buchi values have closed
forms; a uniformly
random strategy; and the HOA text of an automaton, for tests
that hand one to the parser or the CLI.

Branch probabilities are integer weights over a common denominator with the
last branch taking the exact remainder, so every distribution sums to 1.0 in
floating point and downstream mass checks are exact.
"""

import math

from buchirl import DeadEndError, Mdp, Nba, Strategy, build_product

SYMBOLS = ("g", "n")


def mdp_from_rows(states, actions, symbols, initial, rows):
    """An `Mdp` from one (state, action, succ, prob, symbol) row per edge,
    in order; a symbol of None (or -1) is a null label."""
    columns = list(zip(*rows)) or [()] * 5
    columns[4] = [-1 if x is None else x for x in columns[4]]
    return Mdp(tuple(states), tuple(actions), tuple(symbols), initial, *columns)


def edge_rows(m):
    """The edges of `m` as (state, action, succ, prob, symbol) rows, in
    order, with -1 for a null label."""
    columns = (m.state, m.action, m.succ, m.prob, m.symbol)
    return list(zip(*(c.tolist() for c in columns)))


def random_mdp(rng, max_states=6, max_actions=3):
    """A labelled MDP with 2..max_states states and exact distributions.

    Action 0 is available everywhere so no state is action-less; further
    actions appear at random.  Successors of one action are distinct, which
    rules out duplicate (from, action, to) triples by construction.
    """
    n = int(rng.integers(2, max_states + 1))
    n_act = int(rng.integers(1, max_actions + 1))
    states = tuple(f"s{i}" for i in range(n))
    actions = tuple(f"a{i}" for i in range(n_act))
    edges = []
    for s in range(n):
        for act in range(n_act):
            if act > 0 and rng.random() < 0.35:
                continue
            k = int(rng.integers(1, min(3, n) + 1))
            succs = [int(t) for t in rng.choice(n, size=k, replace=False)]
            weights = [int(w) for w in rng.integers(1, 5, size=k)]
            total = sum(weights)
            probs = [w / total for w in weights]
            probs[-1] = 1.0 - math.fsum(probs[:-1])
            for t, pr in zip(succs, probs):
                sym = int(rng.integers(len(SYMBOLS)))
                edges.append((s, act, t, pr, sym))
    return mdp_from_rows(states, actions, SYMBOLS, 0, edges)


def random_det_automaton(rng, max_states=3, accept_prob=0.4):
    """Deterministic complete automaton over SYMBOLS, random accepting marks."""
    n = int(rng.integers(1, max_states + 1))
    trans = []
    accepting = set()
    for q in range(n):
        for s in range(len(SYMBOLS)):
            r = int(rng.integers(n))
            if rng.random() < accept_prob:
                accepting.add(len(trans))
            trans.append((q, s, r))
    return Nba(SYMBOLS, n, 0, tuple(trans), frozenset(accepting), None)


def random_nondet_automaton(rng, max_states=3, accept_prob=0.3):
    """Nondeterministic automaton: one move per symbol plus random extras.

    Complete by construction (the base move is always there), so it can feed
    the product as well as the lasso-acceptance tests.
    """
    a = random_det_automaton(rng, max_states, accept_prob)
    trans = list(a.transitions)
    accepting = set(a.accepting)
    present = set(trans)
    for _ in range(int(rng.integers(0, 2 * a.n_states + 1))):
        cand = (
            int(rng.integers(a.n_states)),
            int(rng.integers(len(SYMBOLS))),
            int(rng.integers(a.n_states)),
        )
        if cand in present:
            continue
        present.add(cand)
        if rng.random() < accept_prob:
            accepting.add(len(trans))
        trans.append(cand)
    return Nba(SYMBOLS, a.n_states, 0, tuple(trans), frozenset(accepting), None)


def random_instance(rng, max_states=6, max_actions=3, max_aut=3, nondet=False):
    """(mdp, automaton, product) with a deterministic automaton, or with a
    nondeterministic one when `nondet`, whose states give an action one pair
    per automaton successor.

    Dead ends can happen when an action's branches emit symbols the automaton
    maps to different successors; such draws are discarded and retried.
    """
    while True:
        m = random_mdp(rng, max_states, max_actions)
        a = (random_nondet_automaton if nondet else random_det_automaton)(rng, max_aut)
        try:
            return m, a, build_product(m, a)
        except DeadEndError:
            continue


def branchy_mdp(rng, n=13):
    """A two-action MDP on n states whose actions have 1 to n - 1 branches
    to distinct successors, with one symbol per action, so every product
    keeps every pair and its pairs have 1 to n - 1 branches."""
    rows = []
    for s in range(n):
        for act in range(2):
            succs = rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist()
            weights = rng.integers(1, 9, size=len(succs))
            probs = (weights / weights.sum()).tolist()
            probs[-1] = 1.0 - math.fsum(probs[:-1])
            sym = int(rng.integers(len(SYMBOLS)))
            rows += [(s, act, t, pr, sym) for t, pr in zip(succs, probs)]
    return mdp_from_rows(tuple(f"s{i}" for i in range(n)), ("a", "b"), SYMBOLS, 0, rows)


def random_strategy(p, rng) -> Strategy:
    """A uniform pair per state, in state order, from one `rng.integers` call."""
    return Strategy(tuple(rng.integers(p.pair_count).tolist()))


def small_instance(rng, max_product_states=5):
    """Instance whose reachable product has at most max_product_states states.

    Sized for the brute-force strategy enumeration: few actions and automaton
    states keep the pair counts per state low.
    """
    while True:
        m, a, p = random_instance(rng, max_states=3, max_actions=2, max_aut=2)
        if p.n_states <= max_product_states:
            return m, a, p


def large_instance(rng, n_states=300):
    """(mdp, automaton, product) with about 2 * n_states product states.

    Every (state, action) emits one letter, so the deterministic automaton
    for GF g (q1 after a g, q0 after an n, every g move accepting) never
    drops a pair.  States s0 .. s(n-1) have two actions with 2-3 random
    successors each.  Action 0 always includes the next state, so all are
    reachable; at about 30% of the states action 1 risks the rejecting sink,
    so values vary between states.
    """
    names = tuple(f"s{i}" for i in range(n_states)) + ("sink",)
    sink = n_states
    edges = [(sink, 0, sink, 1.0, 1)]
    for s in range(n_states):
        for act in (0, 1):
            k = int(rng.integers(2, 4))
            succs = [int(t) for t in rng.choice(n_states, size=k, replace=False)]
            if act == 0 and (s + 1) % n_states not in succs:
                succs[0] = (s + 1) % n_states
            if act == 1 and rng.random() < 0.3:
                succs[0] = sink
            weights = [int(w) for w in rng.integers(1, 5, size=k)]
            probs = [w / sum(weights) for w in weights]
            probs[-1] = 1.0 - math.fsum(probs[:-1])
            sym = int(rng.integers(len(SYMBOLS)))
            edges += [(s, act, t, pr, sym) for t, pr in zip(succs, probs)]
    m = mdp_from_rows(names, ("a0", "a1"), SYMBOLS, 0, edges)
    a = Nba(SYMBOLS, 2, 0, ((0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0)), frozenset({0, 2}))
    return m, a, build_product(m, a)


def gamblers_ruin(rng, n, win):
    """Gambler's ruin on capitals 0..n as an MDP, starting at n // 2.

    One action bets a stake of 1: the capital goes up with probability
    `win` and down with probability 1 - win, emitting n either way.  The
    goal n has a g-loop and ruin 0 an n-loop, so with `accept_g.hoa` the
    Buchi value is the probability of reaching n.  State "c{i}" holds
    capital i; the seed shuffles the order of the states and of each
    state's two branches, and so the product's numbering.
    """
    g, nn = SYMBOLS.index("g"), SYMBOLS.index("n")
    order = [int(i) for i in rng.permutation(n + 1)]
    at = {c: k for k, c in enumerate(order)}  # state index of capital c
    edges = []
    for c in order:
        if c in (0, n):
            edges.append((at[c], 0, at[c], 1.0, g if c == n else nn))
            continue
        branches = [(at[c + 1], win), (at[c - 1], 1.0 - win)]
        if rng.random() < 0.5:
            branches.reverse()
        edges += [(at[c], 0, t, pr, nn) for t, pr in branches]
    return mdp_from_rows(tuple(f"c{c}" for c in order), ("bet",), SYMBOLS, at[n // 2], edges)


def red_and_black(rng, n, win):
    """Red-and-black on capitals 0..n as an MDP, starting at 23n // 64.

    At capital i, action "b{k}" bets a stake of k, for k from 1 to
    min(i, n - i): the capital goes up by k with probability `win` and down
    by k with probability 1 - win, emitting n either way.  The goal n has a
    g-loop and ruin 0 an n-loop, so with `accept_g.hoa` the Buchi value is
    the best probability of reaching n, which bold play attains for
    win < 1/2.  State "c{i}" holds capital i; the seed shuffles the order
    of the states and of each bet's two branches, like `gamblers_ruin`.
    """
    g, nn = SYMBOLS.index("g"), SYMBOLS.index("n")
    order = [int(i) for i in rng.permutation(n + 1)]
    at = {c: k for k, c in enumerate(order)}  # state index of capital c
    edges = []
    for c in order:
        if c in (0, n):
            edges.append((at[c], 0, at[c], 1.0, g if c == n else nn))
            continue
        for stake in range(1, min(c, n - c) + 1):
            branches = [(at[c + stake], win), (at[c - stake], 1.0 - win)]
            if rng.random() < 0.5:
                branches.reverse()
            edges += [(at[c], stake - 1, t, pr, nn) for t, pr in branches]
    actions = tuple(f"b{k}" for k in range(1, n // 2 + 1))
    return mdp_from_rows(tuple(f"c{c}" for c in order), actions, SYMBOLS, at[23 * n // 64], edges)


def many_mecs(rng, n):
    """A chain s0 .. s(n-1) of one-state end components.

    Each state has a self-loop action and an action that moves on to the
    next state; the last state's moves back onto itself.  The seed draws
    the symbol of every edge and which of actions a and b is the loop, so
    the loop is pair 0 at some states and pair 1 at others.  With
    `accept_g.hoa` each state with a g-loop is an accepting end component of
    its own, about half of them.
    """
    rows = []
    for s in range(n):
        loop = int(rng.integers(2))
        sym_loop, sym_on = (int(x) for x in rng.integers(len(SYMBOLS), size=2))
        rows += [(s, loop, s, 1.0, sym_loop), (s, 1 - loop, min(s + 1, n - 1), 1.0, sym_on)]
    return mdp_from_rows(tuple(f"s{i}" for i in range(n)), ("a", "b"), SYMBOLS, 0, rows)


def serialize_hoa(a: Nba) -> str:
    """Canonical text form: states in index order, one symbol per edge line.

    ``parse_hoa(serialize_hoa(a)) == a`` whenever the transitions of `a` are
    grouped by source state, which holds for every parsed automaton.
    """
    out = [
        "HOA: v1",
        f"States: {a.n_states}",
        f"Start: {a.initial}",
        "AP: " + " ".join([str(len(a.symbols))] + [f'"{s}"' for s in a.symbols]),
        "acc-name: Buchi",
        "Acceptance: 1 Inf(0)",
    ]
    if a.gfm is not None:
        out.append(f"GFM: {'true' if a.gfm else 'false'}")
    out.append("--BODY--")
    by_src: list[list[int]] = [[] for _ in range(a.n_states)]
    for i, (q, _, _) in enumerate(a.transitions):
        by_src[q].append(i)
    for q in range(a.n_states):
        out.append(f"State: {q}")
        for i in by_src[q]:
            _, s, r = a.transitions[i]
            mark = " {0}" if i in a.accepting else ""
            out.append(f"[{s}] {r}{mark}")
    out.append("--END--")
    return "\n".join(out) + "\n"
