"""Random instances for the property tests: desk-scale ones, and one size
of a few hundred product states for the sparse policy solver; and the HOA
text of an automaton, for tests that hand one to the parser or the CLI.

Branch probabilities are integer weights over a common denominator with the
last branch taking the exact remainder, so every distribution sums to 1.0 in
floating point and downstream mass checks are exact.
"""

import math

from buchirl import DeadEndError, Edge, Mdp, Nba, build_product

SYMBOLS = ("g", "n")


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
                edges.append(Edge(s, act, t, pr, sym))
    return Mdp(states, actions, SYMBOLS, 0, tuple(edges))


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
    edges = [Edge(sink, 0, sink, 1.0, 1)]
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
            edges += [Edge(s, act, t, pr, sym) for t, pr in zip(succs, probs)]
    m = Mdp(names, ("a0", "a1"), SYMBOLS, 0, tuple(edges))
    a = Nba(SYMBOLS, 2, 0, ((0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0)), frozenset({0, 2}))
    return m, a, build_product(m, a)


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
