"""Product construction, accepting branches and strategies."""

from functools import partial
from itertools import accumulate

import numpy as np
import pytest

from buchirl import (
    AlphabetMismatchError,
    DeadEndError,
    IncompleteAutomatonError,
    Mode,
    Nba,
    PayoffSpec,
    ProductError,
    Strategy,
    augment,
    build_product,
    complete_with_trap,
    is_deterministic,
    load_mdp,
    parse_hoa,
    random_strategy,
    solve_optimal,
)
from buchirl.product import check_choices

from bruteforce import product_reference
from generators import (
    edge_rows,
    large_instance,
    mdp_from_rows,
    random_det_automaton,
    random_instance,
    random_mdp,
    random_nondet_automaton,
)

GN = ("g", "n")


def test_i2_product_shape(i2_product):
    p = i2_product
    # |S| x |Q| = 3 x 1, all reachable; the pairs are a/b at s0 and a elsewhere
    assert p.n_states == 3
    assert [p.state_name(i) for i in range(3)] == ["s0|q0", "sA|q0", "sR|q0"]
    assert p.n_pairs == 4
    assert [p.pair_name(0, k) for k in range(2)] == ["a@q0", "b@q0"]
    assert p.accepting_branch_count == 2
    assert p.initial == 0
    assert not p.gfm_caveat


def test_i2_accepting_branches_are_g(i2_product):
    # exactly the g-labelled branches carry the accepting mark
    g = i2_product.mdp.symbols.index("g")
    for st in range(i2_product.n_states):
        for pair in i2_product.pairs[st]:
            for br in pair.branches:
                assert br.accepting == (br.symbol == g)


def test_accepting_marks_match_automaton(i2_product):
    # independent scan: recompute acceptance from (automaton, symbol) alone
    p = i2_product
    a = p.nba
    marked = {
        (q, s, r)
        for i, (q, s, r) in enumerate(a.transitions)
        if i in a.accepting
    }
    for st in range(p.n_states):
        _, q = p.states[st]
        for pair in p.pairs[st]:
            for br in pair.branches:
                sym = a.symbols.index(p.mdp.symbols[br.symbol])
                _, q2 = p.states[br.succ]
                assert q2 == pair.memory
                assert br.accepting == ((q, sym, q2) in marked)


def test_self_loop_product(self_loop_product):
    p = self_loop_product
    assert p.n_states == 1
    assert p.n_pairs == 1
    assert p.pairs[0][0].branches[0].accepting
    assert p.accepting_branch_count == 1


def test_branch_probabilities_sum(i2_product):
    for st in range(i2_product.n_states):
        for pair in i2_product.pairs[st]:
            assert sum(b.prob for b in pair.branches) == 1.0


def test_alphabet_mismatch():
    m = mdp_from_rows(("s",), ("a",), ("x", "y"), 0, ((0, 0, 0, 1.0, 0),))
    a = Nba(GN, 1, 0, ((0, 0, 0), (0, 1, 0)), frozenset({0}))
    with pytest.raises(AlphabetMismatchError) as exc:
        build_product(m, a)
    assert "x" in str(exc.value)


def test_alphabet_order_irrelevant(i2):
    # same symbol set, different order: the product maps names, not indices
    a = Nba(("n", "g"), 1, 0, ((0, 0, 0), (0, 1, 0)), frozenset({1}))
    p = build_product(i2, a)
    assert p.accepting_branch_count == 2


def test_incomplete_rejected(i2, corpus):
    a = parse_hoa((corpus / "hoa" / "incomplete_g.hoa").read_text())
    with pytest.raises(IncompleteAutomatonError):
        build_product(i2, a)
    # explicit completion unblocks the build
    p = build_product(i2, complete_with_trap(a))
    assert p.n_states == 4  # trap state q1 reached on every n


def test_unlabelled_edge_rejected(accept_g):
    m = mdp_from_rows(("s",), ("a",), GN, 0, ((0, 0, 0, 1.0, None),))
    with pytest.raises(ProductError):
        build_product(m, accept_g)


def dead_end_instance():
    """One action whose branches split symbols the automaton tells apart.

    Action pairs must cover every branch with a single automaton successor,
    so (a, q0) and (a, q1) are both sub-stochastic and s0 ends up pairless.
    """
    m = mdp_from_rows(
        ("s0", "s1", "s2"),
        ("a",),
        GN,
        0,
        (
            (0, 0, 1, 0.5, 0),
            (0, 0, 2, 0.5, 1),
            (1, 0, 1, 1.0, 0),
            (2, 0, 2, 1.0, 1),
        ),
    )
    a = Nba(
        GN,
        2,
        0,
        ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)),
        frozenset({0}),
    )
    return m, a


def test_dead_end_detected():
    m, a = dead_end_instance()
    assert is_deterministic(a)
    with pytest.raises(DeadEndError):
        build_product(m, a)


def test_action_dropped_but_state_survives():
    # same split as the dead end, plus a second action that stays coherent;
    # the state keeps only that one, so a deterministic automaton can shrink
    # the available action set
    m, a = dead_end_instance()
    edges = edge_rows(m) + [(0, 1, 1, 1.0, 0)]
    m2 = mdp_from_rows(m.states, ("a", "b"), GN, 0, edges)
    p = build_product(m2, a)
    st = p.states.index((0, 0))
    assert [pair.action for pair in p.pairs[st]] == [1]


def test_dropped_pair_numbers_no_state():
    # (a, q0) at s0 covers the g branch to s1 but not the n branch, so it is
    # dropped, and s1|q0 must not enter the product through it; with s1
    # itself splitting g and n, numbering it first used to end in a
    # DeadEndError for a state no run can reach
    m, a = dead_end_instance()
    loops = edge_rows(m) + [(0, 1, 0, 1.0, 0)]
    split = loops[:2] + [(1, 0, 1, 0.5, 0), (1, 0, 2, 0.5, 1)] + loops[3:]
    for edges in (loops, split):
        p = build_product(mdp_from_rows(m.states, ("a", "b"), GN, 0, edges), a)
        assert [p.state_name(i) for i in range(p.n_states)] == ["s0|q0"]
        assert p.succ.tolist() == [0]


def test_every_state_is_a_successor():
    rng = np.random.default_rng(15)
    built = 0
    while built < 150:
        make_automaton = random_det_automaton if built % 2 else random_nondet_automaton
        try:
            p = build_product(random_mdp(rng), make_automaton(rng))
        except DeadEndError:
            continue
        assert set(p.succ.tolist()) | {p.initial} == set(range(p.n_states))
        built += 1


def test_deterministic_at_most_one_pair_per_action():
    rng = np.random.default_rng(3)
    for _ in range(25):
        _, a, p = random_instance(rng)
        for st in range(p.n_states):
            actions = [pair.action for pair in p.pairs[st]]
            assert len(actions) == len(set(actions))


def test_gfm_caveat_flag(i2, corpus):
    nondet = parse_hoa((corpus / "hoa" / "nondet_g.hoa").read_text())
    p = build_product(i2, nondet)
    assert p.gfm_caveat
    import dataclasses

    asserted = dataclasses.replace(nondet, gfm=True)
    assert not build_product(i2, asserted).gfm_caveat
    deterministic = parse_hoa((corpus / "hoa" / "inf_gn.hoa").read_text())
    assert not build_product(i2, deterministic).gfm_caveat


def test_nondet_product_resolves_choices(i2, corpus):
    nondet = parse_hoa((corpus / "hoa" / "nondet_g.hoa").read_text())
    p = build_product(i2, nondet)
    st = p.states.index((0, 0))
    names = {p.pair_name(st, k) for k in range(len(p.pairs[st]))}
    # reading g at q0 may move to q0 or q1; both resolutions are actions
    assert names == {"a@q0", "b@q0", "b@q1"}


def test_strategy_check(i2_product):
    Strategy((0, 0, 0)).check(i2_product)
    Strategy((1, 0, 0)).check(i2_product)
    with pytest.raises(ValueError, match="^strategy length does not match the product$"):
        Strategy((0, 0)).check(i2_product)
    with pytest.raises(ValueError, match="^strategy picks unavailable pair 2 at state 0$"):
        Strategy((2, 0, 0)).check(i2_product)
    # the first bad state is named, and a negative pick is unavailable too
    with pytest.raises(ValueError, match="^strategy picks unavailable pair -1 at state 1$"):
        Strategy((0, -1, 5)).check(i2_product)
    # a pick that is not an int64 integer is not cast to one
    for bad in ((1.7, 0, 0), (0, 2**63, 0)):
        with pytest.raises(ValueError, match="^strategy picks must be int64 integers"):
            Strategy(bad).check(i2_product)
    # in a batch, the first bad row's first bad state
    with pytest.raises(ValueError, match="^strategy picks unavailable pair 1 at state 2$"):
        check_choices(i2_product, np.array([(1, 0, 0), (0, 0, 1), (2, 0, 0)]))
    with pytest.raises(ValueError, match="^strategy length does not match the product$"):
        check_choices(i2_product, np.zeros(3, dtype=np.int64))


def test_random_strategy_valid(i2_product):
    rng = np.random.default_rng(5)
    for _ in range(20):
        random_strategy(i2_product, rng).check(i2_product)


def test_one_call_draws_like_one_call_per_state():
    # random_strategy and verify's pool draw all states in one
    # rng.integers call; they must give the strategies that one call per
    # state gives, and leave the generator where those calls leave it
    rng = np.random.default_rng(64)
    products = [random_instance(rng)[2] for _ in range(12)]
    products.append(large_instance(np.random.default_rng(40))[2])
    counts = np.concatenate([p.pair_count for p in products])
    assert counts.min() == 1 and counts.max() > 1  # one-pair states among others
    for seed, p in enumerate(products):
        per_state, one_call, pool = (np.random.default_rng(seed) for _ in range(3))
        want = [
            tuple(int(per_state.integers(c)) for c in p.pair_count.tolist()) for _ in range(5)
        ]
        assert [random_strategy(p, one_call).choice for _ in range(5)] == want
        assert list(map(tuple, pool.integers(p.pair_count, size=(5, p.n_states)).tolist())) == want
        assert per_state.random() == one_call.random() == pool.random()


def test_unreachable_mdp_states_do_not_change_values(i2, accept_g):
    # reachability restriction is value-invariant at the initial state
    padded = mdp_from_rows(
        i2.states + ("junk",),
        i2.actions,
        i2.symbols,
        i2.initial,
        edge_rows(i2) + [(3, 0, 3, 1.0, 0)],
    )
    spec = PayoffSpec(Mode.TOTAL_REWARD, 0.9)
    v1 = solve_optimal(augment(build_product(i2, accept_g), spec))
    v2 = solve_optimal(augment(build_product(padded, accept_g), spec))
    assert abs(v1.at_initial() - v2.at_initial()) <= 1e-12


def test_pair_and_state_names(i2_product):
    assert i2_product.pair_name(0, 1) == "b@q0"
    with pytest.raises(IndexError):
        i2_product.pair_name(0, 2)  # s0 has two pairs; pair 2 would be sA's first
    assert i2_product.pair_names == ("a@q0", "b@q0", "a@q0", "a@q0")
    assert i2_product.chosen_pair_names((1, 0, 0)) == ["b@q0", "a@q0", "a@q0"]
    assert i2_product.state_name(2) == "sR|q0"
    assert i2_product.states.index((2, 0)) == 2


def reference_columns(pairs):
    """The column layout of `ProductMdp`, read off the reference's tuples."""
    flat = [pair for plist in pairs for pair in plist]
    branches = [b for pair in flat for b in pair.branches]
    return {
        "pair_start": np.array(list(accumulate(map(len, pairs), initial=0)), dtype=np.int64),
        "branch_start": np.array(
            list(accumulate((len(pair.branches) for pair in flat), initial=0)), dtype=np.int64
        ),
        "action": np.array([pair.action for pair in flat], dtype=np.int64),
        "memory": np.array([pair.memory for pair in flat], dtype=np.int64),
        "succ": np.array([b.succ for b in branches], dtype=np.int64),
        "prob": np.array([b.prob for b in branches], dtype=np.float64),
        "symbol": np.array([b.symbol for b in branches], dtype=np.int64),
        "accepting": np.array([b.accepting for b in branches], dtype=bool),
    }


def test_product_columns_match_reference(corpus):
    cases = []
    for mdp in sorted((corpus / "mdp").glob("*.json")):
        for hoa in sorted((corpus / "hoa").glob("*.hoa")):
            a = parse_hoa(hoa.read_text())
            cases.append((load_mdp(mdp), complete_with_trap(a) if hoa.stem == "incomplete_g" else a))
    rng = np.random.default_rng(14)
    # 16-state automata make successor sets whose iteration order is not
    # ascending, so these cases pin that pairs come in ascending q'
    wide_automaton = partial(random_nondet_automaton, max_states=16)
    for make_automaton in (random_det_automaton, random_nondet_automaton, wide_automaton):
        built = 0
        while built < 20:
            m, a = random_mdp(rng), make_automaton(rng)
            try:
                product_reference(m, a)
            except DeadEndError as exc:
                with pytest.raises(DeadEndError) as got:
                    build_product(m, a)
                assert str(got.value) == str(exc)
                continue
            cases.append((m, a))
            built += 1
    assert len(cases) == 12 + 60
    for m, a in cases:
        states, pairs, caveat = product_reference(m, a)
        p = build_product(m, a)
        assert p.states == states and p.gfm_caveat == caveat
        # repr also tells Python ints and bools from numpy scalars
        assert p.pairs == pairs and repr(p.pairs) == repr(pairs)
        for name, want in reference_columns(pairs).items():
            got = getattr(p, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            assert not got.flags.writeable, name
