"""End components and Buchi values against hand cases, exhaustive search
and closed forms."""

import math
from fractions import Fraction

import numpy as np
import pytest

from buchirl import (
    DeadEndError,
    Mode,
    Nba,
    PayoffSpec,
    Strategy,
    augment,
    build_product,
    buchi_value,
    evaluate_policy,
    mec_decomposition,
    parse_hoa,
    policy_buchi_probability,
    simulate_batch,
    solve_optimal,
)

from bruteforce import (
    all_end_components,
    all_strategies,
    buchi_value_bruteforce,
    is_end_component,
    oracle_reference,
    policy_sat_bruteforce,
)
from generators import (
    gamblers_ruin,
    large_instance,
    many_mecs,
    mdp_from_rows,
    random_det_automaton,
    random_instance,
    random_mdp,
    random_nondet_automaton,
    random_strategy,
    red_and_black,
    small_instance,
)

GN = ("g", "n")


def test_self_loop_mec(self_loop_product):
    (ec,) = mec_decomposition(self_loop_product)
    assert ec.states == (0,)
    assert ec.accepting


def test_never_mec(never_product):
    (ec,) = mec_decomposition(never_product)
    assert ec.states == (0,)
    assert not ec.accepting


def test_i2_mecs(i2_product):
    mecs = mec_decomposition(i2_product)
    assert [(ec.states, ec.accepting) for ec in mecs] == [
        ((1,), True),
        ((2,), False),
    ]
    # s0 belongs to none: both of its actions can leave it


def test_mecs_against_bruteforce():
    rng = np.random.default_rng(31)
    for _ in range(30):
        _, _, p = small_instance(rng)
        mecs = mec_decomposition(p)
        seen = set()
        for ec in mecs:
            members = frozenset(ec.states)
            assert is_end_component(p, members)
            assert not members & seen  # pairwise disjoint
            seen |= members
            # a member's pairs in the component are those that stay inside it
            acc = any(
                br.accepting
                for st in ec.states
                for pair in p.pairs[st]
                if all(b.succ in members for b in pair.branches)
                for br in pair.branches
            )
            assert ec.accepting == acc
        # maximality: every end component sits inside some mec
        for sub in all_end_components(p):
            assert any(sub <= frozenset(ec.states) for ec in mecs)
        # ordering is deterministic
        mins = [min(ec.states) for ec in mecs]
        assert mins == sorted(mins)


def test_buchi_value_self_loop(self_loop_product):
    res = buchi_value(self_loop_product)
    assert res.at_initial() == 1.0
    assert res.accepting_mecs == (0,)
    assert not res.lower_bound_only


def test_buchi_value_never(never_product):
    res = buchi_value(never_product)
    assert res.at_initial() == 0.0
    assert res.accepting_mecs == ()
    assert np.array_equal(res.values, np.zeros(1))


def test_buchi_value_i2(i2_product):
    res = buchi_value(i2_product)
    assert np.allclose(res.values, [0.5, 1.0, 0.0], atol=1e-12)
    assert res.strategy.choice[0] == 0  # a gambles on sA, b forfeits
    assert res.accepting_mecs == (0,)


def test_buchi_value_against_bruteforce():
    rng = np.random.default_rng(32)
    for _ in range(40):
        _, _, p = small_instance(rng)
        res = buchi_value(p)
        want = buchi_value_bruteforce(p)
        assert np.max(np.abs(res.values - want)) <= 1e-10


def test_returned_strategy_realizes_value():
    rng = np.random.default_rng(33)
    for _ in range(30):
        _, _, p = small_instance(rng)
        res = buchi_value(p)
        sat = policy_buchi_probability(p, res.strategy)
        assert np.max(np.abs(sat - res.values)) <= 1e-9


def test_policy_probability_i2(i2_product):
    sat_a = policy_buchi_probability(i2_product, Strategy((0, 0, 0)))
    assert np.allclose(sat_a, [0.5, 1.0, 0.0], atol=1e-12)
    sat_b = policy_buchi_probability(i2_product, Strategy((1, 0, 0)))
    assert np.allclose(sat_b, [0.0, 1.0, 0.0], atol=1e-12)


def test_policy_probability_against_bruteforce():
    rng = np.random.default_rng(34)
    for _ in range(25):
        _, _, p = small_instance(rng)
        for choice in all_strategies(p):
            got = policy_buchi_probability(p, Strategy(choice))
            want = policy_sat_bruteforce(p, choice)
            assert np.max(np.abs(got - want)) <= 1e-10


def test_policy_probability_checks_strategy(i2_product):
    with pytest.raises(ValueError):
        policy_buchi_probability(i2_product, Strategy((0, 0)))


def test_value_invariant_under_state_renaming(accept_g):
    # same mdp as i2 with the state list rotated; only names move
    m = mdp_from_rows(
        ("sR", "s0", "sA"),
        ("a", "b"),
        GN,
        1,
        (
            (1, 0, 2, 0.5, 1),
            (1, 0, 0, 0.5, 1),
            (1, 1, 0, 1.0, 0),
            (2, 0, 2, 1.0, 0),
            (0, 0, 0, 1.0, 1),
        ),
    )
    res = buchi_value(build_product(m, accept_g))
    assert abs(res.at_initial() - 0.5) <= 1e-12
    assert len(res.accepting_mecs) == 1


def test_strategy_switches_on_margin_to_lowest_index(accept_g):
    # s0 plays a, b or c; sA is the accepting loop, sR the rejecting sink
    loops = ((1, 0, 1, 1.0, 0), (2, 0, 2, 1.0, 1))
    names, acts = ("s0", "sA", "sR"), ("a", "b", "c")
    # a reaches sA surely, but its evaluation rounds to just below 1, where
    # b is worth exactly 1: a gap below the margin keeps a
    slow = ((0, 0, 1, 0.05, 1), (0, 0, 0, 0.95, 1), (0, 1, 1, 1.0, 1))
    # a loses; b and c both reach sA surely, so b, the lower index, wins
    tie = ((0, 0, 2, 1.0, 1), (0, 1, 1, 1.0, 1), (0, 2, 1, 1.0, 1))
    for edges, acts, want in ((slow, acts[:2], 0), (tie, acts, 1)):
        res = buchi_value(build_product(mdp_from_rows(names, acts, GN, 0, edges + loops), accept_g))
        assert res.strategy.choice[0] == want
        assert abs(res.at_initial() - 1.0) <= 1e-12


def test_unreachable_automaton_state_is_dropped(i2):
    # q1 is disconnected; the product equals the one-state automaton's
    a = Nba(
        GN,
        2,
        0,
        ((0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1)),
        frozenset({0}),
        gfm=True,
    )
    p = build_product(i2, a)
    assert p.n_states == 3
    assert abs(buchi_value(p).at_initial() - 0.5) <= 1e-12


def test_lower_bound_caveat(i2, corpus):
    nondet = parse_hoa((corpus / "hoa" / "nondet_g.hoa").read_text())
    assert buchi_value(build_product(i2, nondet)).lower_bound_only
    det = parse_hoa((corpus / "hoa" / "inf_gn.hoa").read_text())
    assert not buchi_value(build_product(i2, det)).lower_bound_only


def test_values_are_probabilities():
    rng = np.random.default_rng(35)
    for _ in range(20):
        _, _, p = random_instance(rng)
        res = buchi_value(p)
        assert np.all(res.values >= 0.0)
        assert np.all(res.values <= 1.0 + 1e-12)
        res.strategy.check(p)


def test_oracle_matches_reference(accept_g, corpus_products):
    # the column oracle against its former tuple walk, which solved every
    # live state densely: strategy and components exactly; values and policy
    # satisfaction within 1e-15, with the 0/1 sets exact, since the graph
    # search now settles states the walk's LU left a few ulps off 1
    products = list(corpus_products)
    rng = np.random.default_rng(16)
    for make_automaton in (random_det_automaton, random_nondet_automaton):
        built = 0
        while built < 20:
            try:
                products.append(build_product(random_mdp(rng), make_automaton(rng)))
            except DeadEndError:
                continue
            built += 1
    products.append(large_instance(np.random.default_rng(1))[2])
    # hundreds of one-state components, accepting or not, side by side
    products += [build_product(many_mecs(np.random.default_rng(n), n), accept_g) for n in (300, 301)]
    assert len(products) == 12 + 40 + 1 + 2
    for p in products:
        total = augment(p, PayoffSpec(Mode.TOTAL_REWARD, 0.9))
        pool = [solve_optimal(total).policy]
        pool += [random_strategy(p, rng) for _ in range(5)]
        want, want_sat = oracle_reference(p, pool)
        got = buchi_value(p)
        _assert_rounding_apart(got.values, want.values)
        assert got.strategy == want.strategy
        # repr also tells Python ints and bools from numpy scalars
        assert repr(got.mecs) == repr(want.mecs)
        assert repr(mec_decomposition(p)) == repr(want.mecs)
        assert got.accepting_mecs == want.accepting_mecs
        assert got.lower_bound_only == want.lower_bound_only
        for f, sat in zip(pool, want_sat):
            _assert_rounding_apart(policy_buchi_probability(p, f), sat)


def _assert_rounding_apart(got, want):
    assert np.max(np.abs(got - want)) <= 1e-15
    assert np.array_equal(got == 1.0, want >= 1.0 - 1e-12)
    assert np.array_equal(got == 0.0, want <= 1e-12)


def test_sure_states_need_no_solve(monkeypatch):
    # the optimal policy's chain and every max-reach evaluation of this product are
    # settled by the graph searches alone, so no linear system is built
    _, _, p = large_instance(np.random.default_rng(1))
    total = augment(p, PayoffSpec(Mode.TOTAL_REWARD, 0.9))
    f = solve_optimal(total).policy
    sizes = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: sizes.append(len(b)) or solve(a, b))
    for values in (policy_buchi_probability(p, f), buchi_value(p).values):
        assert np.all((values == 0.0) | (values == 1.0))
    assert sizes == []


def _chain_product(accept_g, edges):
    """The product of a one-action chain (states named by index) and GF g."""
    n = 1 + max(e[0] for e in edges)
    m = mdp_from_rows(tuple(f"s{i}" for i in range(n)), ("a",), GN, 0, edges)
    p = build_product(m, accept_g)
    return p, Strategy((0,) * p.n_states)


def test_sure_state_behind_a_long_chain_is_exactly_one(accept_g):
    # s0 is truly undecided: a quarter each into the winning loop s1 and the
    # chain head s3, half into the losing loop s2.  The chain s3..s10 steps
    # on with 0.1 and falls back to s3 with 0.9, so it reaches s1 surely,
    # but only once in 1e8 tries: a solve would leave it some ulps off 1
    chain = [(i, 0, i + 1 if i < 10 else 1, 0.1, 1) for i in range(3, 11)]
    chain += [(i, 0, 3, 0.9, 1) for i in range(3, 11)]
    edges = [(0, 0, 1, 0.25, 1), (0, 0, 3, 0.25, 1), (0, 0, 2, 0.5, 1), (1, 0, 1, 1.0, 0), (2, 0, 2, 1.0, 1)]
    p, f = _chain_product(accept_g, edges + chain)
    want = [0.5, 1.0, 0.0] + [1.0] * 8
    for values in (policy_buchi_probability(p, f), buchi_value(p).values):
        assert {p.states[i][0]: x for i, x in enumerate(values.tolist())} == dict(enumerate(want))


def test_state_with_a_path_to_a_doomed_free_state_is_not_sure(accept_g):
    # s0 reaches the winning loop s1, and the transient s3, which can only
    # fall into the losing loop s2: s0 has no branch into a bottom component
    # worth 0, yet it is worth 0.5, not 1
    edges = [(0, 0, 1, 0.5, 1), (0, 0, 3, 0.5, 1), (1, 0, 1, 1.0, 0), (2, 0, 2, 1.0, 1), (3, 0, 2, 1.0, 1)]
    p, f = _chain_product(accept_g, edges)
    values = policy_buchi_probability(p, f)
    assert {p.states[i][0]: x for i, x in enumerate(values.tolist())} == {0: 0.5, 1: 1.0, 2: 0.0, 3: 0.0}


RUIN_TOL = 1e-12  # relative; the dense paths measured at most 7.6e-14 at n = 256


@pytest.mark.parametrize("n", [16, 256])
@pytest.mark.parametrize("win", [0.5, 0.499, 0.4])
def test_gamblers_ruin_matches_closed_form(accept_g, monkeypatch, n, win):
    # every interior capital is worth strictly between 0 and 1, so the
    # oracle's chain solve has n - 1 unknowns; the reference is exact in
    # fractions, from the float probabilities the MDP carries
    m = gamblers_ruin(np.random.default_rng(n), n, win)
    up, down = (Fraction(x) for x in (win, 1.0 - win))
    assert up + down == 1  # so the ratio form below is the exact value
    r, i = down / up, n // 2
    exact = Fraction(i, n) if r == 1 else (r**i - 1) / (r**n - 1)
    p = build_product(m, accept_g)
    assert p.n_states == n + 1
    sizes = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: sizes.append(len(b)) or solve(a, b))
    psat = buchi_value(p).at_initial()
    assert sizes and set(sizes) == {n - 1}
    monkeypatch.undo()
    zeta = 0.9
    total = solve_optimal(augment(p, PayoffSpec(Mode.TOTAL_REWARD, zeta)))
    reach = evaluate_policy(augment(p, PayoffSpec(Mode.REACH_TARGET, zeta)), total.policy)
    sat = policy_buchi_probability(p, total.policy)[0]
    for got in (psat, sat, reach.at_initial(), (1 - zeta) * total.at_initial()):
        assert abs(Fraction(got) - exact) <= RUIN_TOL * exact


def bold_play_value(x, up, down):
    """Bold play's chance of doubling up to 1 from capital x, a dyadic
    fraction: V(x) = up V(2x) for x <= 1/2, and up + down V(2x - 1) above."""
    if x in (0, 1):
        return Fraction(x)
    if x <= Fraction(1, 2):
        return up * bold_play_value(2 * x, up, down)
    return up + down * bold_play_value(2 * x - 1, up, down)


@pytest.mark.parametrize("n", [64, 256])
def test_red_and_black_matches_bold_play(accept_g, n):
    # below even odds bold play is optimal (Dubins & Savage), and many
    # strategies tie with it; the reference is exact in fractions, from the
    # float probabilities the MDP carries
    win = 0.4
    up, down = Fraction(win), Fraction(1.0 - win)
    assert up + down == 1  # so bold play's recursion gives the exact value
    exact = bold_play_value(Fraction(23, 64), up, down)
    p = build_product(red_and_black(np.random.default_rng(n), n, win), accept_g)
    assert p.n_states == n + 1 and p.pair_count.max() == n // 2
    zeta = 0.9
    total = solve_optimal(augment(p, PayoffSpec(Mode.TOTAL_REWARD, zeta)))
    reach = augment(p, PayoffSpec(Mode.REACH_TARGET, zeta))
    sat = policy_buchi_probability(p, total.policy)[0]
    got = (buchi_value(p).at_initial(), sat, evaluate_policy(reach, total.policy).at_initial())
    for x in (*got, (1 - zeta) * total.at_initial()):
        assert abs(Fraction(x) - exact) <= RUIN_TOL * exact
    # the reach view's sampler reaches the target at that rate, run for
    # enough steps that a run still short of it has chance zeta**steps <= 1e-9
    episodes, steps = 20_000, math.ceil(math.log(1e-9) / math.log(zeta))
    _, reached = simulate_batch(reach, total.policy, np.random.default_rng(n), episodes, steps)
    v = float(exact)
    assert abs(reached.mean() - v) <= 5.0 * math.sqrt(v * (1.0 - v) / episodes)
