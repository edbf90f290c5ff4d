"""End components and Buchi values against hand cases and exhaustive search."""

import numpy as np
import pytest

from buchirl import (
    DeadEndError,
    Edge,
    Mdp,
    Mode,
    Nba,
    PayoffSpec,
    Strategy,
    augment,
    build_product,
    buchi_value,
    complete_with_trap,
    greedy_policy,
    load_mdp,
    mec_decomposition,
    parse_hoa,
    policy_buchi_probability,
    random_strategy,
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
    large_instance,
    random_det_automaton,
    random_instance,
    random_mdp,
    random_nondet_automaton,
    small_instance,
)

GN = ("g", "n")


def test_self_loop_mec(self_loop_product):
    (ec,) = mec_decomposition(self_loop_product)
    assert ec.states == (0,)
    assert ec.accepting
    assert ec.retained_at(0) == (0,)


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
            acc = any(
                br.accepting
                for st, kept in zip(ec.states, ec.retained)
                for k in kept
                for br in p.pairs[st][k].branches
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
    m = Mdp(
        ("sR", "s0", "sA"),
        ("a", "b"),
        GN,
        1,
        (
            Edge(1, 0, 2, 0.5, 1),
            Edge(1, 0, 0, 0.5, 1),
            Edge(1, 1, 0, 1.0, 0),
            Edge(2, 0, 2, 1.0, 0),
            Edge(0, 0, 0, 1.0, 1),
        ),
    )
    res = buchi_value(build_product(m, accept_g))
    assert abs(res.at_initial() - 0.5) <= 1e-12
    assert len(res.accepting_mecs) == 1


def test_strategy_switches_on_margin_to_lowest_index(accept_g):
    # s0 plays a, b or c; sA is the accepting loop, sR the rejecting sink
    loops = (Edge(1, 0, 1, 1.0, 0), Edge(2, 0, 2, 1.0, 1))
    names, acts = ("s0", "sA", "sR"), ("a", "b", "c")
    # a reaches sA surely, but its evaluation rounds to just below 1, where
    # b is worth exactly 1: a gap below the margin keeps a
    slow = (Edge(0, 0, 1, 0.05, 1), Edge(0, 0, 0, 0.95, 1), Edge(0, 1, 1, 1.0, 1))
    # a loses; b and c both reach sA surely, so b, the lower index, wins
    tie = (Edge(0, 0, 2, 1.0, 1), Edge(0, 1, 1, 1.0, 1), Edge(0, 2, 1, 1.0, 1))
    for edges, acts, want in ((slow, acts[:2], 0), (tie, acts, 1)):
        res = buchi_value(build_product(Mdp(names, acts, GN, 0, edges + loops), accept_g))
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


def test_oracle_matches_reference(corpus):
    # the column oracle against its former tuple walk, bit for bit: values,
    # strategy, components with their retained pairs, policy satisfaction
    products = []
    for mdp in sorted((corpus / "mdp").glob("*.json")):
        for hoa in sorted((corpus / "hoa").glob("*.hoa")):
            a = parse_hoa(hoa.read_text())
            a = complete_with_trap(a) if hoa.stem == "incomplete_g" else a
            products.append(build_product(load_mdp(mdp), a))
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
    assert len(products) == 12 + 40 + 1
    for p in products:
        total = augment(p, PayoffSpec(Mode.TOTAL_REWARD, 0.9))
        pool = [greedy_policy(total, solve_optimal(total).values)]
        pool += [random_strategy(p, rng) for _ in range(5)]
        want, want_sat = oracle_reference(p, pool)
        got = buchi_value(p)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.strategy == want.strategy
        # repr also tells Python ints and bools from numpy scalars
        assert repr(got.mecs) == repr(want.mecs)
        assert repr(mec_decomposition(p)) == repr(want.mecs)
        assert got.accepting_mecs == want.accepting_mecs
        assert got.lower_bound_only == want.lower_bound_only
        for f, sat in zip(pool, want_sat):
            assert policy_buchi_probability(p, f).tobytes() == sat.tobytes()
