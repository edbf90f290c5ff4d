"""Cross-view verification reports and the bias threshold sweep."""

import numpy as np
import pytest

import buchirl.verify
from buchirl import (
    Mode,
    PayoffSpec,
    Strategy,
    augment,
    build_product,
    evaluate_policies,
    load_mdp,
    parse_hoa,
    solve_optimal,
    tail_check,
    threshold_sweep,
    verify_instance,
)

from generators import random_instance, random_strategy

GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))


def test_verify_i2_defaults(i2, accept_g):
    rep = verify_instance(i2, accept_g)
    assert rep.passed
    assert rep.zetas == (0.5, 0.9)
    assert rep.policies_per_zeta == 22
    assert rep.checked == 44
    assert rep.identity_max_error <= 1e-8
    assert rep.equality_max_error <= 1e-12
    assert rep.bound_max_excess <= 1e-9
    assert rep.prob1_mismatches == 0
    assert rep.tails == ()
    assert not rep.lower_bound_only


def test_verify_self_loop(corpus, accept_g):
    m = load_mdp(corpus / "mdp" / "self_loop.json")
    rep = verify_instance(m, accept_g, zetas=(0.5, 0.9, 0.99))
    # ETotal sits exactly at the cap and the oracle reports probability 1,
    # so the prob-1 equivalence is exercised on its satisfied side
    assert rep.passed
    assert rep.prob1_mismatches == 0


def test_verify_with_tails(i2, accept_g):
    rep = verify_instance(i2, accept_g, zetas=(0.9,), n_random=3, tail_episodes=2000)
    assert len(rep.tails) == 1
    t = rep.tails[0]
    assert t.zeta == 0.9
    assert t.episodes == 2000
    assert t.n_values == (5, 10, 20)
    assert t.bound == (0.9**5, 0.9**10, 0.9**20)
    assert t.ok and rep.passed
    for e, b, s in zip(t.empirical, t.bound, t.stderr):
        assert e <= b + 3.0 * s


def test_verify_tail_reuses_the_total_view(i2, accept_g, monkeypatch):
    calls = []

    def counted(p, spec):
        calls.append(spec.mode)
        return augment(p, spec)

    monkeypatch.setattr(buchirl.verify, "augment", counted)
    rep = verify_instance(i2, accept_g, zetas=(0.9,), n_random=3, tail_episodes=2000, seed=5)
    monkeypatch.undo()
    assert sorted(m.value for m in calls) == sorted(m.value for m in Mode)  # one per view
    # the same check on a total view built here
    p = build_product(i2, accept_g)
    total = augment(p, PayoffSpec(Mode.TOTAL_REWARD, 0.9))
    f = solve_optimal(total).policy
    assert rep.tails == (tail_check(total, f, 2000, seed=5),)


def test_verify_biased_solve_starts_from_total_optimum(i2, accept_g, monkeypatch):
    # among tied optima the biased solve reports the total view's one, so
    # the optimal-value equality compares one policy's values in two views
    calls, results = [], []

    def spy(model, start=None):
        calls.append((model.mode, start))
        results.append(solve_optimal(model, start))
        return results[-1]

    monkeypatch.setattr(buchirl.verify, "solve_optimal", spy)
    verify_instance(i2, accept_g, zetas=(0.5, 0.9), n_random=0)
    for k in (0, 3):
        assert [mode for mode, _ in calls[k : k + 3]] == [
            Mode.REACH_TARGET, Mode.TOTAL_REWARD, Mode.BIASED_DISCOUNT
        ]
        assert calls[k][1] is None and calls[k + 1][1] is None
        assert calls[k + 2][1] == results[k + 1].policy == results[k + 2].policy


def test_verify_reads_the_solved_strategies_values(corpus_pairs, monkeypatch):
    # a solve's last round evaluated the strategy it returns, so verify
    # evaluates each distinct pool strategy once in every view but the ones
    # whose solve returned it, in one batched call per view per zeta
    solves, evals = [], []

    def spy_solve(model, start=None):
        solves.append(solve_optimal(model, start))
        return solves[-1]

    def spy_evaluate(model, choices):
        evals.append((model.mode, model.zeta, [tuple(row) for row in np.asarray(choices).tolist()]))
        return evaluate_policies(model, choices)

    monkeypatch.setattr(buchirl.verify, "solve_optimal", spy_solve)
    monkeypatch.setattr(buchirl.verify, "evaluate_policies", spy_evaluate)
    for m, a in corpus_pairs:
        for n_random in (0, 3):
            solves.clear()
            evals.clear()
            assert verify_instance(m, a, n_random=n_random, seed=2).passed
            p, rng = build_product(m, a), np.random.default_rng(2)
            want = []
            for k, zeta in enumerate((0.5, 0.9)):
                v_reach, v_total, v_biased = solves[3 * k : 3 * k + 3]
                pool = {v_total.policy, v_reach.policy}
                pool |= {random_strategy(p, rng) for _ in range(n_random)}
                for mode, v in zip(Mode, (v_reach, v_total, v_biased)):
                    want.append((mode, zeta, {f.choice for f in pool if f != v.policy}))
            assert [(mode, zeta, set(rows)) for mode, zeta, rows in evals] == want
            assert all(len(set(rows)) == len(rows) for _, _, rows in evals)


def test_verify_nondet_keeps_caveat(i2, corpus):
    a = parse_hoa((corpus / "hoa" / "nondet_g.hoa").read_text())
    rep = verify_instance(i2, a, n_random=5)
    assert rep.lower_bound_only
    # the identities relate reward views of the same product, so they hold
    # regardless of whether the product underestimates the raw objective
    assert rep.passed


def test_tail_check_direct(self_loop_product):
    total = augment(self_loop_product, PayoffSpec(Mode.TOTAL_REWARD, 0.9))
    t = tail_check(total, Strategy((0,)), 3000, n_values=(1, 3))
    assert t.ok
    # surviving one accepting step has probability exactly zeta; the bound
    # is tight there, so the empirical rate sits within noise of 0.9
    assert abs(t.empirical[0] - 0.9) <= 3.0 * t.stderr[0] + 1e-12
    assert t.bound == (0.9, 0.9**3)
    for mode in (Mode.REACH_TARGET, Mode.BIASED_DISCOUNT):
        with pytest.raises(ValueError, match="total view"):
            tail_check(augment(self_loop_product, PayoffSpec(mode, 0.9)), Strategy((0,)), 10)
    with pytest.raises(ValueError, match="episodes"):
        tail_check(total, Strategy((0,)), 0)


def test_tail_check_never(never_product):
    total = augment(never_product, PayoffSpec(Mode.TOTAL_REWARD, 0.5))
    t = tail_check(total, Strategy((0,)), 500, n_values=(1, 2))
    assert t.empirical == (0.0, 0.0)
    assert t.ok


def test_threshold_sweep_i2(i2, accept_g):
    rep = threshold_sweep(i2, accept_g, GRID)
    assert rep.grid == GRID
    assert rep.empirical_zeta0 == 0.6
    for row in rep.rows:
        assert abs(row.psat_opt - 0.5) <= 1e-12
        if row.zeta <= 0.5:
            # the myopic regime cashes in immediately and forfeits sA
            assert row.policy == "b@q0;a@q0;a@q0"
            assert row.psat_policy == 0.0
            assert not row.is_optimal
        else:
            assert row.policy == "a@q0;a@q0;a@q0"
            assert abs(row.psat_policy - 0.5) <= 1e-12
            assert row.is_optimal


def test_threshold_sweep_warm_starts(i2, accept_g, monkeypatch):
    # each grid point's policy iteration starts from the previous point's policy
    starts, results = [], []

    def spy(model, start=None):
        starts.append(start)
        results.append(solve_optimal(model, start))
        return results[-1]

    monkeypatch.setattr(buchirl.verify, "solve_optimal", spy)
    rep = threshold_sweep(i2, accept_g, (0.4, 0.5, 0.6, 0.9))
    assert starts == [None] + [v.policy for v in results[:-1]]
    assert [v.iterations for v in results] == [1, 1, 2, 1]
    assert rep.empirical_zeta0 == 0.6


def test_threshold_sweep_rejects_unordered_grid(i2, accept_g):
    # empirical_zeta0 reads the rows from the end, so it needs an ascending grid
    for grid in ((0.6, 0.5), (0.6, 0.6, 0.5, 0.9), (0.5, 0.5)):
        with pytest.raises(ValueError, match="strictly increasing"):
            threshold_sweep(i2, accept_g, grid)
    assert threshold_sweep(i2, accept_g, (0.5, 0.6)).empirical_zeta0 == 0.6


def test_threshold_sweep_rejects_empty_grid(i2, accept_g):
    # with no point, None would claim the policy is not optimal at the last one
    with pytest.raises(ValueError, match="grid"):
        threshold_sweep(i2, accept_g, ())


def test_threshold_sweep_trivial_instances(corpus, accept_g):
    m = load_mdp(corpus / "mdp" / "self_loop.json")
    rep = threshold_sweep(m, accept_g, GRID)
    assert rep.empirical_zeta0 == 0.1
    assert all(row.is_optimal and row.psat_opt == 1.0 for row in rep.rows)

    m = load_mdp(corpus / "mdp" / "never.json")
    rep = threshold_sweep(m, accept_g, GRID)
    # nothing is satisfiable, so every policy is vacuously optimal
    assert rep.empirical_zeta0 == 0.1
    assert all(row.psat_opt == 0.0 and row.is_optimal for row in rep.rows)


def test_threshold_exists_on_random_instances():
    # pushing the bias toward 1 eventually makes the optimal total-reward
    # policy optimal for the underlying objective; the sweep should find a
    # working zeta within this grid on every instance
    rng = np.random.default_rng(41)
    grid = (0.5, 0.9, 0.99, 0.999)
    for _ in range(12):
        m, a, _ = random_instance(rng)
        rep = threshold_sweep(m, a, grid)
        assert rep.rows[-1].is_optimal
        assert rep.empirical_zeta0 is not None


def test_verify_random_instances():
    rng = np.random.default_rng(42)
    for k in range(8):
        m, a, _ = random_instance(rng)
        rep = verify_instance(m, a, zetas=(0.5, 0.8), n_random=5, seed=k)
        assert rep.passed
        assert rep.checked == 14


def test_verify_rejects_empty_zetas(i2, accept_g):
    # with no bias there is nothing to check, and passed would be vacuous
    with pytest.raises(ValueError, match="zetas"):
        verify_instance(i2, accept_g, zetas=())


def test_verify_rejects_negative_counts(i2, accept_g):
    # n_random=-1 would check 2 policies per zeta yet report 1
    for name in ("n_random", "tail_episodes"):
        with pytest.raises(ValueError, match=name):
            verify_instance(i2, accept_g, zetas=(0.9,), **{name: -1})
    assert verify_instance(i2, accept_g, zetas=(0.9,), n_random=0).checked == 2
