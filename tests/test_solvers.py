"""Value iteration and exact policy evaluation against hand values and a
pure-python reference."""

import numpy as np
import pytest

from buchirl import solvers
from buchirl import (
    ConvergenceError,
    Edge,
    Mdp,
    Mode,
    PayoffSpec,
    Strategy,
    ValueVector,
    augment,
    bellman_backup,
    build_product,
    evaluate_policy,
    greedy_policy,
    solve_optimal,
)

from bruteforce import optimal_value_bruteforce, policy_value_bruteforce
from generators import random_instance, small_instance

GN = ("g", "n")


def view(product, mode, zeta):
    return augment(product, PayoffSpec(mode, zeta))


class TestCorpusValues:
    def test_self_loop(self, self_loop_product):
        v = solve_optimal(view(self_loop_product, Mode.TOTAL_REWARD, 0.9))
        assert abs(v.at_initial() - 10.0) <= 1e-8
        v = solve_optimal(view(self_loop_product, Mode.REACH_TARGET, 0.9))
        assert abs(v.at_initial() - 1.0) <= 1e-8

    def test_never_is_exactly_zero(self, never_product):
        for mode in Mode:
            v = solve_optimal(view(never_product, mode, 0.9))
            assert v.at_initial() == 0.0
            assert v.iterations == 1 and v.residual == 0.0

    def test_i2_large_zeta_prefers_a(self, i2_product):
        m = view(i2_product, Mode.TOTAL_REWARD, 0.9)
        v = solve_optimal(m)
        assert abs(v.at_initial() - 5.0) <= 1e-8
        assert np.allclose(v.values, [5.0, 10.0, 0.0], atol=1e-8)
        assert greedy_policy(m, v.values).choice == (0, 0, 0)

    def test_i2_reach(self, i2_product):
        m = view(i2_product, Mode.REACH_TARGET, 0.9)
        v = solve_optimal(m)
        assert np.allclose(v.values, [0.5, 1.0, 0.0], atol=1e-8)
        assert greedy_policy(m, v.values).choice == (0, 0, 0)

    def test_i2_small_zeta_prefers_b(self, i2_product):
        # at zeta = 0.5 both actions at s0 are worth 1, but iteration from
        # zero approaches v(sA) = 2 from below, so the one-shot action b
        # wins the argmax strictly
        m = view(i2_product, Mode.TOTAL_REWARD, 0.5)
        v = solve_optimal(m)
        assert abs(v.at_initial() - 1.0) <= 1e-9
        assert v.values[1] < 2.0
        assert greedy_policy(m, v.values).choice[0] == 1


def test_greedy_breaks_exact_ties_low(accept_g):
    # two actions with identical branch tables produce identical backups
    m = Mdp(
        ("s",),
        ("a", "b"),
        GN,
        0,
        (Edge(0, 0, 0, 1.0, 0), Edge(0, 1, 0, 1.0, 0)),
    )
    model = view(build_product(m, accept_g), Mode.TOTAL_REWARD, 0.9)
    v = solve_optimal(model)
    assert greedy_policy(model, v.values).choice == (0,)


class TestEvaluatePolicy:
    def test_i2_policy_b_total(self, i2_product):
        m = view(i2_product, Mode.TOTAL_REWARD, 0.5)
        v = evaluate_policy(m, Strategy((1, 0, 0)))
        assert v.at_initial() == 1.0
        assert v.residual == 0.0 and v.iterations == 0

    def test_i2_policy_a_reach(self, i2_product):
        m = view(i2_product, Mode.REACH_TARGET, 0.9)
        v = evaluate_policy(m, Strategy((0, 0, 0)))
        assert np.allclose(v.values, [0.5, 1.0, 0.0], atol=1e-12)

    def test_i2_policy_b_reach(self, i2_product):
        m = view(i2_product, Mode.REACH_TARGET, 0.9)
        v = evaluate_policy(m, Strategy((1, 0, 0)))
        assert abs(v.at_initial() - 0.1) <= 1e-12

    def test_zero_policy_shortcut(self, never_product):
        v = evaluate_policy(view(never_product, Mode.TOTAL_REWARD, 0.9), Strategy((0,)))
        assert v.values[0] == 0.0 and v.iterations == 0

    def test_reach_equals_scaled_total(self, i2_product):
        for zeta in (0.3, 0.5, 0.9):
            et = evaluate_policy(view(i2_product, Mode.TOTAL_REWARD, zeta), Strategy((0, 0, 0)))
            pr = evaluate_policy(view(i2_product, Mode.REACH_TARGET, zeta), Strategy((0, 0, 0)))
            assert np.allclose(pr.values, (1.0 - zeta) * et.values, atol=1e-10)


def test_vi_iterates_are_monotone(i2_product):
    rng = np.random.default_rng(21)
    models = [view(i2_product, Mode.TOTAL_REWARD, 0.8)]
    for _ in range(5):
        _, _, p = random_instance(rng)
        models.append(view(p, Mode.TOTAL_REWARD, 0.7))
        models.append(view(p, Mode.REACH_TARGET, 0.7))
    for m in models:
        v = np.zeros(m.n_states)
        for _ in range(60):
            new = bellman_backup(m, v)
            assert np.all(new >= v - 1e-12)
            v = new


def test_total_and_biased_backups_coincide(i2_product):
    # binary-exact zeta: the two branch tables round identically, so the
    # whole iteration is bit for bit the same
    vt = solve_optimal(view(i2_product, Mode.TOTAL_REWARD, 0.5))
    vb = solve_optimal(view(i2_product, Mode.BIASED_DISCOUNT, 0.5))
    assert np.array_equal(vt.values, vb.values)

    rng = np.random.default_rng(22)
    for _ in range(10):
        _, _, p = random_instance(rng)
        vt = solve_optimal(view(p, Mode.TOTAL_REWARD, 0.77))
        vb = solve_optimal(view(p, Mode.BIASED_DISCOUNT, 0.77))
        assert np.max(np.abs(vt.values - vb.values)) <= 1e-12


def test_optimal_against_bruteforce():
    rng = np.random.default_rng(23)
    for _ in range(25):
        _, _, p = small_instance(rng)
        for mode in (Mode.TOTAL_REWARD, Mode.REACH_TARGET):
            m = view(p, mode, 0.6)
            v = solve_optimal(m)
            want = optimal_value_bruteforce(m)
            assert np.max(np.abs(v.values - want)) <= 1e-8


def test_evaluate_against_bruteforce():
    rng = np.random.default_rng(24)
    for _ in range(20):
        _, _, p = random_instance(rng, max_states=4, max_actions=2)
        m = view(p, Mode.TOTAL_REWARD, 0.8)
        choice = tuple(
            int(rng.integers(len(p.pairs[st]))) for st in range(p.n_states)
        )
        got = evaluate_policy(m, Strategy(choice))
        want = policy_value_bruteforce(m, choice)
        assert np.max(np.abs(got.values - want)) <= 1e-10


def test_iterative_fallback_matches_dense(i2_product, monkeypatch):
    rng = np.random.default_rng(25)
    targets = [view(i2_product, Mode.TOTAL_REWARD, 0.9)]
    for _ in range(8):
        _, _, p = random_instance(rng)
        targets.append(view(p, Mode.TOTAL_REWARD, 0.85))
    for m in targets:
        f = Strategy(tuple(0 for _ in range(m.n_states)))
        dense = evaluate_policy(m, f)
        with monkeypatch.context() as mp:
            mp.setattr(solvers, "DENSE_LIMIT", 0)
            sweep = evaluate_policy(m, f)
        assert np.max(np.abs(dense.values - sweep.values)) <= 1e-9
        assert dense.residual == 0.0
        if dense.values.any():
            assert sweep.iterations > 0  # the zero shortcut did not fire


def test_convergence_errors(self_loop_product, monkeypatch):
    m = view(self_loop_product, Mode.TOTAL_REWARD, 0.9)
    with pytest.raises(ConvergenceError) as exc:
        solve_optimal(m, max_iter=2)
    assert exc.value.iterations == 2
    assert exc.value.residual > 0.0
    monkeypatch.setattr(solvers, "DENSE_LIMIT", 0)
    monkeypatch.setattr(solvers, "SWEEP_MAX_ITER", 1)
    with pytest.raises(ConvergenceError):
        evaluate_policy(m, Strategy((0,)))


def test_value_vector_requires_finite():
    with pytest.raises(ValueError):
        ValueVector(np.array([1.0, np.inf]), 0.0, 0)
    with pytest.raises(ValueError):
        ValueVector(np.array([np.nan]), 0.0, 0)


def test_value_bounds_on_random_instances():
    rng = np.random.default_rng(26)
    for _ in range(15):
        _, _, p = random_instance(rng)
        zeta = float(rng.uniform(0.2, 0.95))
        vr = solve_optimal(view(p, Mode.REACH_TARGET, zeta))
        assert np.all(vr.values >= 0.0)
        assert np.all(vr.values <= 1.0 + 1e-9)
        vt = solve_optimal(view(p, Mode.TOTAL_REWARD, zeta))
        assert np.all(vt.values >= 0.0)
        assert np.all(vt.values <= 1.0 / (1.0 - zeta) + 1e-9)
