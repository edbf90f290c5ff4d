"""Value iteration and exact policy evaluation against hand values and a
pure-python reference."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from buchirl import solvers
from buchirl import (
    ConvergenceError,
    DeadEndError,
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
    random_strategy,
    solve_optimal,
    solve_optimal_many,
)
from buchirl.verify import EQUALITY_TOL, IDENTITY_TOL

import bruteforce
from bruteforce import optimal_value_bruteforce, policy_value_bruteforce
from generators import (
    large_instance,
    random_instance,
    random_mdp,
    random_nondet_automaton,
    small_instance,
)

GN = ("g", "n")


def view(product, mode, zeta):
    return augment(product, PayoffSpec(mode, zeta))


def nondet_products(rng, count):
    """Products of random MDPs with nondeterministic automata of up to 16
    states, where some states have several times the pairs of others."""
    out = []
    while len(out) < count:
        try:
            out.append(build_product(random_mdp(rng), random_nondet_automaton(rng, max_states=16)))
        except DeadEndError:
            continue
    return out


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

    # s0: a leaves for the g-free part, b and c tie at rank 1 and 2; s1 and s2
    # have fewer pairs than s0, every one worth exactly 0
    m = Mdp(
        ("s0", "s1", "s2"),
        ("a", "b", "c"),
        GN,
        0,
        (
            Edge(0, 0, 1, 1.0, 1),
            Edge(0, 1, 0, 1.0, 0),
            Edge(0, 2, 0, 1.0, 0),
            Edge(1, 0, 2, 1.0, 1),
            Edge(1, 1, 1, 1.0, 1),
            Edge(2, 0, 2, 1.0, 1),
        ),
    )
    p = build_product(m, accept_g)
    assert np.diff(p.pair_start).tolist() == [3, 2, 1]
    for mode in Mode:
        model = view(p, mode, 0.9)
        v = solve_optimal(model)
        assert v.values[0] > 0.0 and v.values[1] == v.values[2] == 0.0
        f = greedy_policy(model, v.values)
        f.check(p)
        assert f.choice == (1, 0, 0)
        assert f == bruteforce.greedy_policy(model, v.values)


def test_value_iteration_matches_reference(corpus_products):
    # the pair grid against the flat per-pair sweep it replaced, bit for bit:
    # values, residual, sweep count, greedy choice and one backup, and the
    # residual of a run cut short before it converges
    products = list(corpus_products)
    rng = np.random.default_rng(27)
    products += [random_instance(rng)[2] for _ in range(30)]
    products += nondet_products(rng, 20)
    products.append(large_instance(np.random.default_rng(28))[2])
    assert len(products) == 12 + 30 + 20 + 1
    assert max(np.diff(p.pair_start).max() for p in products) >= 6
    for p in products:
        for zeta in (0.5, 0.9, 0.99):
            for mode in Mode:
                m = view(p, mode, zeta)
                got, want = solve_optimal(m), bruteforce.solve_optimal(m)
                assert got.values.tobytes() == want.values.tobytes()
                assert (got.residual, got.iterations) == (want.residual, want.iterations)
                f = greedy_policy(m, got.values)
                f.check(p)
                assert f == bruteforce.greedy_policy(m, want.values)
                half = got.values / 2
                assert bellman_backup(m, half).tobytes() == bruteforce.bellman_backup(m, half).tobytes()
                if got.iterations == 1:
                    continue  # all zero, converged at its first sweep
                cut = min(got.iterations - 1, 64)
                with pytest.raises(ConvergenceError) as exc:
                    solve_optimal(m, max_iter=cut)
                with pytest.raises(ConvergenceError) as ref:
                    bruteforce.solve_optimal(m, max_iter=cut)
                assert exc.value.residual == ref.value.residual > 0.0
                assert exc.value.iterations == ref.value.iterations == cut


def test_solve_optimal_many_matches_single(corpus_products):
    # the stacked loop against one call per model and against the flat
    # per-pair sweep, bit for bit: values, residual and sweep count
    def check(models):
        got = solve_optimal_many(models)
        assert len(got) == len(models)
        for m, v in zip(models, got):
            for want in (solve_optimal(m), bruteforce.solve_optimal(m)):
                assert v.values.tobytes() == want.values.tobytes()
                assert (v.residual, v.iterations) == (want.residual, want.iterations)
        return got

    corpus = [view(p, mode, z) for p in corpus_products for mode in Mode for z in (0.5, 0.9, 0.99)]
    assert len(corpus) == 108
    check(corpus)

    rng = np.random.default_rng(29)
    mixed = [view(random_instance(rng)[2], Mode.TOTAL_REWARD, 0.9) for _ in range(4)]
    mixed += [view(p, mode, 0.8) for p, mode in zip(nondet_products(rng, 3), Mode)]
    mixed.insert(2, mixed[5])
    assert len({m.n_states for m in mixed}) > 2
    assert len({int(np.diff(m.flat.pair_start).max()) for m in mixed}) > 1
    check(mixed)

    # the model with the most pairs per state converges first, so the restack
    # after it drops grid rows: corpus total views of i2 and self_loop with
    # accept_g and nondet_g beside a nondeterministic product's reach view
    hub = view(nondet_products(np.random.default_rng(31), 1)[0], Mode.REACH_TARGET, 0.5)
    shrink = [hub] + [view(corpus_products[i], Mode.TOTAL_REWARD, 0.99) for i in (0, 3, 8, 11)]
    iters = [solve_optimal(m).iterations for m in shrink]
    pairs = [int(np.diff(m.flat.pair_start).max()) for m in shrink]
    assert iters[0] < min(iters[1:]) and pairs[0] > max(pairs[1:])
    check(shrink)

    _, _, p = large_instance(np.random.default_rng(28))
    check([view(p, mode, 0.99) for mode in Mode])
    check(corpus[40:41])
    assert solve_optimal_many([]) == ()

    # cut between the sweep counts so that only the middle model fails, then
    # so that it and the last one fail: the error is the middle one's
    models = [view(p, Mode.REACH_TARGET, 0.5), view(p, Mode.TOTAL_REWARD, 0.99)]
    models.append(view(p, Mode.REACH_TARGET, 0.99))
    iters = [solve_optimal(m).iterations for m in models]
    assert iters[0] < iters[2] < iters[1]
    for cut in (iters[2], iters[2] - 1):
        with pytest.raises(ConvergenceError) as exc:
            solve_optimal_many(models, max_iter=cut)
        with pytest.raises(ConvergenceError) as ref:
            bruteforce.solve_optimal(models[1], max_iter=cut)
        assert exc.value.residual == ref.value.residual > 0.0
        assert exc.value.iterations == ref.value.iterations == cut


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
    # exactly, with no rounding slack: solve_optimal's step max(new - v) is
    # the sup-norm step only because no entry ever decreases
    rng = np.random.default_rng(21)
    products = [i2_product] + [random_instance(rng)[2] for _ in range(5)]
    products += nondet_products(rng, 5)
    for p in products:
        for mode, zeta in itertools.product(Mode, (0.7, 0.8)):
            m = view(p, mode, zeta)
            v = np.zeros(m.n_states)
            for _ in range(60):
                new = bellman_backup(m, v)
                assert np.all(new >= v)
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
    # a sparse solve whose passes never move x misses its residual target
    # and raises rather than return the start vector
    import scipy.sparse.linalg

    _, _, p = large_instance(np.random.default_rng(40))
    monkeypatch.setattr(scipy.sparse.linalg, "bicgstab", lambda a, b, **kw: (np.zeros_like(b), 0))
    with pytest.raises(ConvergenceError) as exc:
        evaluate_policy(view(p, Mode.TOTAL_REWARD, 0.9), Strategy((0,) * p.n_states))
    assert exc.value.iterations == solvers.REFINE_PASSES
    assert exc.value.residual >= 1.0


def test_sparse_solve_matches_dense(monkeypatch):
    # a product whose live set is above DENSE_LIMIT, so evaluate_policy takes
    # the sparse path; the refined values must agree with the dense solve to
    # round-off and keep verify's view checks, at every bias
    rng = np.random.default_rng(40)
    _, _, p = large_instance(rng)
    for zeta in (0.5, 0.9, 0.99, 0.999):
        views = {mode: view(p, mode, zeta) for mode in Mode}
        total = views[Mode.TOTAL_REWARD]
        pool = [greedy_policy(total, solve_optimal(total).values)]
        pool += [random_strategy(p, rng) for _ in range(2)]
        for f in pool:
            got = {}
            for mode, m in views.items():
                v = evaluate_policy(m, f)
                assert np.count_nonzero(v.values) > solvers.DENSE_LIMIT and v.iterations > 0
                scale = np.maximum(1.0, np.abs(v.values))
                assert v.residual <= solvers.RESIDUAL_TOL * scale.max()
                with monkeypatch.context() as mp:
                    mp.setattr(solvers, "DENSE_LIMIT", p.n_states)
                    dense = evaluate_policy(m, f).values
                assert np.all(np.abs(v.values - dense) <= 1e-12 * np.maximum(1.0, np.abs(dense)))
                got[mode] = v.values
            et, pr = got[Mode.TOTAL_REWARD], got[Mode.REACH_TARGET]
            assert np.max(np.abs(et - got[Mode.BIASED_DISCOUNT])) <= EQUALITY_TOL
            assert np.max(np.abs(pr - (1.0 - zeta) * et)) <= IDENTITY_TOL


def test_small_products_never_import_scipy():
    # scipy is imported on the sparse path only, so commands on small
    # products do not pay for it
    code = """
import sys
import numpy as np
from buchirl import verify_instance
from buchirl.cli import main
from generators import random_instance
assert main(["verify", "--mdp", sys.argv[1], "--hoa", sys.argv[2]]) == 0
m, a, _ = random_instance(np.random.default_rng(0))
assert verify_instance(m, a, zetas=(0.5, 0.9, 0.99)).passed
assert "scipy" not in sys.modules, sorted(k for k in sys.modules if k.startswith("scipy"))
"""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    corpus = root / "corpus"
    args = [str(corpus / "mdp" / "i2.json"), str(corpus / "hoa" / "accept_g.hoa")]
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


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
