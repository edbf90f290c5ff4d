"""Policy iteration and exact policy evaluation against hand values and a
pure-python reference."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from buchirl import solvers
from buchirl import (
    ConvergenceError,
    Mode,
    PayoffSpec,
    Strategy,
    ValueVector,
    augment,
    build_product,
    evaluate_policies,
    evaluate_policy,
    greedy_policy,
    random_strategy,
    solve_optimal,
)
from buchirl.verify import EQUALITY_TOL, IDENTITY_TOL

from bruteforce import optimal_value_bruteforce, policy_value_bruteforce
from generators import (
    large_instance,
    mdp_from_rows,
    random_instance,
    small_instance,
)

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
        assert v.policy.choice == (0, 0, 0)

    def test_i2_reach(self, i2_product):
        m = view(i2_product, Mode.REACH_TARGET, 0.9)
        v = solve_optimal(m)
        assert np.allclose(v.values, [0.5, 1.0, 0.0], atol=1e-8)
        assert v.policy.choice == (0, 0, 0)

    def test_i2_small_zeta_prefers_b(self, i2_product):
        # at zeta = 0.5 both actions at s0 are worth exactly 1 (a reaches
        # v(sA) = 2 with probability 1/2); policy iteration starts from the
        # myopic one-shot action b and keeps it on the tie
        m = view(i2_product, Mode.TOTAL_REWARD, 0.5)
        v = solve_optimal(m)
        assert v.values[0] == 1.0 and v.values[1] == 2.0
        assert v.policy.choice[0] == 1


def test_greedy_breaks_exact_ties_low(accept_g):
    # two actions with identical branch tables produce identical backups
    m = mdp_from_rows(
        ("s",),
        ("a", "b"),
        GN,
        0,
        ((0, 0, 0, 1.0, 0), (0, 1, 0, 1.0, 0)),
    )
    model = view(build_product(m, accept_g), Mode.TOTAL_REWARD, 0.9)
    v = solve_optimal(model)
    assert greedy_policy(model, v.values).choice == (0,)

    # s0: a leaves for the g-free part, b and c tie at rank 1 and 2; s1 and s2
    # have fewer pairs than s0, every one worth exactly 0
    m = mdp_from_rows(
        ("s0", "s1", "s2"),
        ("a", "b", "c"),
        GN,
        0,
        (
            (0, 0, 1, 1.0, 1),
            (0, 1, 0, 1.0, 0),
            (0, 2, 0, 1.0, 0),
            (1, 0, 2, 1.0, 1),
            (1, 1, 1, 1.0, 1),
            (2, 0, 2, 1.0, 1),
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
        assert v.policy == f


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


def test_total_and_biased_backups_coincide(i2_product):
    # binary-exact zeta: the two branch tables round identically, so the
    # two solves are bit for bit the same
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
    # exact optima: within 1e-12 relative of exhaustive enumeration in every
    # view, and the values are those of the returned policy, bit for bit
    rng = np.random.default_rng(23)
    for _ in range(25):
        _, _, p = small_instance(rng)
        for mode in Mode:
            for zeta in (0.6, 0.99):
                m = view(p, mode, zeta)
                v = solve_optimal(m)
                want = optimal_value_bruteforce(m)
                assert np.all(np.abs(v.values - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
                assert evaluate_policy(m, v.policy).values.tobytes() == v.values.tobytes()


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


def assert_rows_match_single_calls(m, choices):
    """Every row of one `evaluate_policies` call has, bit for bit, the
    values, residual and passes of its own `evaluate_policy` call."""
    values, residual, iterations = evaluate_policies(m, choices)
    assert values.shape == choices.shape
    assert residual.shape == iterations.shape == (len(choices),)
    for row, v, r, passes in zip(choices.tolist(), values, residual.tolist(), iterations.tolist()):
        one = evaluate_policy(m, Strategy(tuple(row)))
        assert v.tobytes() == one.values.tobytes()
        assert (r, passes) == (one.residual, one.iterations)
    return values


def test_evaluate_policies_matches_single_calls():
    # random pools on small products, 60 rows each so that a pool spans
    # several stacks of at most DENSE_LIMIT states
    rng = np.random.default_rng(62)
    mixed_sizes = mixed_zero = False
    for _ in range(12):
        _, _, p = random_instance(rng)
        choices = rng.integers(p.pair_count, size=(60, p.n_states))
        for mode in Mode:
            for zeta in (0.5, 0.99):
                values = assert_rows_match_single_calls(view(p, mode, zeta), choices)
                live = np.count_nonzero(values, axis=1)  # a live state is worth more than 0
                mixed_sizes |= len(set(live.tolist()) - {0}) > 1
                mixed_zero |= 0 < np.count_nonzero(live) < len(live)
    assert mixed_sizes and mixed_zero


def test_evaluate_policies_stacks_within_dense_limit(monkeypatch):
    # a stack holds rows up to DENSE_LIMIT states in all, one row when a
    # single row is larger, and the stacks take the rows in order
    stacks = []
    whole = solvers._evaluate_stack

    def spy(model, choices, out):
        stacks.append(choices.copy())
        return whole(model, choices, out)

    monkeypatch.setattr(solvers, "_evaluate_stack", spy)
    rng = np.random.default_rng(65)
    _, _, small = random_instance(rng)
    _, _, large = large_instance(rng)
    for p, k in ((small, 3 * solvers.DENSE_LIMIT // small.n_states), (large, 3)):
        stacks.clear()
        choices = rng.integers(p.pair_count, size=(k, p.n_states))
        evaluate_policies(view(p, Mode.TOTAL_REWARD, 0.9), choices)
        assert np.array_equal(np.concatenate(stacks), choices)
        most = max(1, solvers.DENSE_LIMIT // p.n_states)
        assert [len(s) for s in stacks[:-1]] == [most] * (len(stacks) - 1) and len(stacks[-1]) <= most
    assert len(stacks) == 3


def test_evaluate_policies_edge_batches(never_product, i2_product, monkeypatch):
    # no rows; rows that earn nothing anywhere; and one-row stacks above
    # DENSE_LIMIT, dense and iterative rows mixed in one batch
    m = view(i2_product, Mode.TOTAL_REWARD, 0.9)
    values, residual, iterations = evaluate_policies(m, np.zeros((0, 3), dtype=np.int64))
    assert values.shape == (0, 3) and residual.shape == iterations.shape == (0,)
    values = assert_rows_match_single_calls(
        view(never_product, Mode.TOTAL_REWARD, 0.9), np.zeros((4, 1), dtype=np.int64)
    )
    assert not values.any()
    rng = np.random.default_rng(63)
    _, _, p = random_instance(rng)
    choices = rng.integers(p.pair_count, size=(20, p.n_states))
    with monkeypatch.context() as mp:
        mp.setattr(solvers, "DENSE_LIMIT", 2)
        for mode in Mode:
            assert_rows_match_single_calls(view(p, mode, 0.9), choices)


def test_evaluate_policies_on_the_sparse_path():
    rng = np.random.default_rng(40)
    _, _, p = large_instance(rng)
    m = view(p, Mode.TOTAL_REWARD, 0.9)
    choices = np.array([solve_optimal(m).policy.choice, *rng.integers(p.pair_count, size=(2, p.n_states))])
    values = assert_rows_match_single_calls(m, choices)
    _, _, iterations = evaluate_policies(m, choices)
    assert np.all(np.count_nonzero(values, axis=1) > solvers.DENSE_LIMIT) and np.all(iterations > 0)


def test_evaluate_policies_rejects_a_bad_row_like_a_single_call(i2_product):
    m = view(i2_product, Mode.TOTAL_REWARD, 0.9)
    for bad in ((0, 2, 0), (0, 0, -1), (3, 0, 0), (0, 0)):
        choices = np.array([(1, 0, 0), bad, (0, 0, 0)]) if len(bad) == 3 else np.array([bad, bad])
        with pytest.raises(ValueError) as batch:
            evaluate_policies(m, choices)
        with pytest.raises(ValueError) as single:
            evaluate_policy(m, Strategy(bad))
        assert str(batch.value) == str(single.value)


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


def test_bicgstab_matches_scipy():
    # the in-repo pass runs scipy's iteration step for step, so on systems
    # where scipy's pass converges the iterates agree bit for bit; scipy is
    # a test dependency only, from 1.12 (rtol, and the Python iteration)
    from scipy.sparse.linalg import LinearOperator, bicgstab

    rng = np.random.default_rng(26)
    n = 300
    row = np.repeat(np.arange(n), 3)
    for zeta in (0.5, 0.9, 0.99):
        col = rng.integers(n, size=row.size)
        w = rng.random(row.size)
        w *= zeta / np.bincount(row, weights=w)[row]
        b = rng.random(n)

        def matvec(y):
            return y - np.bincount(row, weights=w * y[col], minlength=n)

        want, info = bicgstab(
            LinearOperator((n, n), matvec=matvec, dtype=float), b,
            rtol=solvers.BICGSTAB_RTOL, atol=0.0,
        )
        assert info == 0
        assert np.array_equal(solvers._bicgstab(matvec, b), want)
    assert not solvers._bicgstab(matvec, np.zeros(n)).any()


def test_convergence_errors(i2_product, monkeypatch):
    # policy iteration that is still switching at its round cap raises: on
    # I2 at zeta 0.9 the myopic start b must switch to a once
    m = view(i2_product, Mode.TOTAL_REWARD, 0.9)
    assert solve_optimal(m).iterations == 2
    with monkeypatch.context() as mp:
        mp.setattr(solvers, "MAX_ROUNDS", 1)
        with pytest.raises(ConvergenceError) as exc:
            solve_optimal(m)
    assert exc.value.iterations == 1
    assert exc.value.residual > 0.0
    # a sparse solve whose passes never move x misses its residual target
    # and raises rather than return the start vector
    _, _, p = large_instance(np.random.default_rng(40))
    monkeypatch.setattr(solvers, "_bicgstab", lambda matvec, b: np.zeros_like(b))
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
        pool = [solve_optimal(total).policy]
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


def test_commands_never_import_scipy(tmp_path):
    # numpy is the only runtime dependency: neither commands on small
    # products nor verify on a product that takes the sparse path import scipy
    code = """
import sys
import numpy as np
from buchirl import dump_mdp, verify, verify_instance
from buchirl.cli import main
from generators import large_instance, random_instance, serialize_hoa
assert main(["verify", "--mdp", sys.argv[1], "--hoa", sys.argv[2]]) == 0
m, a, _ = random_instance(np.random.default_rng(0))
assert verify_instance(m, a, zetas=(0.5, 0.9, 0.99)).passed
m, a, _ = large_instance(np.random.default_rng(40))
dump_mdp(m, sys.argv[3])
with open(sys.argv[4], "w") as out:
    out.write(serialize_hoa(a))
passes = []
evaluate = verify.evaluate_policies
def spy(model, choices):
    values, residual, iterations = evaluate(model, choices)
    passes.extend(iterations.tolist())
    return values, residual, iterations
verify.evaluate_policies = spy
assert main(["verify", "--mdp", sys.argv[3], "--hoa", sys.argv[4]]) == 0
assert max(passes) > 0, passes  # some evaluation ran above DENSE_LIMIT
assert "scipy" not in sys.modules, sorted(k for k in sys.modules if k.startswith("scipy"))
"""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    corpus = root / "corpus"
    args = [str(corpus / "mdp" / "i2.json"), str(corpus / "hoa" / "accept_g.hoa")]
    args += [str(tmp_path / "large.json"), str(tmp_path / "gf_g.hoa")]
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
