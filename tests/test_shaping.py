"""Augmentation tables, realized payoffs and the two simulators."""

import math

import numpy as np
import pytest

from buchirl import (
    AugBranch,
    Edge,
    Mdp,
    Mode,
    PayoffSpec,
    RunRecord,
    Strategy,
    augment,
    build_product,
    evaluate_policy,
    run_payoff,
    simulate_batch,
    simulate_run,
)

from generators import random_instance


def test_payoff_spec_rejects_bad_zeta():
    for z in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            PayoffSpec(Mode.TOTAL_REWARD, z)
    PayoffSpec(Mode.REACH_TARGET, 0.5)  # boundary-interior value is fine


class TestAugmentTables:
    """Exact branch tables for the three views at zeta = 0.5.

    All the constants below are exact in binary floating point, so the
    comparisons are equalities, not tolerances.
    """

    def test_total(self, i2_product):
        m = augment(i2_product, PayoffSpec(Mode.TOTAL_REWARD, 0.5))
        assert m.target == 3
        assert m.branches == (
            (
                (AugBranch(1, 0.5, 0.5, 0.0), AugBranch(2, 0.5, 0.5, 0.0)),
                (AugBranch(2, 0.5, 0.5, 1.0), AugBranch(3, 0.5, 0.0, 1.0)),
            ),
            ((AugBranch(1, 0.5, 0.5, 1.0), AugBranch(3, 0.5, 0.0, 1.0)),),
            ((AugBranch(2, 1.0, 1.0, 0.0),),),
        )

    def test_reach(self, i2_product):
        m = augment(i2_product, PayoffSpec(Mode.REACH_TARGET, 0.5))
        assert m.target == 3
        # same dynamics as total, but only the leak into t pays
        assert m.branches == (
            (
                (AugBranch(1, 0.5, 0.5, 0.0), AugBranch(2, 0.5, 0.5, 0.0)),
                (AugBranch(2, 0.5, 0.5, 0.0), AugBranch(3, 0.5, 0.0, 1.0)),
            ),
            ((AugBranch(1, 0.5, 0.5, 0.0), AugBranch(3, 0.5, 0.0, 1.0)),),
            ((AugBranch(2, 1.0, 1.0, 0.0),),),
        )

    def test_biased(self, i2_product):
        m = augment(i2_product, PayoffSpec(Mode.BIASED_DISCOUNT, 0.5))
        assert m.target is None
        # raw dynamics; accepting branches keep prob 1x but back up at zeta
        assert m.branches == (
            (
                (AugBranch(1, 0.5, 0.5, 0.0), AugBranch(2, 0.5, 0.5, 0.0)),
                (AugBranch(2, 1.0, 0.5, 1.0),),
            ),
            ((AugBranch(1, 1.0, 0.5, 1.0),),),
            ((AugBranch(2, 1.0, 1.0, 0.0),),),
        )

    def test_self_loop_leak(self, self_loop_product):
        m = augment(self_loop_product, PayoffSpec(Mode.TOTAL_REWARD, 0.9))
        (pair,) = m.branches[0]
        stay, leak = pair
        assert stay.succ == 0 and stay.reward == 1.0
        assert stay.prob == pytest.approx(0.9) and stay.weight == stay.prob
        assert leak.succ == m.target == 1
        assert leak.prob == pytest.approx(0.1)
        assert leak.weight == 0.0 and leak.reward == 1.0


def test_augment_preserves_pair_structure():
    # one augmented pair per product pair, in order, for every mode
    rng = np.random.default_rng(11)
    for _ in range(15):
        _, _, p = random_instance(rng)
        for mode in Mode:
            m = augment(p, PayoffSpec(mode, 0.7))
            assert len(m.branches) == p.n_states
            for st in range(p.n_states):
                assert len(m.branches[st]) == len(p.pairs[st])


def test_augment_stays_stochastic():
    rng = np.random.default_rng(12)
    for _ in range(15):
        _, _, p = random_instance(rng)
        for mode in Mode:
            m = augment(p, PayoffSpec(mode, 0.3))
            for st in range(p.n_states):
                for branches in m.branches[st]:
                    total = math.fsum(b.prob for b in branches)
                    assert abs(total - 1.0) <= 1e-12


def test_flat_table_matches_branches(i2_product, self_loop_product, never_product):
    rng = np.random.default_rng(13)
    products = [i2_product, self_loop_product, never_product]
    products += [random_instance(rng)[2] for _ in range(10)]
    for p in products:
        for mode in Mode:
            m = augment(p, PayoffSpec(mode, 0.77))
            flat = m.flat
            assert m.flat is flat
            assert flat.pair_start.size == p.n_states + 1
            assert flat.branch_start.size == p.n_pairs + 1
            for st in range(p.n_states):
                assert flat.pair_start[st + 1] - flat.pair_start[st] == len(m.branches[st])
                for k, branches in enumerate(m.branches[st]):
                    pid = flat.pair_start[st] + k
                    lo, hi = flat.branch_start[pid], flat.branch_start[pid + 1]
                    cols = (flat.succ, flat.prob, flat.weight, flat.reward)
                    got = list(zip(*(c[lo:hi] for c in cols)))
                    assert got == [tuple(b) for b in branches]
                    assert flat.base[pid] == math.fsum(b.prob * b.reward for b in branches)
            assert flat.branch_start[-1] == flat.succ.size


def _record(accepting, reached=False):
    n = len(accepting)
    return RunRecord(
        tuple(range(n + 1)),
        (0,) * n,
        (0,) * n,
        tuple(accepting),
        reached,
    )


def test_run_payoff_empty_run():
    rec = _record([False, False, False])
    for mode in Mode:
        assert run_payoff(PayoffSpec(mode, 0.5), rec) == 0.0


def test_run_payoff_examples():
    rec = _record([True, False, True, True], reached=True)
    assert run_payoff(PayoffSpec(Mode.REACH_TARGET, 0.5), rec) == 1.0
    assert run_payoff(PayoffSpec(Mode.TOTAL_REWARD, 0.5), rec) == 3.0
    # 1 + 0.5 + 0.25, position among non-accepting steps irrelevant
    assert run_payoff(PayoffSpec(Mode.BIASED_DISCOUNT, 0.5), rec) == 1.75


def test_run_payoff_biased_geometric():
    for zeta in (0.3, 0.5, 0.9):
        for n in (1, 4, 17):
            rec = _record([True] * n)
            want = (1.0 - zeta**n) / (1.0 - zeta)
            got = run_payoff(PayoffSpec(Mode.BIASED_DISCOUNT, zeta), rec)
            assert abs(got - want) <= 1e-12


def test_simulate_run_self_loop_reaches_target(self_loop_product):
    m = augment(self_loop_product, PayoffSpec(Mode.TOTAL_REWARD, 0.9))
    rec = simulate_run(m, Strategy((0,)), np.random.default_rng(0))
    assert rec.reached_target
    assert rec.states[-1] == m.target
    assert all(rec.accepting)
    assert run_payoff(m.spec, rec) == float(rec.steps)


def test_simulate_run_never_truncates(never_product):
    m = augment(never_product, PayoffSpec(Mode.REACH_TARGET, 0.9))
    rec = simulate_run(m, Strategy((0,)), np.random.default_rng(1), max_steps=40)
    assert not rec.reached_target
    assert rec.steps == 40
    assert rec.accepting_count == 0
    assert run_payoff(m.spec, rec) == 0.0


def test_simulate_run_biased_has_no_target(self_loop_product):
    m = augment(self_loop_product, PayoffSpec(Mode.BIASED_DISCOUNT, 0.5))
    rec = simulate_run(m, Strategy((0,)), np.random.default_rng(2), max_steps=60)
    assert rec.steps == 60 and not rec.reached_target
    want = (1.0 - 0.5**60) / 0.5
    assert abs(run_payoff(m.spec, rec) - want) <= 1e-12


def test_simulate_run_trace_support(i2_product):
    m = augment(i2_product, PayoffSpec(Mode.TOTAL_REWARD, 0.5))
    rng = np.random.default_rng(3)
    for _ in range(50):
        rec = simulate_run(m, Strategy((0, 0, 0)), rng, max_steps=30)
        # a at s0 moves to sA or sR and sticks; t only after an accepting step
        assert rec.states[0] == 0
        assert set(rec.states[1:-1]) <= {1, 2}
        if rec.reached_target:
            assert rec.states[-1] == 3
            assert rec.accepting[-1]
        for sym, acc in zip(rec.labels, rec.accepting):
            assert acc == (i2_product.mdp.symbols[sym] == "g")


def test_simulate_run_reproducible(i2_product):
    m = augment(i2_product, PayoffSpec(Mode.TOTAL_REWARD, 0.9))
    a = simulate_run(m, Strategy((0, 0, 0)), np.random.default_rng(7))
    b = simulate_run(m, Strategy((0, 0, 0)), np.random.default_rng(7))
    assert a == b


def test_simulate_run_start_override(i2_product):
    m = augment(i2_product, PayoffSpec(Mode.TOTAL_REWARD, 0.5))
    rec = simulate_run(m, Strategy((0, 0, 0)), np.random.default_rng(4), start=2)
    assert rec.states[0] == 2
    assert set(rec.states) == {2}  # sR self-loops forever


def test_simulate_batch_matches_exact_values(i2_product):
    m = augment(i2_product, PayoffSpec(Mode.TOTAL_REWARD, 0.9))
    f = Strategy((0, 0, 0))
    pay, reached = simulate_batch(m, f, np.random.default_rng(5), 20_000, 500)
    exact = evaluate_policy(m, f).at_initial()
    assert abs(exact - 5.0) <= 1e-9
    err = 3.0 * pay.std() / math.sqrt(pay.size)
    assert abs(pay.mean() - exact) <= err
    # half the episodes drift to sR and never leak into the target
    p_hat = reached.mean()
    assert abs(p_hat - 0.5) <= 3.0 * math.sqrt(0.25 / reached.size)


def test_simulate_batch_deterministic_policy_b(i2_product):
    # b at s0 pays exactly once, every episode, and leaks with prob 1/2
    m = augment(i2_product, PayoffSpec(Mode.TOTAL_REWARD, 0.5))
    pay, reached = simulate_batch(
        m, Strategy((1, 0, 0)), np.random.default_rng(6), 4000, 100
    )
    assert np.all(pay == 1.0)
    assert abs(reached.mean() - 0.5) <= 3.0 * math.sqrt(0.25 / 4000)


def test_simulate_batch_biased_never_reaches(never_product):
    m = augment(never_product, PayoffSpec(Mode.BIASED_DISCOUNT, 0.9))
    pay, reached = simulate_batch(
        m, Strategy((0,)), np.random.default_rng(8), 100, 50
    )
    assert not reached.any()
    assert not pay.any()


def test_simulate_batch_rounding_slack_goes_to_last_branch(accept_g):
    # ten branches of 0.1 sum to 0.9999999999999999, which a draw just below 1
    # exceeds; the sampler must then take the last branch (the only g one)
    states = tuple(f"s{i}" for i in range(10))
    edges = [Edge(0, 0, i, 0.1, 0 if i == 9 else 1) for i in range(10)]
    edges += [Edge(i, 0, i, 1.0, 1) for i in range(1, 10)]
    p = build_product(Mdp(states, ("a",), ("g", "n"), 0, tuple(edges)), accept_g)
    m = augment(p, PayoffSpec(Mode.BIASED_DISCOUNT, 0.5))

    class AlmostOne:
        def random(self, size):
            return np.full(size, np.nextafter(1.0, 0.0))

    f = Strategy((0,) * p.n_states)
    pay, reached = simulate_batch(m, f, AlmostOne(), 3, 5)
    assert pay.tolist() == [1.0] * 3 and not reached.any()


def test_simulate_batch_against_reach_probability(i2_product):
    m = augment(i2_product, PayoffSpec(Mode.REACH_TARGET, 0.9))
    f = Strategy((1, 0, 0))
    exact = evaluate_policy(m, f).at_initial()
    assert abs(exact - 0.1) <= 1e-12
    pay, reached = simulate_batch(m, f, np.random.default_rng(9), 30_000, 200)
    assert np.array_equal(pay > 0.0, reached)
    assert abs(reached.mean() - exact) <= 3.0 * math.sqrt(exact * (1 - exact) / 30_000)
