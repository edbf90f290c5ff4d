"""Augmentation tables, realized payoffs and the payoff sampler."""

import math

import numpy as np
import pytest

from buchirl import (
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
)

from bruteforce import augment_reference
from generators import random_instance


def pair_rows(m, st, k):
    """Pair k of state st as (succ, prob, weight, reward) rows of the flat table."""
    flat = m.flat
    pid = flat.pair_start[st] + k
    cut = slice(flat.branch_start[pid], flat.branch_start[pid + 1])
    return list(zip(*(c[cut].tolist() for c in (flat.succ, flat.prob, flat.weight, flat.reward))))


def table(m):
    """The whole flat table as rows per pair per state."""
    flat = m.flat
    return [
        [pair_rows(m, st, k) for k in range(flat.pair_start[st + 1] - flat.pair_start[st])]
        for st in range(m.n_states)
    ]


def test_payoff_spec_rejects_bad_zeta():
    for z in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            PayoffSpec(Mode.TOTAL_REWARD, z)
    PayoffSpec(Mode.REACH_TARGET, 0.5)  # boundary-interior value is fine


class TestAugmentTables:
    """Exact branch tables for the three views at zeta = 0.5.

    All the constants below are exact in binary floating point, so the
    comparisons are equalities, not tolerances.  Rows are
    (succ, prob, weight, reward).
    """

    def test_total(self, i2_product):
        m = augment(i2_product, PayoffSpec(Mode.TOTAL_REWARD, 0.5))
        assert m.target == 3
        assert table(m) == [
            [
                [(1, 0.5, 0.5, 0.0), (2, 0.5, 0.5, 0.0)],
                [(2, 0.5, 0.5, 1.0), (3, 0.5, 0.0, 1.0)],
            ],
            [[(1, 0.5, 0.5, 1.0), (3, 0.5, 0.0, 1.0)]],
            [[(2, 1.0, 1.0, 0.0)]],
        ]
        assert m.flat.base.tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_reach(self, i2_product):
        m = augment(i2_product, PayoffSpec(Mode.REACH_TARGET, 0.5))
        assert m.target == 3
        # same dynamics as total, but only the leak into t pays
        assert table(m) == [
            [
                [(1, 0.5, 0.5, 0.0), (2, 0.5, 0.5, 0.0)],
                [(2, 0.5, 0.5, 0.0), (3, 0.5, 0.0, 1.0)],
            ],
            [[(1, 0.5, 0.5, 0.0), (3, 0.5, 0.0, 1.0)]],
            [[(2, 1.0, 1.0, 0.0)]],
        ]
        assert m.flat.base.tolist() == [0.0, 0.5, 0.5, 0.0]

    def test_biased(self, i2_product):
        m = augment(i2_product, PayoffSpec(Mode.BIASED_DISCOUNT, 0.5))
        assert m.target is None
        # raw dynamics; accepting branches keep prob 1x but back up at zeta
        assert table(m) == [
            [
                [(1, 0.5, 0.5, 0.0), (2, 0.5, 0.5, 0.0)],
                [(2, 1.0, 0.5, 1.0)],
            ],
            [[(1, 1.0, 0.5, 1.0)]],
            [[(2, 1.0, 1.0, 0.0)]],
        ]
        assert m.flat.base.tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_self_loop_leak(self, self_loop_product):
        m = augment(self_loop_product, PayoffSpec(Mode.TOTAL_REWARD, 0.9))
        stay, leak = pair_rows(m, 0, 0)
        assert stay[0] == 0 and stay[3] == 1.0
        assert stay[1] == pytest.approx(0.9) and stay[2] == stay[1]
        assert leak[0] == m.target == 1
        assert leak[1] == pytest.approx(0.1)
        assert leak[2] == 0.0 and leak[3] == 1.0


def test_augment_preserves_pair_structure():
    # one augmented pair per product pair, in order, for every mode
    rng = np.random.default_rng(11)
    for _ in range(15):
        _, _, p = random_instance(rng)
        for mode in Mode:
            flat = augment(p, PayoffSpec(mode, 0.7)).flat
            assert flat.pair_start.size == p.n_states + 1
            assert flat.branch_start.size == p.n_pairs + 1
            assert flat.branch_start[-1] == flat.succ.size
            for st in range(p.n_states):
                assert flat.pair_start[st + 1] - flat.pair_start[st] == len(p.pairs[st])


def test_augment_stays_stochastic():
    rng = np.random.default_rng(12)
    for _ in range(15):
        _, _, p = random_instance(rng)
        for mode in Mode:
            m = augment(p, PayoffSpec(mode, 0.3))
            for st in range(p.n_states):
                for k in range(len(p.pairs[st])):
                    total = math.fsum(row[1] for row in pair_rows(m, st, k))
                    assert abs(total - 1.0) <= 1e-12


def test_flat_table_matches_reference(i2_product, self_loop_product, never_product):
    # every column bit for bit, dtype included, against the branch-by-branch loop
    rng = np.random.default_rng(13)
    products = [i2_product, self_loop_product, never_product]
    products += [random_instance(rng)[2] for _ in range(20)]
    for p in products:
        for mode in Mode:
            for zeta in (0.3, 0.77, 0.99):
                spec = PayoffSpec(mode, zeta)
                got, want = augment(p, spec).flat, augment_reference(p, spec)
                for name, g, w in zip(want._fields, got, want):
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (mode, zeta, name)


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
