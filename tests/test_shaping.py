"""Augmentation tables, realized payoffs and the payoff sampler."""

import math

import numpy as np
import pytest

from buchirl import (
    Edge,
    Mdp,
    Mode,
    PayoffSpec,
    Strategy,
    augment,
    build_product,
    evaluate_policy,
    random_strategy,
    simulate_batch,
    solve_optimal,
)

from bruteforce import augment_reference, simulate_batch_reference
from generators import large_instance, random_instance


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


def test_simulate_batch_rejects_negative_counts(i2_product):
    m = augment(i2_product, PayoffSpec(Mode.TOTAL_REWARD, 0.9))
    f = Strategy((0, 0, 0))
    for episodes, max_steps, name in ((-1, 10, "episodes"), (10, -1, "max_steps")):
        with pytest.raises(ValueError, match=name):
            simulate_batch(m, f, np.random.default_rng(0), episodes, max_steps)
    pay, reached = simulate_batch(m, f, np.random.default_rng(0), 0, 0)
    assert pay.size == 0 and reached.size == 0


class Recording:
    """A generator that logs the size of every `random` call."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return self.rng.random(size)


class Tripwire(Recording):
    """A `Recording` whose uniforms are +inf wherever stuck(call, size) says.

    +inf passes every branch's cumulative bound, the last one's included, so
    a sampler that reads such a uniform indexes past its branch table and
    raises IndexError.
    """

    def __init__(self, seed, stuck):
        super().__init__(seed)
        self.stuck = stuck

    def random(self, size):
        u = super().random(size)
        u[self.stuck(len(self.sizes) - 1, size)] = np.inf
        return u


def assert_sampler_matches_reference(m, f, seed, episodes, max_steps):
    """Payoffs, flags, call sizes and the next draw equal the old sampler's."""
    got_rng, want_rng = Recording(seed), Recording(seed)
    got = simulate_batch(m, f, got_rng, episodes, max_steps)
    want = simulate_batch_reference(m, f, want_rng, episodes, max_steps)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert got_rng.sizes == want_rng.sizes
    assert got_rng.rng.random() == want_rng.rng.random()


def test_simulate_batch_matches_reference(corpus_products):
    rng = np.random.default_rng(17)
    products = list(corpus_products) + [random_instance(rng)[2] for _ in range(20)]
    products.append(large_instance(rng)[2])
    for i, p in enumerate(products):
        for mode in Mode:
            m = augment(p, PayoffSpec(mode, 0.9))
            pool = [solve_optimal(m).policy]
            pool += [random_strategy(p, rng) for _ in range(2)]
            for f in pool:
                assert_sampler_matches_reference(m, f, i, 400, 100)


def chain_model(accept_g, edges, n_states, mode):
    """One-action MDP on s0 .. s(n-1) under GF g, in one view at zeta 0.5."""
    states = tuple(f"s{i}" for i in range(n_states))
    p = build_product(Mdp(states, ("a",), ("g", "n"), 0, tuple(edges)), accept_g)
    return augment(p, PayoffSpec(mode, 0.5)), Strategy((0,) * p.n_states)


# Trap shapes the learner's trap rule, one pair whose one branch is a
# non-accepting self-loop, does not cover.  Each is checked against the old
# sampler, and with a tripwire on the uniforms of the episodes that can no
# longer earn, which the sampler must draw and leave unread.


def test_simulate_batch_skips_a_zero_reward_cycle(accept_g):
    # s0 sends half the episodes into the cycle s1 <-> s2, which never earns,
    # and half onto the accepting loop at s3; s1 is product state 1, and the
    # first branch of s0, which draws below 0.5 take
    edges = [Edge(0, 0, 1, 0.5, 1), Edge(0, 0, 3, 0.5, 0), Edge(1, 0, 2, 1.0, 1)]
    edges += [Edge(2, 0, 1, 1.0, 1), Edge(3, 0, 3, 1.0, 0)]
    for mode in Mode:
        m, f = chain_model(accept_g, edges, 4, mode)
        assert m.flat.succ[0] == 1 and m.flat.reward[0] == 0.0
        assert_sampler_matches_reference(m, f, 3, 500, 40)
    # in the biased view no episode leaves, so ranks are episode indices
    cycle = np.random.default_rng(3).random(500) < 0.5
    rng = Tripwire(3, lambda call, size: cycle & (call > 0))
    pay, reached = simulate_batch(m, f, rng, 500, 40)
    assert not reached.any() and rng.sizes == [500] * 40
    assert np.all((pay == 0.0) == cycle)
    assert np.all(pay[~cycle] == (1.0 - 0.5**40) / 0.5)
    with pytest.raises(IndexError):
        simulate_batch_reference(m, f, Tripwire(3, rng.stuck), 500, 40)


def test_simulate_batch_skips_a_trap_entered_after_accepting_steps(accept_g):
    # two accepting steps, then the cycle s2 -> {s2, s3}, s3 -> s2 without reward
    edges = [Edge(0, 0, 1, 1.0, 0), Edge(1, 0, 2, 1.0, 0)]
    edges += [Edge(2, 0, 2, 0.5, 1), Edge(2, 0, 3, 0.5, 1), Edge(3, 0, 2, 1.0, 1)]
    for mode in Mode:
        m, f = chain_model(accept_g, edges, 4, mode)
        assert_sampler_matches_reference(m, f, 4, 500, 30)
        # after two steps every episode still alive is in the cycle
        rng = Tripwire(4, lambda call, size: np.full(size, call >= 2))
        pay, reached = simulate_batch(m, f, rng, 500, 30)
        assert len(rng.sizes) == 30 and len(set(rng.sizes[2:])) == 1
        if mode is Mode.BIASED_DISCOUNT:
            assert not reached.any() and np.all(pay == 1.5)
        elif mode is Mode.TOTAL_REWARD:
            assert np.all(pay[~reached] == 2.0) and set(pay[reached].tolist()) == {1.0, 2.0}
        else:
            assert np.array_equal(pay, reached.astype(float))
        with pytest.raises(IndexError):
            simulate_batch_reference(m, f, Tripwire(4, rng.stuck), 500, 30)


def test_simulate_batch_biased_never_reaches(never_product):
    # no episode can earn from the start, so every uniform is left unread
    m = augment(never_product, PayoffSpec(Mode.BIASED_DISCOUNT, 0.9))
    f = Strategy((0,))
    assert_sampler_matches_reference(m, f, 8, 100, 50)
    rng = Tripwire(8, lambda call, size: np.ones(size, dtype=bool))
    pay, reached = simulate_batch(m, f, rng, 100, 50)
    assert not reached.any() and not pay.any() and rng.sizes == [100] * 50
    with pytest.raises(IndexError):
        simulate_batch_reference(m, f, Tripwire(8, rng.stuck), 100, 50)
