"""Augmentation tables, realized payoffs and the payoff sampler."""

import math
import tracemalloc
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest

from buchirl import (
    Mode,
    PayoffSpec,
    Strategy,
    augment,
    build_product,
    evaluate_policy,
    simulate_batch,
    solve_optimal,
    tail_check,
)

from bruteforce import augment_reference, policy_value_bruteforce
from generators import (
    branchy_mdp,
    large_instance,
    mdp_from_rows,
    random_det_automaton,
    random_instance,
    random_strategy,
)


def pair_rows(m, st, k):
    """Pair k of state st as (succ, weight, reward) rows: the product's
    successors beside the view's branch columns."""
    p, flat = m.product, m.flat
    pid = p.pair_start[st] + k
    cut = slice(p.branch_start[pid], p.branch_start[pid + 1])
    return list(zip(*(c[cut].tolist() for c in (p.succ, flat.weight, flat.reward))))


def table(m):
    """The view's branch columns as rows per pair per state."""
    p = m.product
    return [
        [pair_rows(m, st, k) for k in range(p.pair_start[st + 1] - p.pair_start[st])]
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
    (succ, weight, reward), one per product branch; `leak` and `base` have
    one entry per product pair.
    """

    def test_total(self, i2_product):
        m = augment(i2_product, PayoffSpec(Mode.TOTAL_REWARD, 0.5))
        assert table(m) == [
            [
                [(1, 0.5, 0.0), (2, 0.5, 0.0)],
                [(2, 0.5, 1.0)],
            ],
            [[(1, 0.5, 1.0)]],
            [[(2, 1.0, 0.0)]],
        ]
        assert m.flat.leak.tolist() == [0.0, 0.5, 0.5, 0.0]
        assert m.flat.base.tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_reach(self, i2_product):
        m = augment(i2_product, PayoffSpec(Mode.REACH_TARGET, 0.5))
        # same dynamics as total, but only the leak into t pays
        assert table(m) == [
            [
                [(1, 0.5, 0.0), (2, 0.5, 0.0)],
                [(2, 0.5, 0.0)],
            ],
            [[(1, 0.5, 0.0)]],
            [[(2, 1.0, 0.0)]],
        ]
        assert m.flat.leak.tolist() == [0.0, 0.5, 0.5, 0.0]
        assert m.flat.base.tolist() == [0.0, 0.5, 0.5, 0.0]

    def test_biased(self, i2_product):
        m = augment(i2_product, PayoffSpec(Mode.BIASED_DISCOUNT, 0.5))
        # the product's own dynamics; accepting branches back up at zeta
        assert table(m) == [
            [
                [(1, 0.5, 0.0), (2, 0.5, 0.0)],
                [(2, 0.5, 1.0)],
            ],
            [[(1, 0.5, 1.0)]],
            [[(2, 1.0, 0.0)]],
        ]
        assert m.flat.leak.tolist() == [0.0, 0.0, 0.0, 0.0]
        assert m.flat.base.tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_self_loop_leak(self, self_loop_product):
        # one accepting self-loop keeps 0.9 and leaks 1 - 0.9 into t, which pays 1
        m = augment(self_loop_product, PayoffSpec(Mode.TOTAL_REWARD, 0.9))
        assert table(m) == [[[(0, 0.9, 1.0)]]]
        assert m.flat.leak.tolist() == [1.0 - 0.9]
        assert m.flat.base.tolist() == [0.9 + (1.0 - 0.9)]


def test_augment_preserves_pair_structure():
    # every view has one entry per product branch and per product pair, and
    # no branch of its own: its successors and offsets are the product's
    rng = np.random.default_rng(11)
    for _ in range(15):
        _, _, p = random_instance(rng)
        for mode in Mode:
            flat = augment(p, PayoffSpec(mode, 0.7)).flat
            assert flat._fields == ("weight", "reward", "base", "leak")
            assert [c.shape for c in flat] == [p.succ.shape] * 2 + [(p.n_pairs,)] * 2


def test_augment_stays_stochastic():
    # in the leaked views, per pair, the branch weights and the leak add up
    # to the product's mass; the biased view's weight over the product's
    # prob is its discount, zeta after an accepting branch and 1 elsewhere
    rng = np.random.default_rng(12)
    for _ in range(15):
        _, _, p = random_instance(rng)
        for mode in Mode:
            m = augment(p, PayoffSpec(mode, 0.3))
            if mode is Mode.BIASED_DISCOUNT:
                assert np.array_equal(m.flat.weight, p.prob * np.where(p.accepting, 0.3, 1.0))
                continue
            for st in range(p.n_states):
                for k in range(len(p.pairs[st])):
                    leak = m.flat.leak[p.pair_start[st] + k]
                    total = math.fsum([row[1] for row in pair_rows(m, st, k)] + [leak])
                    assert abs(total - 1.0) <= 1e-12
                    accepting = any(b.accepting for b in p.pairs[st][k].branches)
                    assert leak >= 0.0
                    assert (leak > 0.0) == (accepting and mode is not Mode.BIASED_DISCOUNT)


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
    edges = [(0, 0, i, 0.1, 0 if i == 9 else 1) for i in range(10)]
    edges += [(i, 0, i, 1.0, 1) for i in range(1, 10)]
    p = build_product(mdp_from_rows(states, ("a",), ("g", "n"), 0, tuple(edges)), accept_g)
    m = augment(p, PayoffSpec(Mode.BIASED_DISCOUNT, 0.5))

    class AlmostOne:
        """Every uniform just below 1, or only the branch picks when `coin`
        is set, with that value for every coin."""

        def __init__(self, coin=None):
            self.coin = coin

        def random(self, size):
            u = np.full(size, np.nextafter(1.0, 0.0))
            if self.coin is not None:
                u[1] = self.coin
            return u

    f = Strategy((0,) * p.n_states)
    pay, reached = simulate_batch(m, f, AlmostOne(), 3, 5)
    assert pay.tolist() == [1.0] * 3 and not reached.any()
    # in the total view that last branch is still taken, and its coin then
    # decides: below 1 - zeta it diverts into t, which pays 1, and otherwise
    # it pays its reward and moves on to the dead loop at s9
    m = augment(p, PayoffSpec(Mode.TOTAL_REWARD, 0.5))
    pay, reached = simulate_batch(m, f, AlmostOne(), 3, 5)
    assert pay.tolist() == [1.0] * 3 and not reached.any()
    pay, reached = simulate_batch(m, f, AlmostOne(0.0), 3, 5)
    assert pay.tolist() == [1.0] * 3 and reached.all()
    # a pair without accepting branches keeps the draw on its own last
    # branch, into the accepting loop at t9, and never hands it to the next
    # pair, s0's second, whose one branch goes to the dead loop at `spill`;
    # the loop then pays 1 on each of the four steps left
    names = ("s0", *(f"t{i}" for i in range(10)), "spill")
    edges = [(0, 0, 1 + i, 0.1, 1) for i in range(10)] + [(0, 1, 11, 1.0, 1)]
    edges += [(1 + i, 0, 1 + i, 1.0, 0 if i == 9 else 1) for i in range(10)] + [(11, 0, 11, 1.0, 1)]
    p = build_product(mdp_from_rows(names, ("a", "b"), ("g", "n"), 0, tuple(edges)), accept_g)
    assert p.branch_count[:2].tolist() == [10, 1] and p.succ[10] == p.states.index((11, 0))
    m = augment(p, PayoffSpec(Mode.TOTAL_REWARD, 0.5))
    pay, reached = simulate_batch(m, Strategy((0,) * p.n_states), AlmostOne(), 3, 5)
    assert pay.tolist() == [4.0] * 3 and not reached.any()


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


def assert_near_t_step_value(sample, exact):
    """The sample mean is within 5 standard errors of `exact`, plus 1e-12
    relative for rounding: a strategy that pays the same every time gives a
    sample with no spread, whose mean and exact sweeps still round.

    A sample of all zeros or all ones, such as the reached flags when every
    episode reaches the target while the exact chance stays below 1, passes
    instead when its chance, exact**N for all ones and (1 - exact)**N for
    all zeros, is at least 1e-6."""
    size, mean = sample.size, sample.mean()
    if sample.std() == 0.0 and mean in (0.0, 1.0):
        chance = exact if mean == 1.0 else 1.0 - exact
        assert chance >= 0.0 and chance**size >= 1e-6, (mean, exact, size)
        return
    tol = 5.0 * sample.std() / math.sqrt(size) + 1e-12 * max(1.0, abs(exact))
    assert abs(mean - exact) <= tol, (mean, exact, tol)


def test_simulate_batch_matches_t_step_values(corpus_products):
    # over T steps the mean payoff estimates the T-step expected payoff,
    # which T plain Bellman sweeps from zero compute exactly, and the
    # reached rate the T-step value of the same strategy in the reach view
    rng = np.random.default_rng(17)
    products = list(corpus_products) + [random_instance(rng)[2] for _ in range(20)]
    products.append(large_instance(rng)[2])
    episodes, steps = 4000, 100
    for i, p in enumerate(products):
        reach = augment(p, PayoffSpec(Mode.REACH_TARGET, 0.9))
        for mode in Mode:
            m = augment(p, PayoffSpec(mode, 0.9))
            pool = [solve_optimal(m).policy]
            pool += [random_strategy(p, rng) for _ in range(2)]
            for f in pool:
                pay, reached = simulate_batch(m, f, np.random.default_rng(i), episodes, steps)
                value = policy_value_bruteforce(m, f.choice, tol=-1.0, sweeps=steps)
                assert_near_t_step_value(pay, value[p.initial])
                if mode is Mode.BIASED_DISCOUNT:
                    assert not reached.any()
                    continue
                rate = policy_value_bruteforce(reach, f.choice, tol=-1.0, sweeps=steps)
                assert_near_t_step_value(reached.astype(float), rate[p.initial])


class Recording:
    """A generator that logs the size of every `random` call."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return self.rng.random(size)


def chain_model(accept_g, edges, n_states, mode):
    """One-action MDP on s0 .. s(n-1) under GF g, in one view at zeta 0.5."""
    states = tuple(f"s{i}" for i in range(n_states))
    p = build_product(mdp_from_rows(states, ("a",), ("g", "n"), 0, tuple(edges)), accept_g)
    return augment(p, PayoffSpec(mode, 0.5)), Strategy((0,) * p.n_states)


def sample_views(accept_g, edges, n_states, seed, episodes, max_steps):
    """simulate_batch in each view on one seed: {mode: (pay, reached, sizes)}."""
    out = {}
    for mode in Mode:
        m, f = chain_model(accept_g, edges, n_states, mode)
        rng = Recording(seed)
        out[mode] = (*simulate_batch(m, f, rng, episodes, max_steps), rng.sizes)
    return out


def assert_draws_match_moves(sizes, moves):
    """Step t of a leaked view draws a branch pick and a coin per episode
    that moves on it, those with moves > t, and no step draws once none
    moves."""
    assert sizes == [(2, int(np.sum(moves > t))) for t in range(int(moves.max(initial=0)))]


# Trap shapes the learner's trap rule, one pair whose one branch is a
# non-accepting self-loop, does not cover.  An episode that enters one
# stops, and so does one that reaches the target.  In the total view of
# these chains every move of an episode that can still earn pays 1, so its
# payoff counts its moves; the reach view has the same dynamics, so on the
# same seed it moves the same episodes and reaches with the same flags.


def test_simulate_batch_skips_a_zero_reward_cycle(accept_g):
    # s0 sends half the episodes into the cycle s1 <-> s2, which never earns,
    # and half onto the accepting loop at s3; s1 is product state 1, and the
    # first branch of s0, which draws below 0.5 take
    edges = [(0, 0, 1, 0.5, 1), (0, 0, 3, 0.5, 0), (1, 0, 2, 1.0, 1)]
    edges += [(2, 0, 1, 1.0, 1), (3, 0, 3, 1.0, 0)]
    m, _ = chain_model(accept_g, edges, 4, Mode.TOTAL_REWARD)
    assert m.product.succ[0] == 1 and m.flat.reward[0] == 0.0
    out = sample_views(accept_g, edges, 4, 3, 500, 40)
    cycle = np.random.default_rng(3).random(500) < 0.5
    # in the biased view no episode leaves the loop, which pays 0.5**t on move t
    pay, reached, sizes = out[Mode.BIASED_DISCOUNT]
    assert not reached.any() and sizes == [500] + [int(np.sum(~cycle))] * 39
    assert np.all((pay == 0.0) == cycle)
    assert np.all(pay[~cycle] == (1.0 - 0.5**40) / 0.5)
    pay, reached, sizes = out[Mode.TOTAL_REWARD]
    assert np.all((pay == 0.0) == cycle) and np.all(reached == ~cycle)
    assert_draws_match_moves(sizes, np.where(cycle, 1.0, pay))
    assert len(sizes) < 40  # every loop episode leaked before the last step
    pay, reached, sizes = out[Mode.REACH_TARGET]
    assert sizes == out[Mode.TOTAL_REWARD][2]
    assert np.array_equal(reached, out[Mode.TOTAL_REWARD][1])
    assert np.array_equal(pay, reached.astype(float))


def test_simulate_batch_skips_a_trap_entered_after_accepting_steps(accept_g):
    # two accepting steps, then the cycle s2 -> {s2, s3}, s3 -> s2 without reward
    edges = [(0, 0, 1, 1.0, 0), (1, 0, 2, 1.0, 0)]
    edges += [(2, 0, 2, 0.5, 1), (2, 0, 3, 0.5, 1), (3, 0, 2, 1.0, 1)]
    out = sample_views(accept_g, edges, 4, 4, 500, 30)
    pay, reached, sizes = out[Mode.BIASED_DISCOUNT]
    assert not reached.any() and np.all(pay == 1.5) and sizes == [500, 500]
    pay, reached, sizes = out[Mode.TOTAL_REWARD]
    assert np.all(pay[~reached] == 2.0) and set(pay[reached].tolist()) == {1.0, 2.0}
    assert_draws_match_moves(sizes, pay)
    pay, reached, sizes = out[Mode.REACH_TARGET]
    assert sizes == out[Mode.TOTAL_REWARD][2]
    assert np.array_equal(reached, out[Mode.TOTAL_REWARD][1])
    assert np.array_equal(pay, reached.astype(float))


def test_simulate_batch_biased_never_reaches(never_product):
    # no episode can earn from the start, so none moves and nothing is drawn
    for mode in Mode:
        m = augment(never_product, PayoffSpec(mode, 0.9))
        rng = Recording(8)
        pay, reached = simulate_batch(m, Strategy((0,)), rng, 100, 50)
        assert not reached.any() and not pay.any() and rng.sizes == []


def simulate_reference(m, f, rng, episodes, max_steps):
    """`simulate_batch`'s draw contract, one episode at a time.

    Each step draws, for the k moving episodes in episode order,
    `rng.random((2, k))` in a leaked view and `rng.random(k)` in the biased
    one.  An episode picks `bisect_right` of its draw, row 0 in a leaked
    view, over the running sums of its pair's product probabilities,
    searching all but the last entry, which takes the rest.  In a leaked
    view an accepting branch whose coin, row 1, is below 1 - zeta steps into
    t and pays 1.  An episode moves while it is in a state that can still
    earn, found by a plain fixpoint from the pairs that pay on some branch
    or leak.
    """
    p, flat = m.product, m.flat
    leaked = m.mode is not Mode.BIASED_DISCOUNT
    rows = []  # per state: running sums, successors, accepting marks and rewards of its chosen pair
    for st, k in enumerate(f.choice):
        pid = p.pair_start[st] + k
        cut = slice(p.branch_start[pid], p.branch_start[pid + 1])
        prob, succ, acc, rew = (c[cut].tolist() for c in (p.prob, p.succ, p.accepting, flat.reward))
        rows.append((list(accumulate(prob)), succ, acc, rew, leaked and any(acc)))
    earn = [leak or max(rew) > 0.0 for _, _, _, rew, leak in rows]
    grew = True
    while grew:
        grew = False
        for st, (_, succ, _, _, _) in enumerate(rows):
            if not earn[st] and any(earn[t] for t in succ):
                earn[st] = grew = True
    pay, disc, reached = [0.0] * episodes, [1.0] * episodes, [False] * episodes
    moving = [(i, p.initial) for i in range(episodes)] if earn[p.initial] else []
    for _ in range(max_steps):
        if not moving:
            break
        if leaked:
            picks, coins = rng.random((2, len(moving))).tolist()
        else:
            picks, coins = rng.random(len(moving)).tolist(), [None] * len(moving)
        still = []
        for (i, st), u, coin in zip(moving, picks, coins):
            cum, succ, acc, rew, _ = rows[st]
            j = bisect_right(cum, u, 0, len(cum) - 1)
            if leaked and acc[j] and coin < 1.0 - m.zeta:
                pay[i] += 1.0
                reached[i] = True
                continue
            if leaked:
                pay[i] += rew[j]
            else:
                pay[i] += disc[i] * rew[j]
                disc[i] *= m.zeta if rew[j] > 0.0 else 1.0
            if earn[succ[j]]:
                still.append((i, succ[j]))
        moving = still
    return np.array(pay), np.array(reached)


def test_simulate_batch_matches_step_by_step_reference():
    # payoffs, flags and the generator's state bit for bit, in every view,
    # on products whose pairs have 1 to 12 branches and leak or not, and
    # whose accepting branches divert and survive
    rng = np.random.default_rng(27)
    products = [random_instance(rng)[2] for _ in range(8)]
    products.append(large_instance(rng)[2])
    products += [build_product(branchy_mdp(rng), random_det_automaton(rng)) for _ in range(2)]
    assert max(p.branch_count.max() for p in products) >= 10
    reached_any = paid_any = 0
    for i, p in enumerate(products):
        for mode in Mode:
            for zeta in (0.3, 0.9, 0.99):
                m = augment(p, PayoffSpec(mode, zeta))
                pool = [solve_optimal(m).policy] + [random_strategy(p, rng) for _ in range(2)]
                for f in pool:
                    got_rng, want_rng = np.random.default_rng(i), np.random.default_rng(i)
                    got = simulate_batch(m, f, got_rng, 100, 40)
                    want = simulate_reference(m, f, want_rng, 100, 40)
                    for g, w in zip(got, want):
                        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (i, mode, zeta)
                    assert got_rng.bit_generator.state == want_rng.bit_generator.state
                    reached_any += got[1].any()
                    paid_any += got[0].any()
    assert reached_any > 20 and paid_any > 40


def test_tail_check_memory_stays_linear_in_a_wide_pair(accept_g):
    # one pair of 3,000 branches beside 2,999 one-branch states: the sampler
    # must not give every state a row as wide as the widest pair
    n = 3000
    names = tuple(f"s{i}" for i in range(n))
    probs = [1.0 / n] * n
    probs[-1] = 1.0 - math.fsum(probs[:-1])
    edges = [(0, 0, t, pr, 1) for t, pr in enumerate(probs)]
    edges += [(s, 0, 0, 1.0, 0) for s in range(1, n)]
    p = build_product(mdp_from_rows(names, ("a",), ("g", "n"), 0, tuple(edges)), accept_g)
    assert p.n_states == n and p.branch_count.max() == n
    m = augment(p, PayoffSpec(Mode.TOTAL_REWARD, 0.9))
    tracemalloc.start()
    try:
        check = tail_check(m, Strategy((0,) * n), 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.ok and check.empirical[0] > 0.0
    assert peak < 50 * 2**20, peak
