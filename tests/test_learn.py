"""Tabular Q-learning: schedules, update targets, the draw contract, sanity."""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

import buchirl.learn
from buchirl import (
    LearnConfig,
    Mode,
    PayoffSpec,
    QTable,
    UniformStream,
    augment,
    train,
)
from generators import mdp_from_rows, random_instance
from reference_learner import ReferenceLearner, epsilon, trap_states


def view(product, mode, zeta):
    return augment(product, PayoffSpec(mode, zeta))


def test_rejects_biased_view(i2_product):
    m = view(i2_product, Mode.BIASED_DISCOUNT, 0.9)
    with pytest.raises(ValueError):
        train(m, LearnConfig(episodes=1))
    with pytest.raises(ValueError):
        buchirl.learn._run(m, QTable.for_model(m), LearnConfig(episodes=1))


def test_config_rejects_unusable_step_sizes():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha0"):
            LearnConfig(alpha0=bad)
    LearnConfig(alpha0=1e-6)  # small but usable
    for field in ("epsilon0", "epsilon_final"):
        for bad in (1.7, -0.5, 1.0 + 1e-12, -math.inf, math.inf, math.nan):
            with pytest.raises(ValueError, match=field):
                LearnConfig(**{field: bad})
    # the ends of each range are usable
    LearnConfig(epsilon0=1.0, epsilon_final=0.0)
    LearnConfig(epsilon0=0.0, epsilon_final=1.0)


def test_config_rejects_negative_counts(i2_product):
    for field in ("episodes", "max_steps"):
        with pytest.raises(ValueError, match=field):
            LearnConfig(**{field: -3})
    # zero episodes is an empty run; zero steps stops every episode at once
    m = view(i2_product, Mode.TOTAL_REWARD, 0.9)
    assert train(m, LearnConfig(episodes=0)).curve == []
    res = train(m, LearnConfig(episodes=3, max_steps=0))
    assert res.truncated == 3 and res.table.visits[0] == [0, 0]


def test_epsilon_schedule(i2_product):
    # epsilon falls linearly to its floor over the first ANNEAL_FRACTION of
    # the episodes; the curve's third column is the epsilon each one ran with
    assert buchirl.learn.ANNEAL_FRACTION == 0.5
    m = view(i2_product, Mode.TOTAL_REWARD, 0.9)
    cfg = LearnConfig(episodes=100, max_steps=5, epsilon0=0.3, epsilon_final=0.01)
    eps = [c[2] for c in train(m, cfg).curve]
    assert eps == [epsilon(cfg, ep) for ep in range(100)]
    assert eps[0] == 0.3
    assert abs(eps[25] - 0.155) <= 1e-15
    assert abs(eps[50] - 0.01) <= 1e-15
    assert abs(eps[99] - 0.01) <= 1e-15
    # a one-episode run never divides by zero
    assert train(m, LearnConfig(episodes=1, max_steps=5)).curve[0][2] == 0.3


def test_qtable_shape_and_greedy(i2_product):
    m = view(i2_product, Mode.TOTAL_REWARD, 0.9)
    t = QTable.for_model(m)
    assert [len(row) for row in t.q] == [2, 1, 1]
    assert t.visits == [[0, 0], [0], [0]]
    t.q[0] = [1.0, 1.0]
    assert t.greedy().choice == (0, 0, 0)  # first max on exact ties
    t.q[0] = [1.0, 1.5]
    assert t.greedy().choice == (1, 0, 0)
    assert QTable.for_model(m, init=3.5).q[1] == [3.5]


def test_uniform_stream_is_transparent():
    stream = UniformStream(np.random.default_rng(7))
    got = np.array([next(stream.draws) for _ in range(5000)])  # crosses a refill
    want = np.random.default_rng(7).random(5000)
    assert np.array_equal(got, want)


def test_self_loop_episode_lengths(self_loop_product):
    # every step pays 1 and survives with prob 0.9, so episode totals are
    # geometric with mean 10
    m = view(self_loop_product, Mode.TOTAL_REWARD, 0.9)
    res = train(m, LearnConfig(episodes=2000, max_steps=500, seed=3))
    totals = np.array([t for _, t, _ in res.curve])
    sigma = math.sqrt(0.9) / 0.1
    assert abs(totals.mean() - 10.0) <= 3.0 * sigma / math.sqrt(totals.size)
    # one update per step, so visits count exactly the collected reward
    assert res.table.visits[0][0] == int(totals.sum())
    # the estimate wanders around 10 with sizable step-size noise; only the
    # scale is asserted here
    assert 5.0 <= res.table.q[0][0] <= 15.0


def test_never_has_nothing_to_learn(never_product):
    m = view(never_product, Mode.REACH_TARGET, 0.9)
    res = train(m, LearnConfig(episodes=50, max_steps=60, seed=1))
    assert all(t == 0.0 for _, t, _ in res.curve)
    assert res.table.q == [[0.0]]
    assert res.table.visits == [[50 * 60]]
    assert res.truncated == 50  # no episode can reach the target


def run_greedy_episodes(model, table, cfg):
    """`cfg.episodes` purely greedy episodes of the training loop on a preset
    table: epsilon0 = epsilon_final = 0 makes every episode's epsilon 0.0."""
    greedy = dataclasses.replace(cfg, epsilon0=0.0, epsilon_final=0.0)
    buchirl.learn._run(model, table, greedy)


def test_exact_initialization_is_stable(i2_product):
    # seeded with the true pair values and a tiny step size, greedy play
    # keeps preferring a at s0 and the estimate stays put
    m = view(i2_product, Mode.TOTAL_REWARD, 0.9)
    cfg = LearnConfig(episodes=300, max_steps=80, alpha0=1e-6)
    table = QTable.for_model(m)
    table.q[0] = [5.0, 1.0]
    table.q[1] = [10.0]
    run_greedy_episodes(m, table, cfg)
    assert table.greedy().choice[0] == 0
    assert abs(table.q[0][0] - 5.0) <= 1e-2
    assert abs(table.q[1][0] - 10.0) <= 1e-2


def test_exact_initialization_breaks_at_full_step(i2_product):
    # same start, alpha near 1: the first episode that drifts to sR
    # overwrites q(s0, a) with ~0 and greedy flips to b for good, since
    # q(s0, b) = 1 is a fixpoint of its own update
    m = view(i2_product, Mode.TOTAL_REWARD, 0.9)
    cfg = LearnConfig(episodes=60, max_steps=80, alpha0=1.0)
    table = QTable.for_model(m)
    table.q[0] = [5.0, 1.0]
    table.q[1] = [10.0]
    run_greedy_episodes(m, table, cfg)
    assert table.greedy().choice[0] == 1
    assert table.q[0][0] < table.q[0][1] == 1.0


def test_train_is_reproducible(i2_product):
    m = view(i2_product, Mode.TOTAL_REWARD, 0.9)
    cfg = LearnConfig(episodes=30, max_steps=50, seed=9)
    a = train(m, cfg)
    b = train(m, cfg)
    assert a.table.q == b.table.q
    assert a.table.visits == b.table.visits
    assert a.curve == b.curve
    c = train(m, LearnConfig(episodes=30, max_steps=50, seed=10))
    assert c.curve != a.curve


def test_reach_estimates_stay_in_unit_interval(i2_product):
    m = view(i2_product, Mode.REACH_TARGET, 0.5)
    res = train(m, LearnConfig(episodes=1500, max_steps=60, seed=11))
    for row in res.table.q:
        for q in row:
            assert -1e-6 <= q <= 1.0 + 1e-6


def test_total_estimates_stay_nonnegative(i2_product):
    m = view(i2_product, Mode.TOTAL_REWARD, 0.9)
    res = train(m, LearnConfig(episodes=1500, max_steps=60, seed=12))
    for row in res.table.q:
        for q in row:
            assert q >= 0.0 and math.isfinite(q)


def test_optimistic_initialization(i2_product):
    m = view(i2_product, Mode.TOTAL_REWARD, 0.5)
    res = train(m, LearnConfig(episodes=1, max_steps=5, seed=0, optimistic=True))
    # cap of the total view at zeta = 0.5; untouched entries keep it
    for row, vrow in zip(res.table.q, res.table.visits):
        for q, v in zip(row, vrow):
            if v == 0:
                assert q == 2.0
    mr = view(i2_product, Mode.REACH_TARGET, 0.5)
    rr = train(mr, LearnConfig(episodes=1, max_steps=5, seed=0, optimistic=True))
    assert any(q == 1.0 for row in rr.table.q for q in row)


def test_truncation_caps_episode_totals(self_loop_product):
    m = view(self_loop_product, Mode.TOTAL_REWARD, 0.9)
    cfg = LearnConfig(episodes=200, max_steps=3, seed=6)
    res = train(m, cfg)
    assert max(t for _, t, _ in res.curve) <= 3.0
    assert res.table.visits[0][0] <= 600
    # an episode is truncated when none of its 3 accepting steps diverts;
    # the step-by-step reference counts those episodes directly
    _, truncated = ReferenceLearner(m, cfg, np.random.default_rng(cfg.seed)).train()
    assert res.truncated == truncated
    mean = 200 * 0.9**3
    assert abs(res.truncated - mean) <= 4.0 * math.sqrt(mean * (1 - 0.9**3))


def test_learns_i2_policy(i2_product):
    # a at s0 only looks good once q(sA) has grown, and q(sA) only grows
    # while a is still being tried; a sustained exploration floor avoids
    # locking onto b's immediate payoff of 1
    m = view(i2_product, Mode.TOTAL_REWARD, 0.9)
    cfg = LearnConfig(
        episodes=10_000,
        max_steps=120,
        seed=0,
        epsilon0=0.5,
        epsilon_final=0.2,
    )
    res = train(m, cfg)
    assert res.strategy.choice[0] == 0
    assert 3.5 <= res.table.q[0][0] <= 6.5
    assert 8.5 <= res.table.q[1][0] <= 11.5
    # both fixpoints that hold exactly: b pays 1 then bootstraps on sR's 0,
    # and sR itself never collects anything
    assert res.table.q[0][1] == 1.0
    assert res.table.q[2][0] == 0.0
    assert len(res.curve) == 10_000
    for ep in (0, 4999, 9999):
        assert res.curve[ep][0] == ep
        assert res.curve[ep][2] == epsilon(cfg, ep)


def test_rounding_slack_goes_to_the_pairs_last_branch(accept_g, monkeypatch):
    # s0's first pair has ten branches of 0.1, whose partial sums end at
    # 0.9999999999999999, and its second pair follows it in the flat
    # columns with one branch into `spill`.  Every draw is the largest
    # float below 1: the branch draw exceeds every partial sum the search
    # reads, so it takes the pair's last branch, never the next pair's first
    top = np.nextafter(1.0, 0.0).item()
    assert sum([0.1] * 10) == top
    names = ("s0", *(f"t{i}" for i in range(10)), "spill")
    rows = [(0, 0, 1 + i, 0.1, 0 if i == 9 else 1) for i in range(10)]
    rows += [(0, 1, 11, 1.0, 1)]
    rows += [(1 + i, 0, 0, 1.0, 1) for i in range(10)] + [(11, 0, 11, 1.0, 1)]
    p = buchirl.build_product(mdp_from_rows(names, ("a", "b"), ("g", "n"), 0, rows), accept_g)
    assert p.pair_count[0] == 2 and p.branch_count[:2].tolist() == [10, 1]
    m = view(p, Mode.TOTAL_REWARD, 0.9)
    cfg = LearnConfig(episodes=20, max_steps=30, seed=0)

    class Pinned(UniformStream):
        def __init__(self, rng):
            self.rng, self.draws = rng, itertools.repeat(top)

    monkeypatch.setattr(buchirl.learn, "UniformStream", Pinned)
    res = train(m, cfg)
    ref = ReferenceLearner(m, cfg, type("PinnedRng", (), {"random": lambda self: top})())
    curve, truncated = ref.train()
    assert (res.table.q, res.table.visits, res.curve, res.truncated) == (ref.q, ref.visits, curve, truncated)
    visited = {p.state_name(s).split("|")[0] for s, v in enumerate(res.table.visits) if sum(v)}
    assert visited == {"s0", "t9"}


def train_with_stream(model, cfg, monkeypatch):
    """`train`, plus the draw stream it used."""
    streams = []

    class Recorded(UniformStream):
        def __init__(self, rng):
            super().__init__(rng)
            streams.append(self)

    monkeypatch.setattr(buchirl.learn, "UniformStream", Recorded)
    res = train(model, cfg)
    monkeypatch.undo()
    (stream,) = streams
    return res, stream


def assert_matches_reference(model, cfg, monkeypatch):
    res, stream = train_with_stream(model, cfg, monkeypatch)
    ref = ReferenceLearner(model, cfg, np.random.default_rng(cfg.seed))
    curve, truncated = ref.train()
    assert res.table.q == ref.q
    assert res.table.visits == ref.visits
    assert res.curve == curve
    assert res.truncated == truncated
    # the stream stands where the reference's draws end: its generator has
    # given the chunks those draws needed, and no more
    chunks = max(1, math.ceil(ref.draws / UniformStream.CHUNK))
    fresh = np.random.default_rng(cfg.seed)
    fresh.random(chunks * UniformStream.CHUNK)
    assert stream.rng.bit_generator.state == fresh.bit_generator.state
    assert next(stream.draws) == ref.rng.random()
    return ref


@pytest.mark.parametrize("mode", [Mode.TOTAL_REWARD, Mode.REACH_TARGET])
@pytest.mark.parametrize("optimistic", [False, True])
def test_train_matches_reference_on_i2(i2_product, mode, optimistic, monkeypatch):
    m = view(i2_product, mode, 0.9)
    cfg = LearnConfig(episodes=2000, max_steps=200, seed=2, optimistic=optimistic)
    ref = assert_matches_reference(m, cfg, monkeypatch)
    assert ref.visits[2][0] > 0  # episodes did fall into the sink sR|q0


@pytest.mark.parametrize("mode", [Mode.TOTAL_REWARD, Mode.REACH_TARGET])
@pytest.mark.parametrize("optimistic", [False, True])
def test_train_matches_reference_when_starting_in_a_trap(
    never_product, mode, optimistic, monkeypatch
):
    m = view(never_product, mode, 0.9)
    cfg = LearnConfig(episodes=7, max_steps=13, seed=4, optimistic=optimistic)
    ref = assert_matches_reference(m, cfg, monkeypatch)
    assert ref.draws == 0


def test_train_matches_reference_on_random_traps(monkeypatch):
    rng = np.random.default_rng(20240502)
    products = []
    while len(products) < 20:
        _, _, p = random_instance(rng)
        if trap_states(p):
            products.append(p)
    entered = 0
    for i, p in enumerate(products):
        max_steps = 1 + 3 * i  # 1 to 58
        for mode in (Mode.TOTAL_REWARD, Mode.REACH_TARGET):
            m = view(p, mode, 0.8)
            for optimistic in (False, True):
                cfg = LearnConfig(
                    episodes=40, max_steps=max_steps, seed=i, optimistic=optimistic
                )
                ref = assert_matches_reference(m, cfg, monkeypatch)
                entered += any(ref.visits[s][0] for s in trap_states(p))
    print(f"{entered} of 80 training runs entered a trap")
    assert entered >= 40


def test_trap_steps_are_booked_not_simulated(never_product):
    m = view(never_product, Mode.TOTAL_REWARD, 0.9)
    start = time.perf_counter()
    res = train(m, LearnConfig(episodes=20, max_steps=10**9, seed=0))
    assert time.perf_counter() - start < 1.0
    assert res.table.visits == [[20 * 10**9]]
    assert res.table.q == [[0.0]]
    assert res.truncated == 20
    assert all(t == 0.0 for _, t, _ in res.curve)



def test_train_matches_reference_on_wide_rows(monkeypatch):
    # nondeterministic automata give states with three or more pairs, where
    # ties, exploration among many pairs and rescans of a row's best entry
    # all happen; optimistic tables start with every row tied
    rng = np.random.default_rng(20240503)
    products = []
    while len(products) < 12:
        _, _, p = random_instance(rng, nondet=True)
        if max(np.diff(p.pair_start)) >= 3:
            products.append(p)
    wide_steps = 0
    for i, p in enumerate(products):
        wide = [s for s in range(p.n_states) if p.pair_start[s + 1] - p.pair_start[s] >= 3]
        for mode in (Mode.TOTAL_REWARD, Mode.REACH_TARGET):
            m = view(p, mode, 0.8)
            for optimistic in (False, True):
                cfg = LearnConfig(
                    episodes=60, max_steps=2 + 4 * i, seed=i, optimistic=optimistic
                )
                ref = assert_matches_reference(m, cfg, monkeypatch)
                wide_steps += sum(sum(ref.visits[s]) for s in wide)
    print(f"{wide_steps} steps taken in states with three or more pairs")
    assert wide_steps >= 1000
