"""Tabular Q-learning: schedules, update targets, replayability, sanity."""

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
    epsilon_at,
    run_episode,
    run_payoff,
    train,
)
from generators import random_instance
from reference_learner import ReferenceLearner, trap_states


def view(product, mode, zeta):
    return augment(product, PayoffSpec(mode, zeta))


def test_rejects_biased_view(i2_product):
    m = view(i2_product, Mode.BIASED_DISCOUNT, 0.9)
    with pytest.raises(ValueError):
        train(m, LearnConfig(episodes=1))
    with pytest.raises(ValueError):
        run_episode(m, QTable.for_model(m), LearnConfig(), np.random.default_rng(0))


def test_config_rejects_unusable_step_sizes():
    for field in ("alpha0", "visit_decay"):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=field):
                LearnConfig(**{field: bad})
    LearnConfig(alpha0=1e-6, visit_decay=1e-3)  # small but usable


def test_epsilon_schedule():
    cfg = LearnConfig(episodes=100, epsilon0=0.3, epsilon_final=0.01, anneal_fraction=0.5)
    assert epsilon_at(cfg, 0) == 0.3
    assert abs(epsilon_at(cfg, 25) - 0.155) <= 1e-15
    assert abs(epsilon_at(cfg, 50) - 0.01) <= 1e-15
    assert abs(epsilon_at(cfg, 99) - 0.01) <= 1e-15
    # a one-episode run never divides by zero
    assert epsilon_at(LearnConfig(episodes=1), 0) == 0.3


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
    got = np.array([stream.draw() for _ in range(5000)])  # crosses a refill
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


def test_exact_initialization_is_stable(i2_product):
    # seeded with the true pair values and a tiny step size, greedy play
    # keeps preferring a at s0 and the estimate stays put
    m = view(i2_product, Mode.TOTAL_REWARD, 0.9)
    cfg = LearnConfig(episodes=300, max_steps=80, alpha0=1e-6)
    table = QTable.for_model(m)
    table.q[0] = [5.0, 1.0]
    table.q[1] = [10.0]
    stream = UniformStream(np.random.default_rng(0))
    for _ in range(cfg.episodes):
        run_episode(m, table, cfg, stream, epsilon=0.0)
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
    stream = UniformStream(np.random.default_rng(0))
    for _ in range(cfg.episodes):
        run_episode(m, table, cfg, stream, epsilon=0.0)
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


def test_training_loop_replays_through_run_episode(i2_product):
    # the fast loop and the trace-recording entry point consume the same
    # draws, so driving run_episode by hand reproduces train exactly
    m = view(i2_product, Mode.TOTAL_REWARD, 0.9)
    cfg = LearnConfig(episodes=40, max_steps=60, seed=5)
    fast = train(m, cfg)

    table = QTable.for_model(m)
    stream = UniformStream(np.random.default_rng(cfg.seed))
    for ep in range(cfg.episodes):
        rec = run_episode(m, table, cfg, stream, epsilon=epsilon_at(cfg, ep))
        assert run_payoff(m.spec, rec) == fast.curve[ep][1]
        assert rec.reached_target == (rec.states[-1] == m.target)
    assert table.q == fast.table.q
    assert table.visits == fast.table.visits


def test_run_episode_wraps_plain_generators(i2_product):
    m = view(i2_product, Mode.REACH_TARGET, 0.9)
    cfg = LearnConfig(max_steps=50)
    t1 = QTable.for_model(m)
    t2 = QTable.for_model(m)
    r1 = run_episode(m, t1, cfg, np.random.default_rng(3))
    r2 = run_episode(m, t2, cfg, UniformStream(np.random.default_rng(3)))
    assert r1 == r2 and t1.q == t2.q


def test_run_episode_draws_one_chunk_per_plain_generator_call(never_product):
    # each call wraps the Generator in a new stream, which draws its first
    # chunk up front, even for an episode that starts in a trap and draws
    # nothing; callers sharing one Generator across calls rely on this
    m = view(never_product, Mode.TOTAL_REWARD, 0.9)
    rng = np.random.default_rng(11)
    for _ in range(3):
        run_episode(m, QTable.for_model(m), LearnConfig(max_steps=5), rng)
    fresh = np.random.default_rng(11)
    fresh.random(3 * UniformStream.CHUNK)
    assert rng.bit_generator.state == fresh.bit_generator.state


def test_run_episode_trace_shape(i2_product):
    m = view(i2_product, Mode.TOTAL_REWARD, 0.5)
    p = m.product
    diverted = 0
    for seed in range(4, 12):
        table = QTable.for_model(m)
        rec = run_episode(m, table, LearnConfig(max_steps=25), np.random.default_rng(seed))
        assert rec.states[0] == p.initial
        assert len(rec.states) == rec.steps + 1
        assert len(rec.labels) == len(rec.accepting) == rec.steps
        assert sum(sum(v) for v in table.visits) == rec.steps
        # every step is a branch of the recorded pair with the recorded symbol
        # and mark, leading to the next recorded state; a diverted final step
        # ends at the target instead
        for i in range(rec.steps):
            final_divert = rec.reached_target and i == rec.steps - 1
            assert any(
                b.symbol == rec.labels[i]
                and b.accepting == rec.accepting[i]
                and (final_divert or b.succ == rec.states[i + 1])
                for b in p.pairs[rec.states[i]][rec.actions[i]].branches
            )
        if rec.reached_target:
            diverted += 1
            assert rec.accepting[-1] and rec.states[-1] == m.target
    assert 0 < diverted < 8


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
    # the replayed traces count those episodes directly
    table = QTable.for_model(m)
    stream = UniformStream(np.random.default_rng(cfg.seed))
    reached = [
        run_episode(m, table, cfg, stream, epsilon=epsilon_at(cfg, ep)).reached_target
        for ep in range(cfg.episodes)
    ]
    assert res.truncated == reached.count(False)
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
        anneal_fraction=1.0,
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
        assert res.curve[ep][2] == epsilon_at(cfg, ep)


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
    assert stream.draw() == ref.rng.random()
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


def test_train_and_traces_match_reference_on_random_traps(monkeypatch):
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
            # run_episode records every step, the skipped trap steps included
            cfg = LearnConfig(max_steps=max_steps)
            table = QTable.for_model(m)
            stream = UniformStream(np.random.default_rng(i))
            ref = ReferenceLearner(m, cfg, np.random.default_rng(i))
            for ep in range(10):
                rec = run_episode(m, table, cfg, stream, epsilon=0.4)
                _, reached, (states, pairs, symbols, accepting) = ref.episode(0.4)
                if reached:
                    states[-1] = m.target
                assert rec.states == tuple(states)
                assert rec.actions == tuple(pairs)
                assert rec.labels == tuple(symbols)
                assert rec.accepting == tuple(accepting)
                assert rec.reached_target == reached
            assert table.q == ref.q and table.visits == ref.visits
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


def test_truncated_trace_ends_in_the_sink(i2_product):
    m = view(i2_product, Mode.TOTAL_REWARD, 0.9)
    p = m.product
    sink = p.state_name(2)
    assert sink == "sR|q0"
    cfg = LearnConfig(max_steps=40)
    for seed in range(20):
        rec = run_episode(m, QTable.for_model(m), cfg, np.random.default_rng(seed))
        if not rec.reached_target and rec.states[1] == 2:
            break
    else:
        raise AssertionError("no seed sent the episode straight into the sink")
    assert rec.steps == cfg.max_steps
    assert len(rec.actions) == len(rec.labels) == len(rec.accepting) == cfg.max_steps
    assert all(p.state_name(st) == sink for st in rec.states[1:])
    assert set(rec.actions[1:]) == {0} and not any(rec.accepting)
