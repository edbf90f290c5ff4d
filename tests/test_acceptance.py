"""Nine end-to-end acceptance checks, one printed verdict line each.

Checks 1 through 4 share a single sweep over 200 random instances (at most
6 MDP states, 3 actions, 3 automaton states, deterministic complete
automata), each cross-checked at zeta in {0.5, 0.9, 0.99} with the two
greedy-optimal policies plus 20 random ones.
"""

import math
import time

import numpy as np
import pytest

from buchirl import (
    LearnConfig,
    Mode,
    PayoffSpec,
    Strategy,
    augment,
    buchi_value,
    greedy_policy,
    policy_buchi_probability,
    simulate_batch,
    solve_optimal,
    tail_check,
    threshold_sweep,
    train,
    verify_instance,
)

from bruteforce import buchi_value_bruteforce
from generators import random_instance, small_instance

GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))


def _verdict(num: int, ok: bool, detail: str) -> str:
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    return detail


@pytest.fixture(scope="module")
def sweep():
    rng = np.random.default_rng(20240501)
    start = time.perf_counter()
    agg = {
        "instances": 0,
        "checked": 0,
        "identity": 0.0,
        "equality": 0.0,
        "excess": 0.0,
        "mismatches": 0,
    }
    for k in range(200):
        m, a, _ = random_instance(rng)
        rep = verify_instance(m, a, zetas=(0.5, 0.9, 0.99), n_random=20, seed=k)
        agg["instances"] += 1
        agg["checked"] += rep.checked
        agg["identity"] = max(agg["identity"], rep.identity_max_error)
        agg["equality"] = max(agg["equality"], rep.equality_max_error)
        agg["excess"] = max(agg["excess"], rep.bound_max_excess)
        agg["mismatches"] += rep.prob1_mismatches
    agg["elapsed"] = time.perf_counter() - start
    return agg


def test_criterion_1_reach_is_scaled_total(sweep):
    ok = (
        sweep["instances"] == 200
        and sweep["checked"] == 200 * 3 * 22
        and sweep["identity"] <= 1e-8
        and sweep["elapsed"] <= 60.0
    )
    detail = _verdict(
        1,
        ok,
        "max |PReach - (1-zeta)*ETotal| = {:.2e} over {} policy checks "
        "({:.1f}s)".format(sweep["identity"], sweep["checked"], sweep["elapsed"]),
    )
    assert ok, detail


def test_criterion_2_total_equals_biased(sweep):
    ok = sweep["equality"] <= 1e-12
    detail = _verdict(
        2,
        ok,
        "max |ETotal - EDisct| = {:.2e} across optimal values and policies".format(
            sweep["equality"]
        ),
    )
    assert ok, detail


def test_criterion_3_total_reward_bounds(sweep):
    ok = sweep["excess"] <= 1e-9
    detail = _verdict(
        3,
        ok,
        "worst ETotal excursion outside [0, 1/(1-zeta)] = {:.2e}".format(
            sweep["excess"]
        ),
    )
    assert ok, detail


def test_criterion_4_cap_iff_almost_sure(sweep):
    ok = sweep["mismatches"] == 0
    detail = _verdict(
        4,
        ok,
        "{} disagreements between ETotal = cap and oracle psat = 1 over {} "
        "policy checks".format(sweep["mismatches"], sweep["checked"]),
    )
    assert ok, detail


def test_criterion_5_i2_threshold(i2, accept_g, i2_product):
    rep = threshold_sweep(i2, accept_g, GRID)
    opt = buchi_value(i2_product).at_initial()
    by_zeta = {row.zeta: row for row in rep.rows}
    myopic = all(by_zeta[z].policy.startswith("b@q0") for z in (0.1, 0.2, 0.3, 0.4))
    patient = all(by_zeta[z].policy.startswith("a@q0") for z in (0.6, 0.7, 0.8, 0.9))
    ok = (
        abs(opt - 0.5) <= 1e-10
        and myopic
        and patient
        and rep.empirical_zeta0 == 0.6
    )
    detail = _verdict(
        5,
        ok,
        "I2: psat* = {:.12f}, greedy plays b below and a above the switch, "
        "empirical zeta0 = {}".format(opt, rep.empirical_zeta0),
    )
    assert ok, detail


def test_criterion_6_oracle_vs_enumeration():
    rng = np.random.default_rng(20240502)
    worst = 0.0
    n = 100
    for _ in range(n):
        _, _, p = small_instance(rng)
        got = buchi_value(p).values
        want = buchi_value_bruteforce(p)
        worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst <= 1e-8
    detail = _verdict(
        6,
        ok,
        "max |oracle - exhaustive positional enumeration| = {:.2e} on {} "
        "instances with <= 5 product states".format(worst, n),
    )
    assert ok, detail


def test_criterion_7_learning_on_i2(i2_product):
    model = augment(i2_product, PayoffSpec(Mode.TOTAL_REWARD, 0.9))
    start = time.perf_counter()
    res = train(model, LearnConfig(seed=0))
    elapsed = time.perf_counter() - start
    q = res.table.q[0][0]
    learned_psat = float(policy_buchi_probability(i2_product, res.strategy)[0])
    opt_psat = buchi_value(i2_product).at_initial()
    ok = (
        res.strategy.choice[0] == 0
        and abs(learned_psat - opt_psat) <= 1e-9
        and 4.5 <= q <= 5.5
        and elapsed <= 30.0
    )
    detail = _verdict(
        7,
        ok,
        "greedy policy plays a at s0 (psat {:.3f} = optimum), q(s0,a) = {:.4f} "
        "in [4.5, 5.5], {:.1f}s".format(learned_psat, q, elapsed),
    )
    assert ok, detail


def test_criterion_8_survival_tail_bound(self_loop_product):
    episodes = 10_000
    total = augment(self_loop_product, PayoffSpec(Mode.TOTAL_REWARD, 0.9))
    t = tail_check(total, Strategy((0,)), episodes, n_values=(10, 30, 50))
    margins = []
    ok = True
    for n, e in zip(t.n_values, t.empirical):
        limit = 0.9**n + 3.0 * math.sqrt(0.9**n / episodes)
        ok = ok and e <= limit
        margins.append(f"n={n}: {e:.4f} <= {limit:.4f}")
    detail = _verdict(8, ok, "survived >= n accepting steps: " + ", ".join(margins))
    assert ok, detail


def test_criterion_9_monte_carlo_matches_exact(i2_product):
    model = augment(i2_product, PayoffSpec(Mode.BIASED_DISCOUNT, 0.9))
    v = solve_optimal(model)
    f = greedy_policy(model, v.values)
    exact = v.at_initial()
    pay, _ = simulate_batch(model, f, np.random.default_rng(0), 100_000, 200)
    se = float(pay.std(ddof=1)) / math.sqrt(pay.size)
    gap = abs(float(pay.mean()) - exact)
    ok = abs(exact - 5.0) <= 1e-9 and gap <= 3.0 * se
    detail = _verdict(
        9,
        ok,
        "exact EDisct = {:.9f}, empirical mean off by {:.4f} "
        "(3 stderr = {:.4f})".format(exact, gap, 3.0 * se),
    )
    assert ok, detail
