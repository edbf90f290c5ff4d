"""Numeric cross-checks tying the payoff views together on one instance.

For a pool of positional strategies (the optimal strategies that
`solve_optimal` returns for the reach and total views, plus random draws)
the checks are, per bias zeta:

- identity: PReach = (1-zeta) * ETotal, state by state, strategy by strategy;
- bounds: every ETotal lies in [0, 1/(1-zeta)];
- equality: ETotal = EDisct per strategy, and for the optimal value vectors,
  which come from two exact solves, one per view, compared within
  EQUALITY_TOL; the biased solve starts from the total view's optimal
  strategy, so among tied optima both report the same one;
- prob-1: ETotal hits 1/(1-zeta), within PROB1_TOL, exactly where the
  independent component oracle reports Buchi satisfaction with probability
  exactly 1, and nowhere else; the oracle settles its 0/1 sets by graph
  search, so only the reward side needs a tolerance;
- tail (optional, Monte Carlo): the empirical probability of n accepting
  steps all surviving the diversion decays at least as fast as zeta^n.
  Diverted steps still earn reward but do not count as survived, which is
  what the zeta^n bound is about.

The reward side uses the solvers, the satisfaction side the component
oracle; they share no numerics, which is the point of the comparison.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .automata import Nba
from .mdp import Mdp
from .oracle import buchi_value, policy_buchi_probability
from .product import Strategy, build_product, random_strategy
from .shaping import AugmentedModel, Mode, PayoffSpec, augment, simulate_batch
from .solvers import evaluate_policy, solve_optimal

TAIL_NS = (5, 10, 20)  # accepting-step counts the tail check looks at
IDENTITY_TOL = 1e-8  # max |PReach - (1-zeta) ETotal|
BOUND_TOL = 1e-9  # max excess of ETotal over [0, 1/(1-zeta)]
EQUALITY_TOL = 1e-12  # max |ETotal - EDisct|
PROB1_TOL = 1e-6  # distance from 1/(1-zeta) at which ETotal counts as the cap
OPTIMAL_TOL = 1e-9  # a sweep policy within this of the Buchi optimum is optimal


@dataclass(frozen=True)
class TailCheck:
    zeta: float
    n_values: tuple[int, ...]
    episodes: int
    empirical: tuple[float, ...]
    bound: tuple[float, ...]
    stderr: tuple[float, ...]
    ok: bool


@dataclass(frozen=True)
class VerifyReport:
    zetas: tuple[float, ...]
    policies_per_zeta: int
    checked: int
    identity_max_error: float
    bound_max_excess: float
    equality_max_error: float
    prob1_mismatches: int
    identity_ok: bool
    bounds_ok: bool
    equality_ok: bool
    prob1_ok: bool
    tails: tuple[TailCheck, ...]
    lower_bound_only: bool
    passed: bool


def tail_check(
    model: AugmentedModel,
    f: Strategy,
    episodes: int,
    n_values: tuple[int, ...] = TAIL_NS,
    seed: int = 0,
) -> TailCheck:
    """Monte Carlo bound check on survived accepting steps under `f`, in the
    total view `model`."""
    if model.mode is not Mode.TOTAL_REWARD:
        raise ValueError("the tail check runs on the total view")
    if episodes < 1:
        raise ValueError(f"episodes must be at least 1, got {episodes}")
    zeta = model.zeta
    steps = min(1000, max(50, int(np.ceil(np.log(1e-9) / np.log(zeta)))))
    rng = np.random.default_rng(seed)
    pay, reached = simulate_batch(model, f, rng, episodes, steps)
    survived = pay - reached  # the diverted step earned but did not survive
    emp = []
    bound = []
    se = []
    ok = True
    for n in n_values:
        e = float(np.mean(survived >= n))
        s = float(np.sqrt(e * (1.0 - e) / episodes))
        b = zeta**n
        emp.append(e)
        bound.append(b)
        se.append(s)
        ok = ok and e <= b + 3.0 * s
    return TailCheck(zeta, tuple(n_values), episodes, tuple(emp), tuple(bound), tuple(se), ok)


def verify_instance(
    m: Mdp,
    a: Nba,
    zetas: tuple[float, ...] = (0.5, 0.9),
    n_random: int = 20,
    seed: int = 0,
    tail_episodes: int = 0,
) -> VerifyReport:
    """The cross-checks of the module docstring at each bias in `zetas`.

    A strategy that a zeta's pool holds more than once is evaluated once
    per view and counted once per entry, and the oracle, whose answer does
    not depend on zeta, runs once per distinct strategy of the instance.
    An empty `zetas` raises ValueError rather than pass with nothing
    checked, and so does a negative `n_random` or `tail_episodes` rather
    than report counts it did not check.
    """
    if not zetas:
        raise ValueError("zetas must name at least one bias")
    for name, count in (("n_random", n_random), ("tail_episodes", tail_episodes)):
        if count < 0:
            raise ValueError(f"{name} must be at least 0, got {count}")
    p = build_product(m, a)
    rng = np.random.default_rng(seed)
    identity_err = 0.0
    bound_excess = 0.0
    equality_err = 0.0
    prob1_bad = 0
    checked = 0
    tails: list[TailCheck] = []
    psats: dict[Strategy, np.ndarray] = {}  # the oracle's answer per strategy, for every zeta
    for zeta in zetas:
        cap = 1.0 / (1.0 - zeta)
        reach, total, biased = (
            augment(p, PayoffSpec(mode, zeta))
            for mode in (Mode.REACH_TARGET, Mode.TOTAL_REWARD, Mode.BIASED_DISCOUNT)
        )
        v_reach, v_total = solve_optimal(reach), solve_optimal(total)
        # the biased backup is the total one up to rounding, so its solve
        # starts from the total optimum and compares one policy's values
        v_biased = solve_optimal(biased, v_total.policy)
        equality_err = max(
            equality_err, float(np.max(np.abs(v_total.values - v_biased.values)))
        )
        f_total = v_total.policy
        pool = [f_total, v_reach.policy]
        pool += [random_strategy(p, rng) for _ in range(n_random)]
        # a strategy drawn twice is evaluated once and counted twice
        for f, count in Counter(pool).items():
            et = evaluate_policy(total, f).values
            pr = evaluate_policy(reach, f).values
            ed = evaluate_policy(biased, f).values
            if f not in psats:
                psats[f] = policy_buchi_probability(p, f)
            identity_err = max(identity_err, float(np.max(np.abs(pr - (1.0 - zeta) * et))))
            bound_excess = max(
                bound_excess,
                float(np.max(et - cap, initial=0.0)),
                float(np.max(-et, initial=0.0)),
            )
            equality_err = max(equality_err, float(np.max(np.abs(et - ed))))
            sat = psats[f] == 1.0
            full = np.abs(et - cap) <= PROB1_TOL
            prob1_bad += count * int(np.sum(sat != full))
            checked += count
        if tail_episodes > 0:
            tails.append(tail_check(total, f_total, tail_episodes, seed=seed))
    identity_ok = identity_err <= IDENTITY_TOL
    bounds_ok = bound_excess <= BOUND_TOL
    equality_ok = equality_err <= EQUALITY_TOL
    prob1_ok = prob1_bad == 0
    passed = identity_ok and bounds_ok and equality_ok and prob1_ok and all(
        t.ok for t in tails
    )
    return VerifyReport(
        zetas=tuple(zetas),
        policies_per_zeta=n_random + 2,
        checked=checked,
        identity_max_error=identity_err,
        bound_max_excess=bound_excess,
        equality_max_error=equality_err,
        prob1_mismatches=prob1_bad,
        identity_ok=identity_ok,
        bounds_ok=bounds_ok,
        equality_ok=equality_ok,
        prob1_ok=prob1_ok,
        tails=tuple(tails),
        lower_bound_only=p.gfm_caveat,
        passed=passed,
    )


@dataclass(frozen=True)
class SweepRow:
    zeta: float
    policy: str
    psat_policy: float
    psat_opt: float
    is_optimal: bool


@dataclass(frozen=True)
class ThresholdReport:
    grid: tuple[float, ...]
    rows: tuple[SweepRow, ...]
    empirical_zeta0: float | None


def threshold_sweep(m: Mdp, a: Nba, grid: tuple[float, ...]) -> ThresholdReport:
    """Optimal total-reward policy per grid zeta versus the Buchi optimum.

    The policy is the one `solve_optimal` returns, each grid point's policy
    iteration starting from the previous point's policy.  empirical_zeta0 is
    the smallest grid point from which that policy stays Buchi-optimal (at
    the initial state) through the end of the grid; None when it is not
    optimal at the last point.  The grid must be non-empty and strictly
    increasing.  The oracle runs once per distinct policy.
    """
    if not grid:
        raise ValueError("grid must name at least one bias")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    p = build_product(m, a)
    opt = buchi_value(p).at_initial()
    rows: list[SweepRow] = []
    psats: dict[Strategy, float] = {}  # several grid points often share a policy
    f = None
    for zeta in grid:
        f = solve_optimal(augment(p, PayoffSpec(Mode.TOTAL_REWARD, zeta)), f).policy
        if f not in psats:
            psats[f] = float(policy_buchi_probability(p, f)[p.initial])
        psat = psats[f]
        desc = ";".join(p.pair_name(st, f.choice[st]) for st in range(p.n_states))
        rows.append(SweepRow(zeta, desc, psat, opt, psat >= opt - OPTIMAL_TOL))
    zeta0 = None
    for row in reversed(rows):
        if not row.is_optimal:
            break
        zeta0 = row.zeta
    return ThresholdReport(tuple(grid), tuple(rows), zeta0)
