"""Payoff views over the product: target augmentation and reward schemes.

Three views share one construction.  Fix a bias 0 < zeta < 1:

- ``REACH_TARGET``: every accepting branch keeps zeta of its mass and leaks
  the remaining (1-zeta) into a fresh absorbing target t; the payoff is 1
  exactly when t is reached.  Encoded as reward 1 on the leak step.
- ``TOTAL_REWARD``: same leaked dynamics, reward 1 on every accepting step,
  the leak step included; the payoff is the (finite) total reward collected
  before t.
- ``BIASED_DISCOUNT``: the raw product with reward 1 on accepting steps,
  where each earned reward discounts everything after it by zeta; the payoff
  of a run with n accepting steps is 1 + zeta + ... + zeta^(n-1).

Surviving an accepting step in the leaked dynamics has probability zeta,
which is the same zeta the biased view charges after a reward, so the total
and biased Bellman backups coincide coefficient for coefficient.  Branch
records therefore carry both the simulation probability and the backup
weight on the successor value.

`AugmentedModel.branches` is the readable form of a view.  The numeric
consumers (the solvers and `simulate_batch`) read `AugmentedModel.flat`, the
same branches laid out once as arrays (`FlatBranches`).  The table is built
on first use and then kept with its model: the learner and the product
export read `branches` only and never pay for it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .mdp import RunRecord
from .product import ProductMdp, Strategy


class Mode(enum.Enum):
    REACH_TARGET = "reach"
    TOTAL_REWARD = "total"
    BIASED_DISCOUNT = "biased"


class AugBranch(NamedTuple):
    succ: int      # product state index, or the target index on leak branches
    prob: float    # simulation probability
    weight: float  # coefficient of the successor value in the backup
    reward: float


class FlatBranches(NamedTuple):
    """The branches of every pair as flat arrays, in the order of `branches`.

    Pairs are numbered state by state: the pairs of state s are
    pair_start[s] .. pair_start[s+1]-1, and the branches of pair k are
    branch_start[k] .. branch_start[k+1]-1.  Every state has a pair and every
    pair a branch, so both offset arrays are strictly increasing.
    """

    pair_start: np.ndarray    # (n_states+1,) int64
    branch_start: np.ndarray  # (n_pairs+1,) int64
    succ: np.ndarray          # (n_branches,) int64; leak branches keep the target index
    prob: np.ndarray
    weight: np.ndarray
    reward: np.ndarray
    base: np.ndarray          # (n_pairs,) expected immediate reward, math.fsum(prob*reward)

    def select(self, choice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pair `choice` picks per state, then the state and the flat index
        of each branch of those pairs, state by state in branch order."""
        pid = self.pair_start[:-1] + np.asarray(choice, dtype=np.int64)
        lo = self.branch_start[pid]
        row = np.repeat(np.arange(pid.size), self.branch_start[pid + 1] - lo)
        within = np.arange(row.size) - np.searchsorted(row, row)  # rank in its pair
        return pid, row, lo[row] + within


@dataclass(frozen=True)
class PayoffSpec:
    mode: Mode
    zeta: float

    def __post_init__(self):
        if not 0.0 < self.zeta < 1.0:
            raise ValueError("zeta must lie strictly between 0 and 1")


@dataclass(frozen=True)
class AugmentedModel:
    product: ProductMdp
    spec: PayoffSpec
    target: int | None  # = n_states for the leaked views, None for biased
    branches: tuple[tuple[tuple[AugBranch, ...], ...], ...]  # [state][pair]

    @property
    def mode(self) -> Mode:
        return self.spec.mode

    @property
    def zeta(self) -> float:
        return self.spec.zeta

    @property
    def n_states(self) -> int:
        return self.product.n_states

    @cached_property
    def flat(self) -> FlatBranches:
        """`branches` as one `FlatBranches` table, built on first use."""
        pairs = [branches for per_pair in self.branches for branches in per_pair]
        rows = [b for branches in pairs for b in branches]
        succ, prob, weight, reward = (np.array(c) for c in zip(*rows))
        bounds = list(accumulate(map(len, pairs), initial=0))
        pr = (prob * reward).tolist()
        return FlatBranches(
            np.array(list(accumulate(map(len, self.branches), initial=0))),
            np.array(bounds),
            succ,
            prob,
            weight,
            reward,
            np.array([math.fsum(pr[i:j]) for i, j in zip(bounds, bounds[1:])]),
        )


def augment(p: ProductMdp, spec: PayoffSpec) -> AugmentedModel:
    """Build the branch tables of one payoff view; see the module docstring."""
    zeta = spec.zeta
    leaked = spec.mode is not Mode.BIASED_DISCOUNT
    # in the reach view only the arrival at t pays; surviving accepting steps do not
    r_cont = 0.0 if spec.mode is Mode.REACH_TARGET else 1.0
    target = p.n_states if leaked else None
    out: list[tuple[tuple[AugBranch, ...], ...]] = []
    for st in range(p.n_states):
        per_pair: list[tuple[AugBranch, ...]] = []
        for pair in p.pairs[st]:
            branches: list[AugBranch] = []
            leak_mass = 0.0
            for b in pair.branches:
                if not b.accepting:
                    branches.append(AugBranch(b.succ, b.prob, b.prob, 0.0))
                elif leaked:
                    branches.append(AugBranch(b.succ, b.prob * zeta, b.prob * zeta, r_cont))
                    leak_mass += b.prob * (1.0 - zeta)
                else:
                    branches.append(AugBranch(b.succ, b.prob, b.prob * zeta, 1.0))
            if leak_mass > 0.0:
                branches.append(AugBranch(target, leak_mass, 0.0, 1.0))
            raw = math.fsum(b.prob for b in pair.branches)
            assert abs(math.fsum(b.prob for b in branches) - raw) <= 1e-12
            per_pair.append(tuple(branches))
        out.append(tuple(per_pair))
    return AugmentedModel(p, spec, target, tuple(out))


def run_payoff(spec: PayoffSpec, record: RunRecord) -> float:
    """Realized payoff of one trace, accumulated step by step."""
    if spec.mode is Mode.REACH_TARGET:
        return 1.0 if record.reached_target else 0.0
    if spec.mode is Mode.TOTAL_REWARD:
        return float(record.accepting_count)
    pay = 0.0
    disc = 1.0
    for acc in record.accepting:
        if acc:
            pay += disc
            disc *= spec.zeta
    return pay


def simulate_run(
    model: AugmentedModel,
    f: Strategy,
    rng: np.random.Generator,
    max_steps: int = 1000,
    start: int | None = None,
) -> RunRecord:
    """Sample one trace under `f`, stopping at the target or after max_steps.

    Sampling is two-stage so the trace keeps its symbols: first a raw product
    branch, then on an accepting branch of a leaked view a coin that diverts
    to the target with probability (1-zeta).  This is the traced,
    label-resolved sampler; `simulate_batch` is the fast one for payoffs only,
    on a different draw stream, and neither can replace the other.
    """
    f.check(model.product)
    p = model.product
    leaked = model.mode is not Mode.BIASED_DISCOUNT
    cur = p.initial if start is None else start
    states = [cur]
    actions: list[int] = []
    labels: list[int] = []
    accepting: list[bool] = []
    reached = False
    for _ in range(max_steps):
        k = f.choice[cur]
        branches = p.pairs[cur][k].branches
        u = rng.random()
        acc_p = 0.0
        b = branches[-1]
        for cand in branches[:-1]:
            acc_p += cand.prob
            if u < acc_p:
                b = cand
                break
        actions.append(k)
        labels.append(b.symbol)
        accepting.append(b.accepting)
        if leaked and b.accepting and rng.random() < 1.0 - model.zeta:
            states.append(model.target)
            reached = True
            break
        states.append(b.succ)
        cur = b.succ
    return RunRecord(tuple(states), tuple(actions), tuple(labels), tuple(accepting), reached)


def simulate_batch(
    model: AugmentedModel,
    f: Strategy,
    rng: np.random.Generator,
    episodes: int,
    max_steps: int,
    start: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized payoff sampling; returns (payoffs, reached_target).

    Episodes still alive at max_steps are truncated, which can only lose
    payoff that was still to come.  Sampling uses the aggregated augmented
    branches (one uniform per step, leak included), so traces are not
    label-resolved and the draw stream differs from simulate_run.  Both
    samplers stay: this one vectorises payoffs over many episodes at once,
    while simulate_run records symbols and states one trace at a time.
    """
    f.check(model.product)
    n = model.n_states
    flat = model.flat
    pid, row, idx = flat.select(f.choice)
    lo = flat.branch_start[pid]
    col = idx - lo[row]
    shape = (n, int(col.max()) + 1)
    prob = np.zeros(shape)
    succ = np.zeros(shape, dtype=np.int64)
    rew = np.zeros(shape)
    prob[row, col] = flat.prob[idx]
    succ[row, col] = flat.succ[idx]
    rew[row, col] = flat.reward[idx]
    cum = np.cumsum(prob, axis=1)  # adds along each row in branch order
    last = flat.branch_start[pid + 1] - lo - 1
    cum[np.arange(shape[1]) >= last[:, None]] = np.inf  # rounding slack falls into the last branch
    sentinel = n  # the target's index in the leaked views; absorbing

    biased = model.mode is Mode.BIASED_DISCOUNT
    zeta = model.zeta
    start_idx = model.product.initial if start is None else start
    cur = np.full(episodes, start_idx, dtype=np.int64)
    pay = np.zeros(episodes)
    disc = np.ones(episodes)
    reached = np.zeros(episodes, dtype=bool)
    alive = np.ones(episodes, dtype=bool)
    for _ in range(max_steps):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        here = cur[idx]
        u = rng.random(idx.size)
        k = (u[:, None] >= cum[here]).sum(axis=1)
        r = rew[here, k]
        if biased:
            pay[idx] += disc[idx] * r
            disc[idx] *= np.where(r > 0.0, zeta, 1.0)
        else:
            pay[idx] += r
        nxt = succ[here, k]
        hit = nxt == sentinel
        if hit.any():
            reached[idx[hit]] = True
            alive[idx[hit]] = False
        cur[idx] = nxt
    return pay, reached
