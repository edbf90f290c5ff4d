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
and biased Bellman backups coincide coefficient for coefficient.  Branches
therefore carry both the simulation probability and the backup weight on the
successor value.

A view is one `FlatBranches` table, `AugmentedModel.flat`: the product's
branches pair by pair, each reweighted for the view, and in the leaked views
one merged leak branch into t after the last branch of every pair that has
accepting mass.  `augment` builds it with array operations over the
product's branch columns (`succ`, `prob`, `accepting`, `branch_start`); the
biased view keeps the product's offsets, successors and probabilities as
they are.  The solvers, `simulate_batch` and the product export all read
this table.

`simulate_batch` samples payoffs under a positional strategy and moves, and
draws uniforms for, only the episodes that can still earn.  An episode in a
state from which the strategy's branches reach no reward and no target
keeps its payoff and its flag for good, so it leaves the batch.  The
Q-learner skips traps too (see `learn`), with a narrower rule, a one-branch
non-accepting self-loop, because a skipped learning step must also leave
its table unchanged.  That set comes from `graphs.backward_levels`, the
breadth-first search that also gives `solvers.evaluate_policy` its live
states.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import adjacency, backward_levels
from .product import ProductMdp, Strategy


class Mode(enum.Enum):
    REACH_TARGET = "reach"
    TOTAL_REWARD = "total"
    BIASED_DISCOUNT = "biased"


class FlatBranches(NamedTuple):
    """The branches of every pair as flat arrays, in the product's order.

    Pairs are numbered state by state: the pairs of state s are
    pair_start[s] .. pair_start[s+1]-1, and the branches of pair k are
    branch_start[k] .. branch_start[k+1]-1, with the leak branch, if any,
    last.  Every state has a pair and every pair a branch, so both offset
    arrays are strictly increasing.
    """

    pair_start: np.ndarray    # (n_states+1,) int64
    branch_start: np.ndarray  # (n_pairs+1,) int64
    succ: np.ndarray          # (n_branches,) int64; leak branches keep the target index
    prob: np.ndarray          # simulation probability
    weight: np.ndarray        # coefficient of the successor value in the backup
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
    flat: FlatBranches

    @property
    def mode(self) -> Mode:
        return self.spec.mode

    @property
    def zeta(self) -> float:
        return self.spec.zeta

    @property
    def n_states(self) -> int:
        return self.product.n_states


def augment(p: ProductMdp, spec: PayoffSpec) -> AugmentedModel:
    """Build the branch table of one payoff view; see the module docstring."""
    zeta = spec.zeta
    raw_start, succ, raw_prob, acc = p.branch_start, p.succ, p.prob, p.accepting
    scaled = np.where(acc, raw_prob * zeta, raw_prob)
    if spec.mode is Mode.BIASED_DISCOUNT:
        target = None
        branch_start = raw_start
        prob, weight, reward = raw_prob, scaled, acc.astype(np.float64)
    else:
        target = p.n_states
        # each pair's leak is a running sum over its accepting branches, in branch order
        pair_of = np.repeat(np.arange(p.n_pairs), np.diff(raw_start))
        leak = np.zeros(p.n_pairs)
        np.add.at(leak, pair_of[acc], raw_prob[acc] * (1.0 - zeta))
        has_leak = leak > 0.0
        branch_start = raw_start.copy()
        branch_start[1:] += np.cumsum(has_leak)
        is_leak = np.zeros(branch_start[-1], dtype=bool)
        is_leak[branch_start[1:][has_leak] - 1] = True  # the last branch of its pair
        # in the reach view only the arrival at t pays; surviving accepting steps do not
        r_cont = 0.0 if spec.mode is Mode.REACH_TARGET else 1.0
        columns = []  # one scatter per column; np.insert costs several times more
        for col, leak_value in (
            (succ, target),
            (scaled, leak[has_leak]),
            (scaled, 0.0),
            (np.where(acc, r_cont, 0.0), 1.0),
        ):
            out = np.empty(is_leak.size, col.dtype)
            out[~is_leak] = col
            out[is_leak] = leak_value
            columns.append(out)
        succ, prob, weight, reward = columns
        mass = np.add.reduceat(prob, branch_start[:-1]) - np.add.reduceat(raw_prob, raw_start[:-1])
        assert np.abs(mass).max() <= 1e-12
    lo = branch_start[:-1]
    pr = prob * reward
    base = np.add.reduceat(pr, lo)
    # a sum of at most two nonzero terms is rounded once, just as math.fsum rounds it
    multi = np.flatnonzero(np.add.reduceat(pr != 0.0, lo, dtype=np.int64) > 2).tolist()
    terms, bounds = pr.tolist(), branch_start.tolist()
    base[multi] = [math.fsum(terms[bounds[k] : bounds[k + 1]]) for k in multi]
    flat = FlatBranches(p.pair_start, branch_start, succ, prob, weight, reward, base)
    return AugmentedModel(p, spec, target, flat)


def simulate_batch(
    model: AugmentedModel,
    f: Strategy,
    rng: np.random.Generator,
    episodes: int,
    max_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized payoff sampling; returns (payoffs, reached_target).

    Episodes still moving at max_steps are truncated, which can only lose
    payoff that was still to come, so the mean payoff estimates the
    strategy's expected payoff over max_steps steps.  Sampling uses the
    aggregated augmented branches (one uniform per step, leak included).

    Only the episodes that can still earn move: those in a state from which
    `f`'s branches lead to a rewarded branch or to the target.  A backward
    search finds those states over every non-target branch of the chosen
    pairs, whatever its probability, since rounding slack can pick any last
    branch.  Any other episode earns nothing and never reaches the target,
    so its payoff and flag are final, and it stops, as does an episode that
    reaches the target.  Each step draws `rng.random(m)` for the m moving
    episodes, in episode order, and the loop ends early when none is left.
    A negative `episodes` or `max_steps` raises ValueError.
    """
    for name, count in (("episodes", episodes), ("max_steps", max_steps)):
        if count < 0:
            raise ValueError(f"{name} must be at least 0, got {count}")
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
    # the states from which an episode can still earn or reach the target,
    # then False for the target itself, where an episode stops moving too
    to = flat.succ[idx]
    into = to == sentinel
    seeds = row[into | (flat.reward[idx] > 0.0)].tolist()
    rev = adjacency(n, to[~into].tolist(), row[~into].tolist())
    earn = np.append(np.array(backward_levels(seeds, rev)) >= 0, False)

    biased = model.mode is Mode.BIASED_DISCOUNT
    zeta = model.zeta
    pay = np.zeros(episodes)
    disc = np.ones(episodes)
    reached = np.zeros(episodes, dtype=bool)
    # the moving episodes and their states
    moving = np.arange(episodes) if earn[model.product.initial] else np.arange(0)
    here = np.full(moving.size, model.product.initial, dtype=np.int64)
    for _ in range(max_steps):
        if moving.size == 0:
            break
        u = rng.random(moving.size)
        k = (u[:, None] >= cum[here]).sum(axis=1)
        r = rew[here, k]
        if biased:
            pay[moving] += disc[moving] * r
            disc[moving] *= np.where(r > 0.0, zeta, 1.0)
        else:
            pay[moving] += r
        nxt = succ[here, k]
        reached[moving[nxt == sentinel]] = True
        go = earn[nxt]
        moving, here = moving[go], nxt[go]
    return pay, reached
