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

A view is one `FlatBranches` table, `AugmentedModel.flat`, whose columns run
parallel to the product's own: one entry per product branch, reweighted for
the view, and one per product pair.  The leaked views divert each pair's
accepting mass (1-zeta) into t, and that diversion is the per-pair column
`leak`, not a branch, in the same way the learner draws it as a coin of its
own (see `learn`).  Successors and offsets are read from the product
(`succ`, `branch_start`, `pair_start`, `branch_pair`, `ProductMdp.select`);
t, worth 0 and absorbing, has no row.  `augment` builds the table with array
operations over the product's branch columns.  The solvers,
`simulate_batch` and the product export all read it.

`simulate_batch` samples payoffs under a positional strategy and moves, and
draws uniforms for, only the episodes that can still earn.  An episode in a
state from which the strategy's branches reach no reward and no target
keeps its payoff and its flag for good, so it leaves the batch.  The
Q-learner skips traps too (see `learn`), with a narrower rule, a one-branch
non-accepting self-loop, because a skipped learning step must also leave
its table unchanged.  That set comes from `graphs.backward_levels`, the
breadth-first search that also gives `solvers.evaluate_policies` its live
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
    """One payoff view's columns, parallel to its product's branches and pairs.

    Branch k of the view is branch k of the product (successor
    `product.succ[k]`), and pair k is product pair k.  `leak` is the mass a
    pair diverts into t, which pays 1; it is all zeros in the biased view.
    """

    prob: np.ndarray    # (n_branches,) simulation probability
    weight: np.ndarray  # (n_branches,) coefficient of the successor value in the backup
    reward: np.ndarray  # (n_branches,)
    base: np.ndarray    # (n_pairs,) expected immediate reward, the leak's included
    leak: np.ndarray    # (n_pairs,) probability of stepping into t


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
    """Build the columns of one payoff view; see the module docstring."""
    zeta = spec.zeta
    raw_prob, acc, lo = p.prob, p.accepting, p.branch_start[:-1]
    scaled = np.where(acc, raw_prob * zeta, raw_prob)
    # in the reach view only the arrival at t pays; surviving accepting steps do not
    reward = np.zeros(acc.size) if spec.mode is Mode.REACH_TARGET else acc.astype(np.float64)
    leak = np.zeros(p.n_pairs)
    if spec.mode is Mode.BIASED_DISCOUNT:
        target, prob = None, raw_prob
    else:
        target, prob = p.n_states, scaled
        # each pair's leak is a running sum over its accepting branches, in branch order
        np.add.at(leak, p.branch_pair[acc], raw_prob[acc] * (1.0 - zeta))
        mass = np.add.reduceat(prob, lo) + leak - np.add.reduceat(raw_prob, lo)
        assert np.abs(mass).max() <= 1e-12
    pr = prob * reward
    base = np.add.reduceat(pr, lo)
    nonzero = np.add.reduceat(pr != 0.0, lo, dtype=np.int64)
    if target is not None:  # the step into t pays 1, one more term of the sum
        base += leak
        nonzero += leak != 0.0
    # a sum of at most two nonzero terms is rounded once, just as math.fsum rounds it
    multi = np.flatnonzero(nonzero > 2).tolist()
    terms, bounds, tails = pr.tolist(), p.branch_start.tolist(), leak[multi].tolist()
    base[multi] = [math.fsum(terms[bounds[k] : bounds[k + 1]] + [x]) for k, x in zip(multi, tails)]
    return AugmentedModel(p, spec, target, FlatBranches(prob, scaled, reward, base, leak))


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
    strategy's expected payoff over max_steps steps.  Sampling takes one
    uniform per step over the chosen pair's branches followed by its leak.

    Only the episodes that can still earn move: those in a state from which
    `f`'s branches lead to a rewarded branch or to a pair that leaks into
    the target.  A backward search finds those states over every branch of
    the chosen pairs, whatever its probability, since rounding slack can
    pick any last branch.  Any other episode earns nothing and never
    reaches the target, so its payoff and flag are final, and it stops, as
    does an episode that reaches the target.  Each step draws
    `rng.random(m)` for the m moving episodes, in episode order, and the
    loop ends early when none is left.
    A negative `episodes` or `max_steps` raises ValueError.
    """
    for name, count in (("episodes", episodes), ("max_steps", max_steps)):
        if count < 0:
            raise ValueError(f"{name} must be at least 0, got {count}")
    p, flat = model.product, model.flat
    f.check(p)
    n = model.n_states
    pid, row, idx = p.select(f.choice)
    lo = p.branch_start[pid]
    col = idx - lo[row]
    to = p.succ[idx]
    # one row per state: its chosen branches, then the step into t where it leaks
    leak = flat.leak[pid]
    leaks = np.flatnonzero(leak > 0.0)
    width = p.branch_start[pid + 1] - lo
    last = width - 1 + (leak > 0.0)
    shape = (n, int(last.max()) + 1)
    prob = np.zeros(shape)
    succ = np.zeros(shape, dtype=np.int64)
    rew = np.zeros(shape)
    prob[row, col] = flat.prob[idx]
    succ[row, col] = to
    rew[row, col] = flat.reward[idx]
    sentinel = n  # the target's index in the leaked views; absorbing
    at = width[leaks]
    prob[leaks, at] = leak[leaks]
    succ[leaks, at] = sentinel
    rew[leaks, at] = 1.0
    cum = np.cumsum(prob, axis=1)  # adds along each row in branch order
    cum[np.arange(shape[1]) >= last[:, None]] = np.inf  # rounding slack falls into the last column
    # the states from which an episode can still earn or reach the target,
    # then False for the target itself, where an episode stops moving too
    seeds = np.flatnonzero(rew.max(axis=1) > 0.0).tolist()
    rev = adjacency(n, to.tolist(), row.tolist())
    earn = np.append(np.array(backward_levels(seeds, rev)) >= 0, False)

    biased = model.mode is Mode.BIASED_DISCOUNT
    zeta = model.zeta
    pay = np.zeros(episodes)
    disc = np.ones(episodes)
    reached = np.zeros(episodes, dtype=bool)
    # the moving episodes and their states
    moving = np.arange(episodes) if earn[p.initial] else np.arange(0)
    here = np.full(moving.size, p.initial, dtype=np.int64)
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
