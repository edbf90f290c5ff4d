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
and biased Bellman backups coincide coefficient for coefficient: a branch's
`weight` is its probability, times zeta if it is accepting.  In the leaked
views that is also its probability in the view's dynamics; the biased view
keeps the product's `prob`.

A view is one `FlatBranches` table, `AugmentedModel.flat`, whose columns run
parallel to the product's own: one entry per product branch and one per
product pair.  The leak into t is the per-pair column `leak`, not a branch;
t, worth 0 and absorbing, has no row.  Successors and offsets are read from
the product.  The solvers, `simulate_batch` and the product export all read
the table.

There is one leaked step, shared by `simulate_batch` and the learner (see
`learn`): pick a branch of the pair from the product's `prob`, then divert
an accepting branch into t with probability 1 - zeta.  `simulate_batch`
moves only the episodes that can still earn; an episode in a state from
which the strategy's branches reach no positive `base` keeps its payoff and
its flag for good, so it leaves the batch.
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
    pair diverts into t, which pays 1; it is all zeros in the biased view,
    whose discount after branch k is `weight[k] / product.prob[k]`.
    """

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
    leaked = spec.mode is not Mode.BIASED_DISCOUNT
    prob = scaled if leaked else raw_prob  # each branch's mass in the view's dynamics
    if leaked:
        # each pair's leak is a running sum over its accepting branches, in branch order
        np.add.at(leak, p.branch_pair[acc], raw_prob[acc] * (1.0 - zeta))
        mass = np.add.reduceat(prob, lo) + leak - np.add.reduceat(raw_prob, lo)
        assert np.abs(mass).max() <= 1e-12
    pr = prob * reward
    base = np.add.reduceat(pr, lo)
    nonzero = np.add.reduceat(pr != 0.0, lo, dtype=np.int64)
    if leaked:  # the step into t pays 1, one more term of the sum
        base += leak
        nonzero += leak != 0.0
    # a sum of at most two nonzero terms is rounded once, just as math.fsum rounds it
    multi = np.flatnonzero(nonzero > 2).tolist()
    terms, bounds, tails = pr.tolist(), p.branch_start.tolist(), leak[multi].tolist()
    base[multi] = [math.fsum(terms[bounds[k] : bounds[k + 1]] + [x]) for k, x in zip(multi, tails)]
    return AugmentedModel(p, spec, FlatBranches(scaled, reward, base, leak))


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
    strategy's expected payoff over max_steps steps.  A step takes the
    learner's rule: the branch is `bisect_right` of a uniform on the chosen
    pair's `ProductMdp.partial_sums`, bounded by the pair, and in the leaked
    views an accepting branch then diverts into t, paying 1, when a second
    uniform, its coin, is below 1 - zeta.

    Only the episodes that can still earn move: those in a state from which
    `f`'s branches lead to a pair with a positive `base`.  A backward search
    finds those states over every branch of the chosen pairs, whatever its
    probability, since rounding slack can pick any last branch.  Any other
    episode earns nothing and never reaches the target, so its payoff and
    flag are final, and it stops, as does an episode that reaches the
    target.  For the m moving episodes, in episode order, each step of a
    leaked view draws `rng.random((2, m))`, whose row 0 picks the branches
    and whose row 1 holds the coins, read on accepting branches only; a step
    of the biased view draws `rng.random(m)`.  The loop ends early when no
    episode is left.
    A negative `episodes` or `max_steps` raises ValueError.
    """
    for name, count in (("episodes", episodes), ("max_steps", max_steps)):
        if count < 0:
            raise ValueError(f"{name} must be at least 0, got {count}")
    p, flat = model.product, model.flat
    f.check(p)
    n = model.n_states
    pid, row, idx = p.select(f.choice)
    cum, lo, hi = p.partial_sums, p.branch_start[pid], p.branch_start[pid + 1] - 1  # per state
    depth = int((hi - lo).max()).bit_length()
    # the states from which an episode can still earn or reach the target,
    # then False for the target itself, where an episode stops moving too
    rev = adjacency(n, p.succ[idx].tolist(), row.tolist())
    seeds = np.flatnonzero(flat.base[pid] > 0.0).tolist()
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
        if biased:
            u = rng.random(moving.size)
        else:
            u, coin = rng.random((2, moving.size))
        a, b = lo[here], hi[here]
        for _ in range(depth):  # bisect_right(cum, u, a, b), one round for every episode
            mid = (a + b) >> 1
            right = (mid < b) & (cum[mid] <= u)
            a, b = np.where(right, mid + 1, a), np.where(right, b, mid)
        r, nxt = flat.reward[a], p.succ[a]
        if biased:
            pay[moving] += disc[moving] * r
            disc[moving] *= np.where(r > 0.0, zeta, 1.0)
        else:
            into = p.accepting[a] & (coin < 1.0 - zeta)
            pay[moving] += np.where(into, 1.0, r)
            nxt = np.where(into, n, nxt)
            reached[moving[into]] = True
        go = earn[nxt]
        moving, here = moving[go], nxt[go]
    return pay, reached
