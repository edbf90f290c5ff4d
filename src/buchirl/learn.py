"""Tabular Q-learning on the leaked payoff views.

Episodes run on the augmented dynamics: accepting steps divert to the target
with probability (1-zeta), and an episode ends there (or at the step cap).
Updates are undiscounted; the termination itself supplies the effective
bias, so the fixpoint of the update is the expected payoff of the view.
Against the target there is no bootstrap.

One episode loop, `_episode`, does the learning, on tables that one
builder, `_sim`, makes; `train` runs it once per episode.  Randomness comes
from a chunked uniform stream, one iterator that is bit-transparent to the
underlying generator.  What each step draws is fixed (see `_episode`), and
`tests/reference_learner.py` holds a step-by-step learner that draws under
the same contract, one `Generator.random()` call per uniform.

An episode that falls into a trap is not simulated further.  A trap is a
product state with one pair whose one branch is a non-accepting self-loop,
such as a rejecting sink.  A step there draws nothing, earns 0 and
bootstraps on its own entry, so its update adds exactly 0.0 as long as the
entry and alpha are finite (`LearnConfig` checks alpha).  The loop adds the
remaining steps to the trap's visit count and ends the episode as truncated;
tables, curve, truncation count and stream position are those of the
step-by-step run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .product import Strategy
from .shaping import AugmentedModel, Mode


class UniformStream:
    """Uniform(0,1) draws from a numpy Generator, taken in chunks.

    Chunked `Generator.random(n)` yields the same values as repeated single
    calls, so chunking does not change the stream, only when it is drawn.
    `draws` is one iterator over the values: the first chunk is drawn on
    construction, and each later one only when the one before it is used
    up and another value is requested.
    """

    CHUNK = 4096
    __slots__ = ("rng", "draws")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        refills = iter(lambda: rng.random(self.CHUNK).tolist(), None)
        self.draws = chain(rng.random(self.CHUNK).tolist(), chain.from_iterable(refills))


@dataclass(frozen=True)
class LearnConfig:
    episodes: int = 50_000
    max_steps: int = 1000
    alpha0: float = 1.0
    visit_decay: float = 1000.0  # alpha = alpha0 / (1 + visits/visit_decay)
    epsilon0: float = 0.3
    epsilon_final: float = 0.01
    anneal_fraction: float = 0.5  # epsilon reaches its floor this far in
    seed: int = 0
    optimistic: bool = False

    def __post_init__(self):
        for name in ("episodes", "max_steps"):
            v = getattr(self, name)
            if v < 0:
                raise ValueError(f"{name} must be at least 0, got {v}")
        for name in ("alpha0", "visit_decay"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")


def epsilon_at(cfg: LearnConfig, episode: int) -> float:
    span = max(1, int(cfg.episodes * cfg.anneal_fraction))
    t = min(1.0, episode / span)
    return cfg.epsilon0 + (cfg.epsilon_final - cfg.epsilon0) * t


@dataclass
class QTable:
    """Estimates and visit counts per (product state, pair)."""

    q: list[list[float]]
    visits: list[list[int]]

    @classmethod
    def for_model(cls, model: AugmentedModel, init: float = 0.0) -> "QTable":
        counts = np.diff(model.product.pair_start).tolist()
        return cls([[init] * n for n in counts], [[0] * n for n in counts])

    def greedy(self) -> Strategy:
        out = []
        for row in self.q:
            best = 0
            for k in range(1, len(row)):
                if row[k] > row[best]:
                    best = k
            out.append(best)
        return Strategy(tuple(out))


@dataclass
class TrainResult:
    table: QTable
    strategy: Strategy
    curve: list[tuple[int, float, float]]  # (episode, total reward, epsilon)
    truncated: int  # episodes that hit cfg.max_steps without reaching the target


class _Sim(NamedTuple):
    """What the episode loop reads of one view."""

    rows: list  # per state, per pair: (partial branch prob sums, successors, accepting)
    trap: list[bool]  # per state: one pair, one branch, a non-accepting self-loop
    initial: int
    divert: float  # probability 1 - zeta that an accepting step diverts
    racc_cont: float  # reward of an accepting step that does not divert


def _sim(model: AugmentedModel) -> _Sim:
    """The loop's tables for a reach or total view.

    Rejects the biased view, whose episodes never terminate and whose
    returns the undiscounted update does not estimate.  The rows are sliced
    from the product's branch columns; the partial sums run left to right as
    the sampler scans them.  The diversion coin is not a branch of the rows
    but a draw of its own, as the draw contract in `_episode` (which
    `tests/reference_learner.py` follows) spends it.
    """
    if model.mode is Mode.BIASED_DISCOUNT:
        raise ValueError("learning runs on the leaked views (reach or total)")
    p = model.product
    succ, prob, acc = (c.tolist() for c in (p.succ, p.prob, p.accepting))
    bounds = p.branch_start.tolist()
    branch_rows = [
        (list(accumulate(prob[lo : hi - 1])), succ[lo:hi], acc[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
    ]
    starts = p.pair_start.tolist()
    rows = [branch_rows[lo:hi] for lo, hi in zip(starts, starts[1:])]
    trap = [
        len(pairs) == 1 and not pairs[0][0] and pairs[0][1][0] == s and not pairs[0][2][0]
        for s, pairs in enumerate(rows)
    ]
    racc_cont = 0.0 if model.mode is Mode.REACH_TARGET else 1.0
    return _Sim(rows, trap, p.initial, 1.0 - model.zeta, racc_cont)


def _episode(sim, q, visits, eps, cfg, stream):
    """The Q-learning episode loop; returns (total reward, reached target).

    Draw accounting: states with a single pair and pairs with a single branch
    spend no randomness; otherwise one uniform decides greedy vs explore (a
    second picks the explored pair), one picks the branch, and accepting
    branches spend one on the diversion coin.  Each draw is the next value
    of `stream.draws`.

    Traps (`sim.trap[s]` true, see `_Sim`) are skipped: an episode that
    starts in one, or moves into one, adds its remaining steps to the trap's
    visit count and returns as truncated.  This is exact.  A trap step draws
    nothing under the accounting above and earns 0, and its update is
    `row[0] += alpha * (0 + row[0] - row[0])`, which adds 0.0 for finite
    alpha and row[0].  Only trap steps update row[0], so it keeps its
    initial value, finite in every `QTable.for_model` table.  Only the visit
    count moves, by one per step.  The flag is tested only when the state
    changes, so other steps cost what they did.
    """
    rows, trap, cur, divert, racc_cont = sim
    draws = stream.draws
    alpha0 = cfg.alpha0
    decay = cfg.visit_decay
    max_steps = cfg.max_steps
    if trap[cur]:
        visits[cur][0] += max_steps
        return 0.0, False
    row = q[cur]
    vrow = visits[cur]
    pairs = rows[cur]
    npairs = len(row)
    total = 0.0
    for step in range(max_steps):
        if npairs == 1:
            k = 0
        elif next(draws) < eps:
            k = int(next(draws) * npairs)
            if k == npairs:
                k = npairs - 1
        else:
            k = 0
            best = row[0]
            for i in range(1, npairs):
                if row[i] > best:
                    best = row[i]
                    k = i
        cums, succs, accs = pairs[k]
        if cums:
            u = next(draws)
            b = len(cums)
            for i, cp in enumerate(cums):
                if u < cp:
                    b = i
                    break
        else:
            b = 0
        if accs[b]:
            if next(draws) < divert:
                total += 1.0
                nv = vrow[k]
                row[k] += (alpha0 / (1.0 + nv / decay)) * (1.0 - row[k])
                vrow[k] = nv + 1
                return total, True
            r = racc_cont
            total += r
        else:
            r = 0.0
        nxt = succs[b]
        nrow = q[nxt]
        m = nrow[0]
        for i in range(1, len(nrow)):
            if nrow[i] > m:
                m = nrow[i]
        nv = vrow[k]
        row[k] += (alpha0 / (1.0 + nv / decay)) * (r + m - row[k])
        vrow[k] = nv + 1
        if nxt != cur:
            cur = nxt
            if trap[cur]:
                visits[cur][0] += max_steps - 1 - step
                return total, False
            row = q[cur]
            vrow = visits[cur]
            pairs = rows[cur]
            npairs = len(row)
    return total, False


def train(model: AugmentedModel, cfg: LearnConfig) -> TrainResult:
    """Run cfg.episodes epsilon-greedy episodes and return table, greedy
    strategy, the per-episode learning curve and the truncation count."""
    sim = _sim(model)
    init = 0.0
    if cfg.optimistic:
        init = 1.0 if model.mode is Mode.REACH_TARGET else 1.0 / (1.0 - model.zeta)
    table = QTable.for_model(model, init)
    stream = UniformStream(np.random.default_rng(cfg.seed))
    curve: list[tuple[int, float, float]] = []
    truncated = 0
    for ep in range(cfg.episodes):
        eps = epsilon_at(cfg, ep)
        total, reached = _episode(sim, table.q, table.visits, eps, cfg, stream)
        curve.append((ep, total, eps))
        if not reached:
            truncated += 1
    return TrainResult(table, table.greedy(), curve, truncated)
