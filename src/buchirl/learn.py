"""Tabular Q-learning on the leaked payoff views.

Episodes run on the augmented dynamics: accepting steps divert to the target
with probability (1-zeta), and an episode ends there (or at the step cap).
Updates are undiscounted; the termination itself supplies the effective
bias, so the fixpoint of the update is the expected payoff of the view.
Against the target there is no bootstrap.

One loop, `_run`, runs every episode of a `train` call, on tables that one
builder, `_sim`, makes.  It caches each state's best value and best pair,
so greedy choice and the bootstrap maximum cost O(1) instead of a scan of
the row.  Randomness comes from a chunked uniform stream, one iterator that
is bit-transparent to the underlying generator.  What each step draws is
fixed (see `_run`), and `tests/reference_learner.py` holds a step-by-step
learner that draws under the same contract, one `Generator.random()` call
per uniform.

An episode that falls into a trap is not simulated further.  A trap is a
product state with one pair whose one branch is a non-accepting self-loop,
such as a rejecting sink.  The loop adds the remaining steps to the trap's
visit count and ends the episode as truncated; tables, curve, truncation
count and stream position are those of the step-by-step run (`_run` says
why).
"""

from __future__ import annotations

import math
from bisect import bisect_right
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
        for name in ("epsilon0", "epsilon_final"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:  # also false for NaN
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
        if not 0.0 <= self.anneal_fraction < math.inf:  # also false for NaN
            raise ValueError(f"anneal_fraction must be finite and at least 0, got {self.anneal_fraction!r}")


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
        """Each state's lowest-index best pair."""
        return Strategy(tuple(row.index(max(row)) for row in self.q))


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
    but a draw of its own, as the draw contract in `_run` (which
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


def _run(sim: _Sim, table: QTable, cfg: LearnConfig) -> tuple[list[tuple[int, float, float]], int]:
    """The one episode loop: runs cfg.episodes epsilon-greedy episodes on
    `table`, updating it in place; returns the curve and the truncation count.

    Draw accounting: states with a single pair and pairs with a single branch
    spend no randomness; otherwise one uniform decides greedy vs explore (a
    second picks the explored pair), one picks the branch, and accepting
    branches spend one on the diversion coin.  Each draw is the next value
    of one `UniformStream` seeded with cfg.seed.  The branch is
    `bisect_right` of its draw on the pair's partial sums, which are
    nondecreasing: the first branch whose partial sum exceeds the draw, or
    the last.

    Each state's best value (`best`) and lowest-index best pair (`arg`) are
    cached and read for greedy choice and for the bootstrap maximum, which
    is read before the update (on a self-loop, the row before the write).
    Every write updates the cache; only a decrease of the cached best entry
    rescans its row.  This is exact: `max` of floats is exact, and ties go
    to the lowest index, as in `QTable.greedy`.

    Traps (`sim.trap[s]`, see `_Sim`) are skipped: an episode that starts
    in one, or moves into one, adds its remaining steps to the trap's visit
    count and ends as truncated.  This is exact.  A trap step draws nothing
    and earns 0, and its update `row[0] += alpha * (0 + row[0] - row[0])`
    adds 0.0 for finite alpha and row[0]; only trap steps update row[0], so
    it keeps its initial value, finite in every `QTable.for_model` table.
    """
    rows, trap, initial, divert, racc_cont = sim
    q, visits = table.q, table.visits
    draw = UniformStream(np.random.default_rng(cfg.seed)).draws.__next__
    alpha0, decay, max_steps = cfg.alpha0, cfg.visit_decay, cfg.max_steps
    eps0, eps_span = cfg.epsilon0, cfg.epsilon_final - cfg.epsilon0  # as in epsilon_at
    anneal = max(1, int(cfg.episodes * cfg.anneal_fraction))
    best = [max(row) for row in q]
    arg = [row.index(m) for row, m in zip(q, best)]
    curve: list[tuple[int, float, float]] = []
    truncated = 0
    for ep in range(cfg.episodes):
        eps = eps0 + eps_span * (ep / anneal if ep < anneal else 1.0)
        total = 0.0
        reached = False
        cur = initial
        if trap[cur]:
            visits[cur][0] += max_steps
            truncated += 1
            curve.append((ep, total, eps))
            continue
        row, vrow, pairs = q[cur], visits[cur], rows[cur]
        npairs = len(row)
        for step in range(max_steps):
            if npairs == 1:
                k = 0
            elif draw() < eps:
                k = int(draw() * npairs)
                if k == npairs:
                    k = npairs - 1
            else:
                k = arg[cur]
            cums, succs, accs = pairs[k]
            b = bisect_right(cums, draw()) if cums else 0
            nxt = succs[b]
            m = best[nxt]
            if accs[b]:
                if draw() < divert:
                    reached = True
                    r = 1.0
                    m = 0.0  # no bootstrap against the target
                else:
                    r = racc_cont
                total += r
            else:
                r = 0.0
            old = row[k]
            new = old + (alpha0 / (1.0 + vrow[k] / decay)) * (r + m - old)
            row[k] = new
            vrow[k] += 1
            a = arg[cur]
            if k == a:
                if new >= old or npairs == 1:
                    best[cur] = new
                else:
                    best[cur] = top = max(row)
                    arg[cur] = row.index(top)
            elif new > best[cur] or (new == best[cur] and k < a):
                best[cur] = new
                arg[cur] = k
            if reached:
                break
            if nxt != cur:
                cur = nxt
                if trap[cur]:
                    visits[cur][0] += max_steps - 1 - step
                    break
                row, vrow, pairs = q[cur], visits[cur], rows[cur]
                npairs = len(row)
        truncated += not reached
        curve.append((ep, total, eps))
    return curve, truncated


def train(model: AugmentedModel, cfg: LearnConfig) -> TrainResult:
    """Run cfg.episodes epsilon-greedy episodes, all in the one loop `_run`,
    and return table, greedy strategy, the per-episode learning curve and
    the truncation count."""
    sim = _sim(model)
    init = 0.0
    if cfg.optimistic:
        init = 1.0 if model.mode is Mode.REACH_TARGET else 1.0 / (1.0 - model.zeta)
    table = QTable.for_model(model, init)
    curve, truncated = _run(sim, table, cfg)
    return TrainResult(table, table.greedy(), curve, truncated)
