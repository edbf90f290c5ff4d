"""Tabular Q-learning on the leaked payoff views.

Episodes run on the leaked dynamics, one step as `shaping.simulate_batch`
takes it: a branch drawn from the product's `prob`, then a coin that
diverts an accepting branch to the target with probability (1-zeta); an
episode ends there (or at the step cap).  Updates are undiscounted; the
termination itself supplies the effective bias, so the fixpoint of the
update is the expected payoff of the view.  Against the target there is no
bootstrap.

One loop, `_run`, runs every episode of a `train` call, walking the
product's columns: pair and branch offsets, successors, accepting marks and
`ProductMdp.partial_sums`, and it pays the view's `reward`.
It caches each state's best value and best pair, so greedy choice and the
bootstrap maximum cost O(1) instead of a scan of the row.  Randomness comes
from a chunked uniform stream, one iterator that is bit-transparent to the
underlying generator.  What each step draws is fixed (see `_run`), and
`tests/reference_learner.py` holds a step-by-step learner that draws under
the same contract, one `Generator.random()` call per uniform.

Only steps that can change the table pay for the full update; the draws
stay those of the contract.  Once an episode is in a settled state, one
from which no accepting branch can be reached, the rest of it is walked:
each step draws, adds its visit and moves on, and an episode in a trap (a
state whose one move is a non-accepting self-loop, such as a rejecting
sink) adds all its remaining steps to the trap's visit count at once.  No
step there earns, and an update whose entries all hold one value c leaves
c, so the walk is exact on every table `train` starts from; on a preset
table whose entries over the settled states differ, only traps are walked.
Once an episode is on an accepting self-loop, each step draws only the
diversion coin and updates the loop's one entry in a tight loop.  Tables,
curve, truncation count and stream position are those of the step-by-step
run (`_run` says why).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graphs import backward_levels
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


ANNEAL_FRACTION = 0.5  # epsilon reaches its floor this far into a run
VISIT_DECAY = 1000.0  # alpha = alpha0 / (1 + visits/VISIT_DECAY)


@dataclass(frozen=True)
class LearnConfig:
    episodes: int = 50_000
    max_steps: int = 1000
    alpha0: float = 1.0
    epsilon0: float = 0.3
    epsilon_final: float = 0.01
    seed: int = 0
    optimistic: bool = False

    def __post_init__(self):
        for name in ("episodes", "max_steps"):
            v = getattr(self, name)
            if v < 0:
                raise ValueError(f"{name} must be at least 0, got {v}")
        if not (math.isfinite(self.alpha0) and self.alpha0 > 0.0):
            raise ValueError(f"alpha0 must be finite and positive, got {self.alpha0!r}")
        for name in ("epsilon0", "epsilon_final"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:  # also false for NaN
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")


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


def _run(model: AugmentedModel, table: QTable, cfg: LearnConfig) -> tuple[list[tuple[int, float, float]], int]:
    """The one episode loop: runs cfg.episodes epsilon-greedy episodes of a
    reach or total view on `table`, updating it in place; returns the curve
    and the truncation count.

    Rejects the biased view, whose episodes never terminate and whose
    returns the undiscounted update does not estimate.  The loop walks the
    product's columns: pair k of state s is `pair_start[s] + k`, and its
    branches run from `first` to `last` of that pair.  The diversion coin is
    not a branch but a draw of its own; an accepting step that diverts pays
    1, and one that does not pays the view's `reward` of its branch.

    Draw accounting: states with a single pair and pairs with a single branch
    spend no randomness; otherwise one uniform decides greedy vs explore (a
    second picks the explored pair), one picks the branch, and accepting
    branches spend one on the diversion coin.  Each draw is the next value
    of one `UniformStream` seeded with cfg.seed.  The branch is
    `bisect_right` of its draw on the pair's partial sums, which are
    nondecreasing, searched from `first` to `last`: the first branch whose
    partial sum exceeds the draw, or the last, never a branch of the next
    pair.

    Each state's best value (`best`) and lowest-index best pair (`arg`) are
    cached and read for greedy choice and for the bootstrap maximum, which
    is read before the update (on a self-loop, the row before the write).
    Every write updates the cache; only a decrease of the cached best entry
    rescans its row.  This is exact: `max` of floats is exact, and ties go
    to the lowest index, as in `QTable.greedy`.

    Every step draws as above, but only steps that can change the table pay
    for the full update.  An episode that starts in, or moves into, one of
    two kinds of state runs the rest of its steps in a loop of its own:

    - Settled states are walked.  A state is settled when no accepting
      branch is reachable from it over any branch of any pair, whatever its
      probability (rounding slack can pick a pair's last branch).  The set
      is closed and holds no accepting branch, so no step in it earns or
      diverts; if every entry over it holds one finite value c, each update
      there is `c + alpha * (0 + c - c) = c`, `best` stays c and `arg` 0.
      A walked step draws what the contract says, adds its visit and moves
      on.  Every table `train` starts from meets that precondition; on any
      other table (entries that differ, are not finite, or are -0.0, which
      the update turns into 0.0) only the traps are walked.  A trap, a
      state with one pair whose one branch is a non-accepting self-loop,
      draws nothing, and its update adds 0.0 to its entry, which keeps any
      finite value but turns a -0.0 into 0.0, so the walk adds all the
      episode's remaining steps to its visit count at once, writes the
      entry and its cached best as entry + 0.0 and ends the episode as
      truncated.
    - Accepting self-loops are looped.  A state with one pair whose one
      branch is an accepting self-loop spends one draw per step, the
      diversion coin, and updates its one entry by the same arithmetic:
      r = 1 and no bootstrap on a diversion, else r = the branch's `reward`
      and the entry itself as the bootstrap.  Entry, visit count and `best`
      are written back when the episode ends.  This is exact on any table.

    Tables, curve, truncation count and stream position are those of the
    step-by-step run.
    """
    if model.mode is Mode.BIASED_DISCOUNT:
        raise ValueError("learning runs on the leaked views (reach or total)")
    p = model.product
    n = p.n_states
    head = p.pair_start[:-1]  # each state's first pair
    only = p.branch_start[head]  # and that pair's first branch
    single = (p.pair_count == 1) & (p.branch_count[head] == 1) & (p.succ[only] == np.arange(n))
    trap = (single & ~p.accepting[only]).tolist()
    looped = (single & p.accepting[only]).tolist()
    owner = p.pair_state[p.branch_pair]  # each branch's state
    settled = backward_levels(n, owner, p.succ, owner[p.accepting]) < 0
    q, visits = table.q, table.visits
    held = {x.hex() for s in np.flatnonzero(settled).tolist() for x in q[s]}  # bit patterns
    walked = trap
    if len(held) == 1 and held != {(-0.0).hex()} and math.isfinite(float.fromhex(*held)):
        walked = settled.tolist()
    leave = [w or lp for w, lp in zip(walked, looped)]  # where an episode leaves the full update
    starts, only = p.pair_start.tolist(), only.tolist()
    first, last = p.branch_start[:-1].tolist(), (p.branch_start[1:] - 1).tolist()  # per pair
    succ, accepting, cum = p.succ.tolist(), p.accepting.tolist(), p.partial_sums.tolist()
    reward = model.flat.reward.tolist()  # what an accepting step that does not divert pays
    divert = 1.0 - model.zeta  # probability that an accepting step diverts
    draw = UniformStream(np.random.default_rng(cfg.seed)).draws.__next__
    alpha0, decay, max_steps = cfg.alpha0, VISIT_DECAY, cfg.max_steps
    # epsilon falls linearly from epsilon0 to epsilon_final over the first `anneal` episodes
    eps0, eps_span = cfg.epsilon0, cfg.epsilon_final - cfg.epsilon0
    anneal = max(1, int(cfg.episodes * ANNEAL_FRACTION))
    best = [max(row) for row in q]
    arg = [row.index(m) for row, m in zip(q, best)]
    curve: list[tuple[int, float, float]] = []
    truncated = 0
    for ep in range(cfg.episodes):
        eps = eps0 + eps_span * (ep / anneal if ep < anneal else 1.0)
        total = 0.0
        reached = False
        cur = p.initial
        left = max_steps if leave[cur] else 0  # the steps left when the episode leaves the full update
        row, vrow, base = q[cur], visits[cur], starts[cur]
        npairs = len(row)
        for step in range(max_steps - left):
            if npairs == 1:
                k = 0
            elif draw() < eps:
                k = int(draw() * npairs)
                if k == npairs:
                    k = npairs - 1
            else:
                k = arg[cur]
            pid = base + k
            e = first[pid]
            if e != last[pid]:
                e = bisect_right(cum, draw(), e, last[pid])
            nxt = succ[e]
            m = best[nxt]
            if accepting[e]:
                if draw() < divert:
                    reached = True
                    r = 1.0
                    m = 0.0  # no bootstrap against the target
                else:
                    r = reward[e]
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
                if leave[cur]:
                    left = max_steps - 1 - step
                    break
                row, vrow, base = q[cur], visits[cur], starts[cur]
                npairs = len(row)
        if left and looped[cur]:
            row, vrow = q[cur], visits[cur]
            x, v, r = row[0], vrow[0], reward[only[cur]]
            for _ in range(left):
                alpha = alpha0 / (1.0 + v / decay)
                v += 1
                if draw() < divert:
                    reached = True
                    total += 1.0
                    x += alpha * (1.0 - x)  # r + m - x with r = 1.0 and m = 0.0
                    break
                total += r
                x += alpha * (r + x - x)
            row[0] = best[cur] = x
            vrow[0] = v
        elif left:
            for left in range(left, 0, -1):
                if trap[cur]:
                    visits[cur][0] += left
                    q[cur][0] = best[cur] = q[cur][0] + 0.0  # what the first update leaves
                    break
                npairs = len(q[cur])
                if npairs == 1:
                    k = 0
                elif draw() < eps:
                    k = int(draw() * npairs)
                    if k == npairs:
                        k = npairs - 1
                else:
                    k = arg[cur]
                pid = starts[cur] + k
                e = first[pid]
                if e != last[pid]:
                    e = bisect_right(cum, draw(), e, last[pid])
                visits[cur][k] += 1
                cur = succ[e]
        truncated += not reached
        curve.append((ep, total, eps))
    return curve, truncated


def train(model: AugmentedModel, cfg: LearnConfig) -> TrainResult:
    """Run cfg.episodes epsilon-greedy episodes, all in the one loop `_run`,
    and return table, greedy strategy, the per-episode learning curve and
    the truncation count."""
    init = 0.0
    if cfg.optimistic:
        init = 1.0 if model.mode is Mode.REACH_TARGET else 1.0 / (1.0 - model.zeta)
    table = QTable.for_model(model, init)
    curve, truncated = _run(model, table, cfg)
    return TrainResult(table, table.greedy(), curve, truncated)
