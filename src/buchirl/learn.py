"""Tabular Q-learning on the leaked payoff views.

Episodes run on the augmented dynamics: accepting steps divert to the target
with probability (1-zeta), and an episode ends there (or at the step cap).
Updates are undiscounted; the termination itself supplies the effective
bias, so the fixpoint of the update is the expected payoff of the view.
Against the target there is no bootstrap.

One episode loop does the learning.  `train` runs it without a trace;
`run_episode` runs single episodes through it with a trace sink, so the
trace shows exactly what training does.  Randomness comes from a buffered
uniform stream that is bit-transparent to the underlying generator, so a
sequence of `run_episode` calls on one stream replays `train` draw for draw.

An episode that falls into a trap is not simulated further.  A trap is a
product state with one pair whose one branch is a non-accepting self-loop,
such as a rejecting sink.  A step there draws nothing, earns 0 and
bootstraps on its own entry, so its update adds exactly 0.0 as long as the
entry and alpha are finite (`LearnConfig` checks alpha).  The loop adds the
remaining steps to the trap's visit count and ends the episode as truncated;
tables, curve, truncation count, stream position and traces are those of
the step-by-step run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .mdp import RunRecord
from .product import Strategy
from .shaping import AugmentedModel, Mode


class UniformStream:
    """Buffered uniform(0,1) draws from a numpy Generator.

    Chunked `Generator.random(n)` yields the same values as repeated single
    calls, so buffering does not change the stream, only when it is drawn.
    """

    CHUNK = 4096
    __slots__ = ("rng", "buf", "pos")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.buf = rng.random(self.CHUNK).tolist()
        self.pos = 0

    def draw(self) -> float:
        if self.pos == self.CHUNK:
            self.buf = self.rng.random(self.CHUNK).tolist()
            self.pos = 0
        v = self.buf[self.pos]
        self.pos += 1
        return v


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


def _check_mode(model: AugmentedModel) -> bool:
    """Returns True for the reach view; rejects the biased view, whose
    episodes never terminate and whose returns the undiscounted update does
    not estimate."""
    if model.mode is Mode.BIASED_DISCOUNT:
        raise ValueError("learning runs on the leaked views (reach or total)")
    return model.mode is Mode.REACH_TARGET


def _sim_tables(model: AugmentedModel):
    """Per state, per pair: (partial branch prob sums, successors, accepting,
    symbols).

    Sliced from the product's branch columns; the partial sums run left to
    right as the sampler scans them.  The diversion coin is separate so
    traces keep their symbols.
    """
    p = model.product
    succ, prob, acc, sym = (c.tolist() for c in (p.succ, p.prob, p.accepting, p.symbol))
    bounds = p.branch_start.tolist()
    rows = [
        (list(accumulate(prob[lo : hi - 1])), succ[lo:hi], acc[lo:hi], sym[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
    ]
    starts = p.pair_start.tolist()
    return [rows[lo:hi] for lo, hi in zip(starts, starts[1:])]


def _trap_flags(sim) -> list[bool]:
    """Per state: one pair, one branch, and that branch a non-accepting
    self-loop.  `_episode` stops simulating once it is in such a state."""
    return [
        len(rows) == 1 and not rows[0][0] and rows[0][1][0] == s and not rows[0][2][0]
        for s, rows in enumerate(sim)
    ]


def _sit_out(sim, visits, s, steps, trace):
    """Book `steps` steps in trap `s` without simulating them."""
    visits[s][0] += steps
    if trace is not None:
        symbol = sim[s][0][3][0]
        t_states, t_pairs, t_symbols, t_accepting = trace
        t_states.extend([s] * steps)
        t_pairs.extend([0] * steps)
        t_symbols.extend([symbol] * steps)
        t_accepting.extend([False] * steps)


def run_episode(
    model: AugmentedModel,
    table: QTable,
    cfg: LearnConfig,
    rng: np.random.Generator | UniformStream,
    epsilon: float | None = None,
) -> RunRecord:
    """One epsilon-greedy episode with in-place Q updates and a full trace.

    Runs the training loop's `_episode` with a trace sink, so a sequence of
    calls on one stream replays `train` draw for draw.
    """
    reach_mode = _check_mode(model)
    stream = rng if isinstance(rng, UniformStream) else UniformStream(rng)
    eps = cfg.epsilon0 if epsilon is None else epsilon
    initial = model.product.initial
    trace = ([initial], [], [], [])
    racc_cont = 0.0 if reach_mode else 1.0
    sim = _sim_tables(model)
    _, reached = _episode(
        sim,
        _trap_flags(sim),
        table.q,
        table.visits,
        initial,
        eps,
        1.0 - model.zeta,
        racc_cont,
        cfg,
        stream,
        trace,
    )
    if reached:
        trace[0][-1] = model.target  # the diverted step ends at the target
    states, actions, labels, accepting = trace
    return RunRecord(tuple(states), tuple(actions), tuple(labels), tuple(accepting), reached)


def _episode(
    sim, trap, q, visits, initial, eps, one_minus_zeta, racc_cont, cfg, stream, trace=None
):
    """The Q-learning episode loop; returns (total reward, reached target).

    Draw accounting: states with a single pair and pairs with a single branch
    spend no randomness; otherwise one uniform decides greedy vs explore (a
    second picks the explored pair), one picks the branch, and accepting
    branches spend one on the diversion coin.  Draws come from `stream`'s
    buffer, which is read here directly and left consistent on return.

    Traps (`trap[s]` true, see `_trap_flags`) are skipped: an episode that
    starts in one, or moves into one, adds its remaining steps to the trap's
    visit count and returns as truncated.  This is exact.  A trap step draws
    nothing under the accounting above and earns 0, and its update is
    `row[0] += alpha * (0 + row[0] - row[0])`, which adds 0.0 for finite
    alpha and row[0].  Only trap steps update row[0], so it keeps its
    initial value, finite in every `QTable.for_model` table.  Only the visit
    count moves, by one per step.  The flag is tested only when the state
    changes, so other steps cost what they did.

    `trace`, if given, is four lists (states, pairs, symbols, accepting) that
    each step appends to; the state appended is the raw branch successor, also
    on a final diverted step.  Skipped trap steps are appended too.
    """
    rng = stream.rng
    buf = stream.buf
    pos = stream.pos
    chunk = UniformStream.CHUNK
    alpha0 = cfg.alpha0
    decay = cfg.visit_decay
    tracing = trace is not None
    if tracing:
        t_states, t_pairs, t_symbols, t_accepting = trace
    cur = initial
    max_steps = cfg.max_steps
    if trap[cur]:
        _sit_out(sim, visits, cur, max_steps, trace)
        return 0.0, False
    row = q[cur]
    vrow = visits[cur]
    pairs = sim[cur]
    npairs = len(row)
    total = 0.0
    for step in range(max_steps):
        if npairs == 1:
            k = 0
        else:
            if pos == chunk:
                buf = rng.random(chunk).tolist()
                stream.buf = buf
                pos = 0
            u = buf[pos]
            pos += 1
            if u < eps:
                if pos == chunk:
                    buf = rng.random(chunk).tolist()
                    stream.buf = buf
                    pos = 0
                k = int(buf[pos] * npairs)
                pos += 1
                if k == npairs:
                    k = npairs - 1
            else:
                k = 0
                best = row[0]
                for i in range(1, npairs):
                    if row[i] > best:
                        best = row[i]
                        k = i
        cums, succs, accs, syms = pairs[k]
        if cums:
            if pos == chunk:
                buf = rng.random(chunk).tolist()
                stream.buf = buf
                pos = 0
            u = buf[pos]
            pos += 1
            b = len(cums)
            for i, cp in enumerate(cums):
                if u < cp:
                    b = i
                    break
        else:
            b = 0
        if tracing:
            t_states.append(succs[b])
            t_pairs.append(k)
            t_symbols.append(syms[b])
            t_accepting.append(accs[b])
        if accs[b]:
            if pos == chunk:
                buf = rng.random(chunk).tolist()
                stream.buf = buf
                pos = 0
            diverted = buf[pos] < one_minus_zeta
            pos += 1
            if diverted:
                total += 1.0
                nv = vrow[k]
                row[k] += (alpha0 / (1.0 + nv / decay)) * (1.0 - row[k])
                vrow[k] = nv + 1
                stream.pos = pos
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
                _sit_out(sim, visits, cur, max_steps - 1 - step, trace)
                stream.pos = pos
                return total, False
            row = q[cur]
            vrow = visits[cur]
            pairs = sim[cur]
            npairs = len(row)
    stream.pos = pos
    return total, False


def train(model: AugmentedModel, cfg: LearnConfig) -> TrainResult:
    """Run cfg.episodes epsilon-greedy episodes and return table, greedy
    strategy, the per-episode learning curve and the truncation count."""
    reach_mode = _check_mode(model)
    init = 0.0
    if cfg.optimistic:
        init = 1.0 if reach_mode else 1.0 / (1.0 - model.zeta)
    table = QTable.for_model(model, init)
    stream = UniformStream(np.random.default_rng(cfg.seed))
    sim = _sim_tables(model)
    trap = _trap_flags(sim)
    one_minus_zeta = 1.0 - model.zeta
    racc_cont = 0.0 if reach_mode else 1.0
    curve: list[tuple[int, float, float]] = []
    truncated = 0
    initial = model.product.initial
    for ep in range(cfg.episodes):
        eps = epsilon_at(cfg, ep)
        total, reached = _episode(
            sim, trap, table.q, table.visits, initial, eps, one_minus_zeta, racc_cont, cfg, stream
        )
        curve.append((ep, total, eps))
        if not reached:
            truncated += 1
    return TrainResult(table, table.greedy(), curve, truncated)
