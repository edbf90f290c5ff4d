"""Exact solvers on augmented models.

Optimal values come from value iteration started at the all-zero vector,
which converges to the least fixpoint of the Bellman backup from below; the
iterates are monotone because rewards are nonnegative.  Per-strategy values
come from a direct linear solve restricted to states that can reach a reward
at all (everything else is exactly 0, and restricting also keeps the system
nonsingular); an iterative fallback covers models too large for a dense
matrix.

Every solver reads the model's flat branch table (`AugmentedModel.flat`);
the branch layout lives in `shaping`, built once per model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .shaping import AugmentedModel
from .product import Strategy


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")


@dataclass(frozen=True)
class ValueVector:
    """Values per product state; residual is the last sup-norm change, 0 for
    exact solves."""

    values: np.ndarray
    residual: float
    iterations: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def at_initial(self) -> float:
        return float(self.values[0])


# evaluate_policy solves densely up to this many live states and sweeps above it
DENSE_LIMIT = 10_000
SWEEP_TOL = 1e-12
SWEEP_MAX_ITER = 10**6


def _pair_values(model: AugmentedModel):
    """The map v -> value of every pair under v, one backup step ahead.

    Leak branches (weight 0, successor the target) are masked out; each
    pair's sum runs in branch order.
    """
    flat = model.flat
    n_pairs = flat.base.size
    kept = np.flatnonzero(flat.weight)
    pair = np.searchsorted(flat.branch_start, kept, side="right") - 1
    succ = flat.succ[kept]
    w = flat.weight[kept]
    return lambda v: flat.base + np.bincount(pair, weights=w * v[succ], minlength=n_pairs)


def bellman_backup(model: AugmentedModel, v: np.ndarray) -> np.ndarray:
    """One application of the optimal backup; exposed for tests."""
    q = _pair_values(model)(np.asarray(v, dtype=float))
    return np.maximum.reduceat(q, model.flat.pair_start[:-1])


def solve_optimal(
    model: AugmentedModel, tol: float = 1e-10, max_iter: int = 10**6
) -> ValueVector:
    """Value iteration from zero until the sup-norm step drops to tol."""
    pair_values = _pair_values(model)
    starts = model.flat.pair_start[:-1]
    n = model.n_states
    v = np.zeros(n)
    residual = math.inf
    for it in range(1, max_iter + 1):
        new = np.maximum.reduceat(pair_values(v), starts)
        residual = float(np.max(np.abs(new - v))) if n else 0.0
        v = new
        if residual <= tol:
            return ValueVector(v, residual, it)
    raise ConvergenceError("value iteration did not converge", residual, max_iter)


def greedy_policy(model: AugmentedModel, v: np.ndarray) -> Strategy:
    """Pair with the best one-step backup per state, lowest index on ties."""
    q = _pair_values(model)(np.asarray(v, dtype=float))
    bounds = model.flat.pair_start
    best = np.repeat(np.maximum.reduceat(q, bounds[:-1]), np.diff(bounds))
    # first pair per state that attains the state's best value
    first = np.minimum.reduceat(np.where(q == best, np.arange(q.size), q.size), bounds[:-1])
    return Strategy(tuple((first - bounds[:-1]).tolist()))


def evaluate_policy(model: AugmentedModel, f: Strategy) -> ValueVector:
    """Exact expected payoff of `f` per state.

    States that cannot reach a rewarding step have value exactly 0 and are
    fixed to it; the linear system is solved on the rest.  Above DENSE_LIMIT
    live states the direct solve gives way to iterative sweeps.
    """
    f.check(model.product)
    n = model.n_states
    flat = model.flat
    pid, row, br = flat.select(f.choice)
    b = flat.base[pid]
    # chosen branches that carry successor value; drops the leak branches
    keep = flat.weight[br] != 0.0
    row, br = row[keep], br[keep]
    succ = flat.succ[br]
    w = flat.weight[br]

    # states that can reach a positive immediate reward along chosen branches
    rev: list[list[int]] = [[] for _ in range(n)]
    for r, s in zip(row.tolist(), succ.tolist()):
        rev[s].append(r)
    live = b > 0.0
    stack = np.flatnonzero(live).tolist()
    while stack:
        u = stack.pop()
        for x in rev[u]:
            if not live[x]:
                live[x] = True
                stack.append(x)
    idx = np.flatnonzero(live)
    v = np.zeros(n)
    if idx.size == 0:
        return ValueVector(v, 0.0, 0)
    on = live[row] & live[succ]
    row, succ, w = row[on], succ[on], w[on]

    if idx.size <= DENSE_LIMIT:
        pos = -np.ones(n, dtype=np.int64)
        pos[idx] = np.arange(idx.size)
        a = np.eye(idx.size)
        np.subtract.at(a, (pos[row], pos[succ]), w)
        v[idx] = np.linalg.solve(a, b[idx])
        return ValueVector(v, 0.0, 0)

    # iterative fallback: sweeps of v <- b + A v on the live part
    residual = math.inf
    for it in range(1, SWEEP_MAX_ITER + 1):
        new = b + np.bincount(row, weights=w * v[succ], minlength=n)
        new[~live] = 0.0
        residual = float(np.max(np.abs(new - v)))
        v = new
        if residual <= SWEEP_TOL:
            return ValueVector(v, residual, it)
    raise ConvergenceError("policy evaluation did not converge", residual, SWEEP_MAX_ITER)
