"""Exact solvers on augmented models.

Optimal values come from value iteration started at the all-zero vector,
which converges to the least fixpoint of the Bellman backup from below.  One
sweep lays every pair's backup out on a rank-major (K, n) grid, K the most
pairs any state has: the k-th pair of state s is cell (k, s), and the cells
of states with fewer than K pairs hold -inf.  One bincount sums the branches
into their cells in branch order, a state's value is its column's max, and
the greedy policy takes the first row that attains it.  The iterates never
decrease, exactly and not just up to rounding: rewards and weights are
nonnegative and rounded sums and products are monotone, so from zero every
entry of new - v is >= 0, and its max is the sup-norm step.

`solve_optimal_many` holds the one value-iteration loop; `solve_optimal` is
its one-model case.  One builder, `_pair_grid`, lays out one model or
several side by side on one (K, N) grid: their state columns follow each
other (N the summed state count, K the largest of their pair counts), each
model's cells and successors offset by the columns of the models before it.
Every cell still sums the same branches in the same order, and a maximum is
exact in any order, so each model's iterate is bit for bit its iterate
alone; one reduceat over the columns gives each model's step.  A model
leaves at its own first step <= tol with that sweep's values, and the grid
is rebuilt from the models still running, so no sweep works on a finished
model.  Stacking pays on small models, whose sweeps cost mostly per-call
overhead; on large ones a sweep is bound by its data, and the stack only
keeps pace.

Per-strategy values solve one linear system (I - W) x = b restricted to the
states that can reach a reward at all along branches that carry successor
value, found by `shaping.can_reach`, the backward search the payoff sampler
also uses (everything else is exactly 0, and restricting also keeps the
system nonsingular).  Up to DENSE_LIMIT such states the system is solved
densely.  Above it, W stays a list of (row, col, w) entries (a few per row)
and the system is solved by an in-repo BiCGSTAB whose mat-vec is one
bincount, refined on the true residual, computed in twice the working
precision, until that residual is within RESIDUAL_TOL * max(1, max|x|); a
solve that does not get there raises ConvergenceError instead of returning
a worse answer.  Only numpy is needed at run time.

Every solver reads the model's flat branch table (`AugmentedModel.flat`);
the branch layout lives in `shaping`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .shaping import AugmentedModel, can_reach
from .product import Strategy


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")


@dataclass(frozen=True)
class ValueVector:
    """Values per product state.

    From value iteration, residual is the last sup-norm change and iterations
    the sweep count.  From a dense policy solve both are 0; from an iterative
    one (above DENSE_LIMIT live states) residual is the final true residual
    max|b - Mx| and iterations the number of BiCGSTAB passes.
    """

    values: np.ndarray
    residual: float
    iterations: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def at_initial(self) -> float:
        return float(self.values[0])


# evaluate_policy solves densely up to this many live states and sparsely above
# it: np.linalg.solve and BiCGSTAB break even between 300 and 400 live states on
# large_mdp products (2.4 and 2.8 ms at 296), and dense costs 10.5 ms to sparse
# 4.1-4.7 ms at 586
DENSE_LIMIT = 400
BICGSTAB_RTOL = 1e-12  # per pass, 2-norm relative to the pass's right-hand side
BICGSTAB_ITER = 10  # a pass stops after this many iterations per unknown
REFINE_PASSES = 4  # BiCGSTAB passes on the true residual before giving up
# the refinement target: max|b - Mx| <= RESIDUAL_TOL * max(1, max|x|); 4 eps of
# float64, a few times what the correctly rounded solution leaves
RESIDUAL_TOL = 4 * 2.0**-52


def _pair_grid(models: Sequence[AugmentedModel]):
    """The models' pair values side by side on one rank-major (K, N) grid.

    N is the models' summed state count and K the most pairs any state has:
    the k-th pair of state s of a model whose columns start at `off` is cell
    k * N + off + s, and cells without a pair hold -inf.  A sweep costs K * N
    cells, so one state with many pairs beside many one-pair states pads the
    grid.  Returns each model's start column and the map v -> every pair's
    value one backup step ahead, which adds each kept branch's weight times
    its successor's value to its pair's cell, in branch order; leak branches
    (weight 0, successor the target) are masked out.
    """
    counts = [np.diff(m.flat.pair_start) for m in models]
    starts = list(accumulate((m.n_states for m in models), initial=0))
    k, n = int(max(c.max() for c in counts)), starts[-1]
    base = np.full(k * n, -np.inf)
    slot, succ, weight = [], [], []
    for m, c, off in zip(models, counts, starts):
        flat = m.flat
        state = np.repeat(np.arange(m.n_states), c)
        cell = (np.arange(state.size) - flat.pair_start[state]) * n + off + state
        base[cell] = flat.base
        kept = np.flatnonzero(flat.weight)
        slot.append(cell[np.searchsorted(flat.branch_start, kept, side="right") - 1])
        succ.append(flat.succ[kept] + off)
        weight.append(flat.weight[kept])
    slot, succ, weight = np.concatenate(slot), np.concatenate(succ), np.concatenate(weight)

    def backup(v: np.ndarray) -> np.ndarray:
        sums = np.bincount(slot, weights=weight * v[succ], minlength=base.size)
        return (base + sums).reshape(k, n)

    return np.array(starts[:-1]), backup


def bellman_backup(model: AugmentedModel, v: np.ndarray) -> np.ndarray:
    """One application of the optimal backup; exposed for tests."""
    return _pair_grid([model])[1](np.asarray(v, dtype=float)).max(axis=0)


def solve_optimal(
    model: AugmentedModel, tol: float = 1e-10, max_iter: int = 10**6
) -> ValueVector:
    """Value iteration from zero until the sup-norm step drops to tol."""
    return solve_optimal_many([model], tol, max_iter)[0]


def solve_optimal_many(
    models: Sequence[AugmentedModel], tol: float = 1e-10, max_iter: int = 10**6
) -> tuple[ValueVector, ...]:
    """`solve_optimal` on every model, in one value-iteration loop.

    Each result is bit for bit the one its model gets alone.  If some models
    do not converge within max_iter sweeps, ConvergenceError is raised for
    the first of them, as calls on one model after another would raise it.
    """
    if not models:
        return ()
    out: list[ValueVector | None] = [None] * len(models)
    active = list(range(len(models)))  # the unconverged models, in input order
    steps = [math.inf] * len(models)
    starts, backup = _pair_grid(models)
    v = np.zeros(sum(m.n_states for m in models))
    for it in range(1, max_iter + 1):
        new = backup(v).max(axis=0)
        # each model's max of new - v is its sup-norm step, see the module docstring
        steps = np.maximum.reduceat(new - v, starts).tolist()
        v = new
        if min(steps) > tol:
            continue
        # the converged models leave with this sweep's values, the rest get a new grid
        bounds = starts.tolist() + [v.size]
        left = []
        for k, i in enumerate(active):
            if steps[k] <= tol:
                out[i] = ValueVector(v[bounds[k] : bounds[k + 1]].copy(), steps[k], it)
            else:
                left.append(k)
        if not left:
            return tuple(out)
        v = np.concatenate([v[bounds[k] : bounds[k + 1]] for k in left])
        steps = [steps[k] for k in left]
        active = [active[k] for k in left]
        starts, backup = _pair_grid([models[i] for i in active])
    raise ConvergenceError("value iteration did not converge", steps[0], max_iter)


def greedy_policy(model: AugmentedModel, v: np.ndarray) -> Strategy:
    """The pair with the best one-step backup per state, lowest index on ties."""
    q = _pair_grid([model])[1](np.asarray(v, dtype=float))
    return Strategy(tuple(np.argmax(q == q.max(axis=0), axis=0).tolist()))


def evaluate_policy(model: AugmentedModel, f: Strategy) -> ValueVector:
    """Exact expected payoff of `f` per state.

    States that cannot reach a rewarding step have value exactly 0 and are
    fixed to it; the linear system is solved on the rest, directly up to
    DENSE_LIMIT live states and by `_solve_sparse` above it.
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
    live = can_reach(b > 0.0, row, succ)
    idx = np.flatnonzero(live)
    v = np.zeros(n)
    if idx.size == 0:
        return ValueVector(v, 0.0, 0)
    on = live[row] & live[succ]
    pos = -np.ones(n, dtype=np.int64)
    pos[idx] = np.arange(idx.size)
    row, col, w = pos[row[on]], pos[succ[on]], w[on]

    if idx.size <= DENSE_LIMIT:
        a = np.eye(idx.size)
        np.subtract.at(a, (row, col), w)
        v[idx] = np.linalg.solve(a, b[idx])
        return ValueVector(v, 0.0, 0)
    v[idx], residual, passes = _solve_sparse(row, col, w, b[idx])
    return ValueVector(v, residual, passes)


def _two_sum(a, b):
    """a + b as an unevaluated pair (sum, error), exact (Knuth)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _two_product(a, b):
    """a * b as an unevaluated pair (product, error), exact (Dekker)."""
    p = a * b
    ca, cb = 134217729.0 * a, 134217729.0 * b  # 2**27 + 1 splits 53 bits in two halves
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _residual(b, x, row, col, w, ranks):
    """b - x + sum of w * x[col] per row, summed in twice the working precision.

    `ranks[k]` indexes the k-th entry of every row that has one, so each row
    takes its terms one at a time (Sum2/Dot2 of Ogita, Rump and Oishi, SIAM
    J. Sci. Comput. 2005).  Rounded plainly, the residual of an accurate x is
    all rounding noise, and refinement on it stalls at the condition number
    times eps.
    """
    hi, lo = _two_sum(b, -x)
    ph, pl = _two_product(w, x[col])
    for at in ranks:
        r = row[at]
        hi[r], err = _two_sum(hi[r], ph[at])
        lo[r] += err + pl[at]
    return hi + lo


def _bicgstab(matvec, b):
    """One unpreconditioned BiCGSTAB pass for M x = b from x = 0.

    The iteration of van der Vorst (SIAM J. Sci. Stat. Comput. 1992) with the
    shadow residual r~ = b; a test compares it bit for bit with a library
    implementation of the same steps.  It stops once
    |r| < BICGSTAB_RTOL * |b| in the 2-norm, after BICGSTAB_ITER * n
    iterations, or at a breakdown (rho, r~.v or omega exactly 0), and returns
    its current iterate in every case: `_solve_sparse` judges the result by
    the true residual, not by how the pass ended.
    """
    x = np.zeros_like(b)
    tol = BICGSTAB_RTOL * np.linalg.norm(b)
    r = b.copy()
    for it in range(BICGSTAB_ITER * b.size):
        if np.linalg.norm(r) < tol:
            break
        rho = b @ r
        if rho == 0.0:
            break
        if it == 0:
            p = r.copy()
        else:
            p -= omega * v
            p *= (rho / rho_prev) * (alpha / omega)
            p += r
        v = matvec(p)
        rv = b @ v
        if rv == 0.0:
            break
        alpha = rho / rv
        r -= alpha * v  # r is s from here on
        if np.linalg.norm(r) < tol:
            x += alpha * p
            break
        t = matvec(r)
        omega = (t @ r) / (t @ t)
        x += alpha * p
        x += omega * r
        r -= omega * t
        rho_prev = rho
        if omega == 0.0:
            break
    return x


def _solve_sparse(row, col, w, b):
    """Solve (I - W) x = b, W[row, col] = w, by BiCGSTAB with refinement.

    Each `_bicgstab` pass solves for the correction on the true residual
    b - Mx; the result is returned as (x, residual, passes) once that
    residual is at most RESIDUAL_TOL * max(1, max|x|), and ConvergenceError
    is raised when REFINE_PASSES passes do not get there.
    """
    n = b.size

    def matvec(y):
        return y - np.bincount(row, weights=w * y[col], minlength=n)

    rank = np.arange(row.size) - np.searchsorted(row, row)  # row is nondecreasing
    order = np.argsort(rank, kind="stable")
    ranks = np.split(order, np.flatnonzero(np.diff(rank[order])) + 1)
    x = np.zeros(n)
    r = b
    residual = math.inf
    for passes in range(1, REFINE_PASSES + 1):
        x = x + _bicgstab(matvec, r)
        r = _residual(b, x, row, col, w, ranks)
        residual = float(np.max(np.abs(r)))
        if residual <= RESIDUAL_TOL * max(1.0, float(np.max(np.abs(x)))):
            return x, residual, passes
        if not math.isfinite(residual):
            break
    raise ConvergenceError("policy evaluation missed its residual target", residual, passes)
