"""Exact solvers on augmented models.

`solve_optimal` is policy iteration over `evaluate_policy`, the one-row case
of `evaluate_policies`, the one exact evaluator.  It starts from a given
strategy, or else from the myopic one (`greedy_policy` on all-zero values:
the best immediate reward).  Each round evaluates the strategy exactly and
gives every pair its one-step value under those values, with one bincount
over the view's branches in branch order.  A state switches only where some pair beats its current pair by more
than SWITCH_TOL * max(1, |v|), and then to its lowest-index best pair; a
round in which no state switches returns the values together with the
strategy they belong to.  That strategy is PI's own: greedy on the exact
values could take a zero-reward self-loop that ties, in the total view, with
the accepting pair that earns 1/(1-zeta), and the loop never accepts.  PI is
sound here because PReach = (1-zeta) * ETotal reduces the total view to
maximal reachability, where switching on strict gains only reaches the
optimum from any start (Forejt, Kwiatkowska, Norman and Parker, SFM 2011);
the biased view's backup coincides with the total view's coefficient for
coefficient.  Past MAX_ROUNDS rounds, ConvergenceError is raised.

Per-strategy values solve one linear system (I - W) x = b restricted to the
states that can reach a reward at all along the chosen branches, found by
`graphs.backward_levels` from the mask `base > 0` over the chosen branches'
columns, the call the payoff sampler also makes (everything else is exactly
0, and restricting also keeps the system nonsingular).  Up to DENSE_LIMIT such states the system is solved densely.
Above it, W stays a list of (row, col, w) entries (a few per row) and the
system is solved by an in-repo BiCGSTAB whose mat-vec is one bincount,
refined on the true residual, computed in twice the working precision,
until that residual is within RESIDUAL_TOL * max(1, max|x|); a solve that
does not get there raises ConvergenceError instead of returning a worse
answer.  Only numpy is needed at run time.

`evaluate_policies` takes strategies on a batch axis, a (k, n_states) array
of choices.  It stacks as many rows as fit in DENSE_LIMIT states in all (so
a product above DENSE_LIMIT states goes one row at a time, and no stack
holds a larger dense system than a single row may): one gather selects the
stack's branches, one backward search over its rows as one chain finds
every row's live set, and the rows whose live sets have one size m are
solved by one `np.linalg.solve` over a (g, m, m) array.  That gufunc runs
the same LAPACK call per system, so every row gets the values it gets
alone, bit for bit.

Every solver reads the view's columns (`AugmentedModel.flat`) beside the
product's successors and offsets, which they run parallel to; the leak into
the target enters only through `base`, since the target is worth 0.  The
layout lives in `shaping`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graphs import backward_levels
from .shaping import AugmentedModel
from .product import Strategy, check_choices


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")


@dataclass(frozen=True)
class ValueVector:
    """Values per product state, and the strategy they are the values of.

    From `solve_optimal`, iterations is the number of policy-iteration rounds
    and residual that of the last round's evaluation.  From `evaluate_policy`
    on a dense system both are 0; on an iterative one (above DENSE_LIMIT live
    states) residual is the final true residual max|b - Mx| and iterations
    the number of BiCGSTAB passes.
    """

    values: np.ndarray
    residual: float
    iterations: int
    policy: Strategy | None = None

    def __post_init__(self):
        if np.count_nonzero(np.isfinite(self.values)) < self.values.size:
            raise ValueError("values must be finite")

    def at_initial(self) -> float:
        return float(self.values[0])


MAX_ROUNDS = 1000  # policy-iteration rounds before solve_optimal gives up
SWITCH_TOL = 1e-12  # a pair must beat the current one by this times max(1, |v|)
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


def _pair_values(model: AugmentedModel, v: np.ndarray) -> np.ndarray:
    """Every pair's value one step ahead of v, in one bincount.

    Each branch adds its weight times its successor's value to its pair, in
    branch order, on top of the pair's `base`.
    """
    p, flat = model.product, model.flat
    ahead = flat.weight * np.asarray(v, dtype=float)[p.succ]
    return flat.base + np.bincount(p.branch_pair, weights=ahead, minlength=p.n_pairs)


def solve_optimal(model: AugmentedModel, start: Strategy | None = None) -> ValueVector:
    """Policy iteration from `start`, or else from the myopic strategy.

    Returns the optimal values with PI's own strategy as `policy`, and
    raises ConvergenceError when a state still switches after MAX_ROUNDS
    rounds; see the module docstring.
    """
    p = model.product
    starts = p.pair_start[:-1]
    f = greedy_policy(model, np.zeros(model.n_states)) if start is None else start
    for rounds in range(1, MAX_ROUNDS + 1):
        v = evaluate_policy(model, f)
        q = _pair_values(model, v.values)
        choice = np.asarray(f.choice, dtype=np.int64)
        gain = np.maximum.reduceat(q - q[starts + choice][p.pair_state], starts)
        switch = gain > SWITCH_TOL * np.maximum(1.0, np.abs(v.values))
        if not switch.any():
            return replace(v, iterations=rounds)
        choice[switch] = p.first_best(q)[1][switch]
        f = Strategy(tuple(choice.tolist()))
    raise ConvergenceError("policy iteration did not stabilize", float(gain.max()), MAX_ROUNDS)


def greedy_policy(model: AugmentedModel, v: np.ndarray) -> Strategy:
    """The pair with the best one-step value per state, lowest index on ties."""
    _, first = model.product.first_best(_pair_values(model, v))
    return Strategy(tuple(first.tolist()))


def evaluate_policy(model: AugmentedModel, f: Strategy) -> ValueVector:
    """Exact expected payoff of `f` per state, with `f` as the policy: the
    one-row case of `evaluate_policies`."""
    values, residual, iterations = evaluate_policies(model, f.rows())
    return ValueVector(values[0], float(residual[0]), int(iterations[0]), f)


def evaluate_policies(model: AugmentedModel, choices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact expected payoff per state of every row of the (k, n_states)
    strategy array `choices`, as (values, residual, iterations): values is
    (k, n_states), and residual and iterations hold, per row, what a
    `ValueVector` from `evaluate_policy` holds.

    Each state's equation takes its chosen pair's `base` and, for every
    branch of that pair, the branch's weight on its successor; the leak
    into the target is part of `base` alone.  States that cannot reach a
    rewarding step have value exactly 0 and are fixed to it; the linear
    system is solved on the rest, directly up to DENSE_LIMIT live states and
    by `_solve_sparse` above it.  The rows go in stacks of at most
    DENSE_LIMIT states in all, or one row at a time above that; a stack's
    rows whose live sets have one size are solved in one call, which gives
    every row the values it gets alone.
    """
    p = model.product
    choices = check_choices(p, choices)
    k, n = choices.shape
    values = np.zeros((k, n))
    residual = np.zeros(k)
    iterations = np.zeros(k, dtype=np.int64)
    per = max(1, DENSE_LIMIT // n)
    for lo in range(0, k, per):
        residual[lo], iterations[lo] = _evaluate_stack(model, choices[lo : lo + per], values[lo : lo + per])
    if np.count_nonzero(np.isfinite(values)) < values.size:
        raise ValueError("values must be finite")
    return values, residual, iterations


def _evaluate_stack(model: AugmentedModel, choices: np.ndarray, out: np.ndarray) -> tuple[float, int]:
    """`evaluate_policies` on one stack of s rows, written into `out`;
    returns the residual and passes of a sparse solve, (0.0, 0) if none ran.

    The rows are one chain over s * n nodes (see `ProductMdp.select`), so
    one backward search finds every row's live set.  The g systems of size
    m sit in one (g*m, m) array: the live nodes of those g rows, in node
    order, are positions 0 .. g*m-1, and the entry from position i to
    position j goes to [i, j % m].
    """
    p = model.product
    s, n = choices.shape
    pid, row, br = p.select(choices)
    b, w, succ = model.flat.base[pid], model.flat.weight[br], p.succ[br]
    if s > 1:
        succ = succ + (row - row % n)  # the successor under the same row
    # nodes that can reach a positive immediate reward along chosen branches
    live = backward_levels(s * n, row, succ, b > 0.0) >= 0
    on = live[succ]  # an edge into a live node leaves a live one
    row, col, w = row[on], succ[on], w[on]
    nodes = live.nonzero()[0]
    if s > 1:
        size = live.reshape(s, n).sum(axis=1)
        sizes = set(size.tolist())
    else:
        sizes = {nodes.size}
    sizes.discard(0)
    values = out.reshape(-1)
    for m in sizes:
        r, c, wm = row, col, w  # when every row with a live node has m of them
        if len(sizes) > 1:
            sel = live & np.repeat(size == m, n)
            nodes, keep = sel.nonzero()[0], sel[row]
            r, c, wm = row[keep], col[keep], w[keep]
        i, j = r, c  # positions are node numbers when every node is live
        if nodes.size < s * n:
            pos = np.zeros(s * n, dtype=np.int64)
            pos[nodes] = np.arange(nodes.size)
            i, j = pos[r], pos[c]
        if m > DENSE_LIMIT:  # then the stack is one row
            values[nodes], residual, passes = _solve_sparse(i, j, wm, b[nodes])
            return residual, passes
        if nodes.size > m:
            j = j % m  # the position within its own system
        a = np.zeros((nodes.size, m))
        a.reshape(-1, m * m)[:, :: m + 1] = 1.0  # each system's identity
        np.subtract.at(a, (i, j), wm)
        x = np.linalg.solve(a.reshape(-1, m, m), b[nodes].reshape(-1, m, 1))
        values[nodes] = x.reshape(-1)
    return 0.0, 0


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
