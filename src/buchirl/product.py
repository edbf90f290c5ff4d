"""Product of a labelled MDP with a Buchi automaton.

A product state is a pair (MDP state, automaton state).  A product action is
a pair (MDP action, automaton successor q'): playing it runs the MDP action
and resolves the automaton nondeterminism to q' on whatever symbol comes out.
The pair is available only when the automaton has a move to q' for the symbol
of every MDP branch; a pair that covers only part of the branching would lose
probability mass and is dropped.  A branch is accepting exactly when the
automaton transition it takes is accepting.

Construction explores only states reachable from (initial, initial).  It
raises where it reads a missing automaton move, and at a reachable state whose
every pair was dropped, rather than silently produce a sub-stochastic model.

`build_product` is one first-in first-out search that numbers states in the
order it meets them.  A state is keyed by one int, the interned index of its
automaton state times the number of MDP states plus its MDP state.  The q'
that a group keeps are computed once per automaton state and set of symbols
on the group's edges (`Mdp.symbol_sets` names the sets) and cached, and a
kept pair appends only its group, its kind (which q' of which cache entry)
and the numbers of its branches' successors.  After the search the other
columns are gathered with array operations from the edge order of
`Mdp.groups`, and each accepting mark is looked up once per kind and symbol.

`ProductMdp` holds read-only columns: the pairs of state s are
pair_start[s] .. pair_start[s+1]-1, the branches of pair k are
branch_start[k] .. branch_start[k+1]-1, and `pair_state` and `branch_pair`
map each pair to its state and each branch to its pair.  Every layer of the
library, the oracle and the payoff views included, reads them directly; a
view's columns run parallel to them (see `shaping`).  `ProductMdp.pairs`
derives `Pair`/`Branch` tuples from them on first use; the view exists only
for `tests/` and `perfbench/`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import NamedTuple

import numpy as np

from .automata import Nba, is_deterministic
from .mdp import Mdp


class ProductError(ValueError):
    """Base for product construction failures."""


class AlphabetMismatchError(ProductError):
    pass


class IncompleteAutomatonError(ProductError):
    pass


class DeadEndError(ProductError):
    pass


class Branch(NamedTuple):
    succ: int        # product state index
    prob: float
    symbol: int      # MDP symbol index
    accepting: bool  # the automaton transition taken is accepting


class Pair(NamedTuple):
    action: int      # MDP action index
    memory: int      # automaton successor state
    branches: tuple[Branch, ...]


@dataclass(frozen=True, eq=False)  # array columns have no value equality
class ProductMdp:
    mdp: Mdp
    nba: Nba
    states: tuple[tuple[int, int], ...]  # (mdp state, automaton state)
    pair_start: np.ndarray               # (n_states+1,) int64
    branch_start: np.ndarray             # (n_pairs+1,) int64
    action: np.ndarray                   # (n_pairs,) int64, MDP action index
    memory: np.ndarray                   # (n_pairs,) int64, automaton successor state
    succ: np.ndarray                     # (n_branches,) int64, product state index
    prob: np.ndarray                     # float64
    symbol: np.ndarray                   # int64, MDP symbol index
    accepting: np.ndarray                # bool, the automaton transition taken is accepting
    gfm_caveat: bool

    initial = 0  # construction starts there by definition

    @cached_property
    def pairs(self) -> tuple[tuple[Pair, ...], ...]:
        """Available pairs per product state, as tuples built from the columns."""
        columns = (self.succ, self.prob, self.symbol, self.accepting)
        branches = list(map(Branch, *(c.tolist() for c in columns)))
        bounds, starts = self.branch_start.tolist(), self.pair_start.tolist()
        pairs = [
            Pair(act, mem, tuple(branches[lo:hi]))
            for act, mem, lo, hi in zip(self.action.tolist(), self.memory.tolist(), bounds, bounds[1:])
        ]
        return tuple(tuple(pairs[lo:hi]) for lo, hi in zip(starts, starts[1:]))

    @cached_property
    def pair_state(self) -> np.ndarray:
        """(n_pairs,) int64: the state each pair belongs to."""
        return _read_only(np.repeat(np.arange(self.n_states), np.diff(self.pair_start)))

    @cached_property
    def branch_pair(self) -> np.ndarray:
        """(n_branches,) int64: the pair each branch belongs to."""
        return _read_only(np.repeat(np.arange(self.n_pairs), np.diff(self.branch_start)))

    @cached_property
    def pair_count(self) -> np.ndarray:
        """(n_states,) int64: how many pairs each state has."""
        return _read_only(np.diff(self.pair_start))

    @cached_property
    def branch_count(self) -> np.ndarray:
        """(n_pairs,) int64: how many branches each pair has."""
        return _read_only(np.diff(self.branch_start))

    @cached_property
    def partial_sums(self) -> np.ndarray:
        """(n_branches,) float64: per branch, the sum of `prob` over its pair
        up to and including it.  Each pair's sums are added left to right,
        one rank at a time, so they are bit for bit the running sums a scan
        of the pair makes.  The learner and `shaping.simulate_batch` bisect
        them."""
        lo, count = self.branch_start[:-1], self.branch_count
        order = np.argsort(-count, kind="stable")  # the pairs with more than r branches come first
        lo, count = lo[order], count[order]
        cum = self.prob.copy()
        for r in range(1, int(count[0])):
            at = lo[: np.searchsorted(-count, -r)] + r  # rank r of every pair that has one
            cum[at] += cum[at - 1]
        return _read_only(cum)

    def first_best(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per state, the max of the pair column `q` over its pairs, and the
        rank of its lowest-index pair that attains it."""
        starts = self.pair_start[:-1]
        best = np.maximum.reduceat(q, starts)
        first = np.minimum.reduceat(np.where(q == best[self.pair_state], np.arange(q.size), q.size), starts)
        return best, first - starts

    def select(self, choice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pair `choice` picks per state, then the state and the flat index
        of each branch of those pairs, state by state in branch order.

        A (k, n_states) `choice` stacks k strategies as k * n_states nodes,
        node r * n_states + s being state s under row r; the pairs and the
        rows of the branches then number those nodes."""
        pid = (self.pair_start[:-1] + np.asarray(choice, dtype=np.int64)).ravel()
        lo = self.branch_start[pid]
        row = np.repeat(np.arange(pid.size), self.branch_count[pid])
        within = np.arange(row.size) - np.searchsorted(row, row)  # rank in its pair
        return pid, row, lo[row] + within

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_pairs(self) -> int:
        return self.action.size

    @property
    def accepting_branch_count(self) -> int:
        return int(np.count_nonzero(self.accepting))

    def state_name(self, i: int) -> str:
        s, q = self.states[i]
        return f"{self.mdp.states[s]}|q{q}"

    @cached_property
    def pair_names(self) -> tuple[str, ...]:
        """Every pair's "action@qm" name, in pair order."""
        actions = self.mdp.actions
        return tuple(f"{actions[a]}@q{m}" for a, m in zip(self.action.tolist(), self.memory.tolist()))

    def pair_name(self, state: int, k: int) -> str:
        lo, hi = self.pair_start[state], self.pair_start[state + 1]
        if not 0 <= k < hi - lo:
            raise IndexError(f"state {state} has no pair {k}")
        return self.pair_names[lo + k]

    def chosen_pair_names(self, choice) -> list[str]:
        """The name of the pair `choice` picks, per state."""
        names = self.pair_names
        return [names[lo + k] for lo, k in zip(self.pair_start.tolist(), choice)]


def build_product(m: Mdp, a: Nba) -> ProductMdp:
    """Reachable product of `m` and `a`; see the module docstring for the rules.

    Preconditions: `m` passes validation, and `a` has each move the search
    reads (IncompleteAutomatonError where it misses one).  The asserted
    good-for-MDPs flag is not checked; when the automaton is neither
    deterministic nor flagged, the result carries ``gfm_caveat=True`` and
    downstream optima are only guaranteed to be lower bounds on the Buchi
    value of `m`.
    """
    if set(m.symbols) != set(a.symbols):
        only_m = sorted(set(m.symbols) - set(a.symbols))
        only_a = sorted(set(a.symbols) - set(m.symbols))
        raise AlphabetMismatchError(
            f"alphabets differ (MDP only: {only_m}, automaton only: {only_a})"
        )
    sym_map = tuple(a.symbols.index(name) for name in m.symbols)
    n_mdp, n_sym = len(m.states), len(m.symbols)
    state_start, group_action, edge_start, edge = m.groups
    groups_at, edges_at = state_start.tolist(), edge_start.tolist()  # the search reads lists
    symbol_set = m.symbol_sets.tolist()
    e_succ = m.succ[edge].tolist()  # the edges in group order

    # A state's key is its automaton state's interned index times n_mdp plus
    # its MDP state.  A kind is one kept q' of one (q, symbol set); its marks
    # are looked up once, for each symbol of the set, into `mark_key` (kind
    # * n_sym + symbol, ascending as kinds and symbols are) and `mark`.
    automaton_states, interned = [a.initial], {a.initial: 0}  # by interned index
    kept_at = [{}]  # per interned automaton state: symbol set -> [(kind, key base of its states)]
    kind_memory, mark_key, mark = [], [], []

    def kept_kinds(q: int, s: int, k: int) -> list[tuple[int, int]]:
        """The kinds of each q' that every symbol of group k moves to from q,
        q' ascending; raises where the group cannot be read."""
        symbols = sorted(set(m.symbol[edge[edges_at[k]:edges_at[k + 1]]].tolist()))
        if symbols[0] < 0:
            raise ProductError(
                f"unlabelled edge at ({m.states[s]},{m.actions[group_action[k]]}); "
                "validate the MDP first"
            )
        moves = [dict(a.moves(q, sym_map[x])) for x in symbols]  # {q': accepting} per symbol
        if not all(moves):
            raise IncompleteAutomatonError(
                "automaton is missing moves; complete it first "
                "(complete_with_trap adds a rejecting trap)"
            )
        kinds = []
        for q2 in sorted(set(moves[0]).intersection(*moves[1:])):
            if q2 not in interned:
                interned[q2] = len(automaton_states)
                automaton_states.append(q2)
                kept_at.append({})
            kind = len(kind_memory)
            kinds.append((kind, interned[q2] * n_mdp))
            kind_memory.append(q2)
            mark_key.extend(kind * n_sym + x for x in symbols)
            mark.extend(move[q2] for move in moves)
        return kinds

    # the search numbers the keys in the order it meets them
    keys, index = [m.initial], {m.initial: 0}
    number = index.setdefault
    pair_start, group, kind, succ = [0], [], [], []  # per pair: its MDP group and its kind
    head = 0
    while head < len(index):
        if head == len(keys):  # the keys numbered since the last fetch, in number order
            keys += reversed(list(islice(reversed(index), len(index) - head)))
        qi, s = divmod(keys[head], n_mdp)
        known = kept_at[qi]
        for k in range(groups_at[s], groups_at[s + 1]):
            kept = known.get(symbol_set[k])
            if kept is None:
                kept = known[symbol_set[k]] = kept_kinds(automaton_states[qi], s, k)
            # a pair survives when every branch has a move to its q'; the
            # successors are numbered only once the pair is known to survive
            if kept:
                targets = e_succ[edges_at[k]:edges_at[k + 1]]
                for j, base in kept:
                    group.append(k)
                    kind.append(j)
                    succ += [number(base + t, len(index)) for t in targets]
        if len(group) == pair_start[-1]:
            raise DeadEndError(
                f"product state ({m.states[s]},q{automaton_states[qi]}) has no available pair; "
                "every automaton choice drops probability mass"
            )
        pair_start.append(len(group))
        head += 1

    # every other column is gathered from the edges in group order
    group, kind = np.array(group, dtype=np.int64), np.array(kind, dtype=np.int64)
    lo = edge_start[group]
    count = edge_start[group + 1] - lo
    branch_start = np.zeros(group.size + 1, dtype=np.int64)
    np.cumsum(count, out=branch_start[1:])
    e = edge[np.arange(branch_start[-1]) + np.repeat(lo - branch_start[:-1], count)]
    symbol = m.symbol[e]
    at = np.searchsorted(np.array(mark_key, dtype=np.int64), np.repeat(kind, count) * n_sym + symbol)
    columns = [np.array(pair_start, dtype=np.int64), branch_start, group_action[group]]
    columns += [np.array(kind_memory, dtype=np.int64)[kind], np.array(succ, dtype=np.int64), m.prob[e], symbol]
    columns.append(np.array(mark, dtype=bool)[at])
    q_of, s_of = divmod(np.array(keys, dtype=np.int64), n_mdp)
    states = tuple(zip(s_of.tolist(), np.array(automaton_states, dtype=np.int64)[q_of].tolist()))
    caveat = not (a.gfm is True or is_deterministic(a))
    return ProductMdp(m, a, states, *map(_read_only, columns), caveat)


def _read_only(col: np.ndarray) -> np.ndarray:
    col.flags.writeable = False  # payoff views share some of them
    return col


@dataclass(frozen=True)
class Strategy:
    """Positional product strategy: one available pair index per state."""

    choice: tuple[int, ...]

    def rows(self) -> np.ndarray:
        """The choice as a (1, n_states) array, the batch form that
        `check_choices` and `solvers.evaluate_policies` take."""
        return np.array(self.choice, ndmin=2)

    def check(self, p: ProductMdp) -> None:
        check_choices(p, self.rows())


def check_choices(p: ProductMdp, choices) -> np.ndarray:
    """The (k, n_states) strategy array `choices` as int64, once checked.

    Raise ValueError unless every pick is an integer, and every row picks an
    available pair at every state; the message names the first bad row's
    first bad state.  A float or bool pick raises rather than be cast."""
    picks = np.asarray(choices)
    if picks.size and picks.dtype.kind not in "iu":
        raise ValueError(f"strategy picks must be int64 integers, not {picks.dtype}")
    choices = picks.astype(np.int64, copy=False)
    if choices.ndim != 2 or choices.shape[1] != p.n_states:
        raise ValueError("strategy length does not match the product")
    bad = choices.view(np.uint64) >= p.pair_count  # a negative pick wraps to a huge one
    if np.count_nonzero(bad):
        row, st = np.argwhere(bad)[0].tolist()
        raise ValueError(f"strategy picks unavailable pair {picks[row, st]} at state {st}")
    return choices
