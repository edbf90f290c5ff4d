"""Labelled Markov decision processes and their JSON interchange format.

States, actions and alphabet symbols are referenced by name on disk and by
index in memory.  Every edge carries the probability of reaching one
successor under one action together with the symbol that step emits, so the
labelling is a function of (state, action, successor).

`Mdp` holds the edges as five read-only columns in input order (`state`,
`action`, `succ`, `prob`, `symbol`), and its cached `Mdp.groups` groups them
by (state, action), actions ascending, for `build_product` and `validate`;
`Mdp.symbol_sets` names the set of symbols on each group's edges.

`mdp_from_json` reads each transition field in one pass and checks a whole
column at once: a name by its look-up in its pool, a probability by its type
and `math.isfinite`.  Only when a check fails does it go through the
transitions one at a time, to report the first bad one.  `validate` takes
its per-edge errors from masks over the columns and the mass of every group
from one pass, and formats a message only for what it flags.

The JSON shape is strict: top level ``{states, actions, alphabet, initial,
transitions}``, each transition ``{from, action, to, prob, label}``, nothing
else, and no object names a key twice.  A ``null`` label loads (so the
checker can point at it) but counts as a validation error.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path

import numpy as np

from .graphs import backward_levels


class MdpFormatError(ValueError):
    """MDP JSON does not match the expected shape."""


@dataclass(frozen=True, eq=False)  # array columns have no value equality
class Mdp:
    """A labelled MDP: names, the initial state, and its edges as five
    columns in input order, stored read-only as int64 (`prob` as float64);
    `symbol` is -1 where the label is null."""

    states: tuple[str, ...]
    actions: tuple[str, ...]
    symbols: tuple[str, ...]
    initial: int
    state: np.ndarray
    action: np.ndarray
    succ: np.ndarray
    prob: np.ndarray
    symbol: np.ndarray

    def __post_init__(self):
        if not self.states:
            raise ValueError("MDP needs at least one state")
        for pool, what in (
            (self.states, "state"),
            (self.actions, "action"),
            (self.symbols, "symbol"),
        ):
            if len(set(pool)) != len(pool):
                raise ValueError(f"duplicate {what} names")
        if not 0 <= self.initial < len(self.states):
            raise ValueError("initial state out of range")
        for name in ("state", "action", "succ", "prob", "symbol"):
            col = np.asarray(getattr(self, name))
            # a cast would truncate a fractional index and parse a numeric string
            kinds, what = ("iuf", "numbers") if name == "prob" else ("iu", "integers")
            if col.size and col.dtype.kind not in kinds:
                raise ValueError(f"edge column {name} must hold {what}, not {col.dtype}")
            col = np.array(col, dtype=np.float64 if name == "prob" else np.int64)
            if col.shape != (len(self.state),):
                raise ValueError("edge columns must be 1-D and of one length")
            col.flags.writeable = False  # a copy, so no caller can write it
            object.__setattr__(self, name, col)
        for col, low, pool, what in (
            (self.state, 0, self.states, "state"),
            (self.succ, 0, self.states, "state"),
            (self.action, 0, self.actions, "action"),
            (self.symbol, -1, self.symbols, "symbol"),
        ):
            if col.size and not low <= col.min() <= col.max() < len(pool):
                raise ValueError(f"edge references an unknown {what}")

    @cached_property
    def groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The edges grouped by (state, action): read-only int64 columns
        (state_start, action, edge_start, edge).  The groups of state s are
        state_start[s] .. state_start[s+1]-1, actions ascending, and `action`
        holds each group's action; the edges of group k are
        edge[edge_start[k]] .. edge[edge_start[k+1]-1], in input order."""
        key = self.state * len(self.actions) + self.action
        edge = np.argsort(key, kind="stable")
        first = np.flatnonzero(np.diff(key[edge], prepend=-1))  # each group's first slot
        state_start = np.searchsorted(self.state[edge[first]], np.arange(len(self.states) + 1))
        groups = (state_start, self.action[edge[first]], np.append(first, edge.size), edge)
        for col in groups:
            col.flags.writeable = False
        return groups

    @cached_property
    def symbol_sets(self) -> np.ndarray:
        """(n_groups,) int64: per group of `groups`, an id that two groups
        share exactly when their edges carry one set of symbols.  A group
        whose edges all carry one symbol x (-1 for a null label) has id x;
        each other set gets an id from len(symbols) up."""
        _, _, edge_start, edge = self.groups
        symbol, lo = self.symbol[edge], edge_start[:-1]
        ids = symbol[lo]
        sets: dict[frozenset[int], int] = {}
        for k in np.flatnonzero(np.minimum.reduceat(symbol, lo) < np.maximum.reduceat(symbol, lo)).tolist():
            held = frozenset(symbol[edge_start[k]:edge_start[k + 1]].tolist())
            ids[k] = len(self.symbols) + sets.setdefault(held, len(sets))
        ids.flags.writeable = False
        return ids


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    code: str
    message: str


def validate(m: Mdp) -> list[Diagnostic]:
    """Semantic checks beyond structural well-formedness.

    Errors: probabilities outside (0,1], per-(state,action) mass away from 1,
    repeated (from,action,to) triples, unlabelled edges, states without any
    action.  Warning: states unreachable from the initial state.  Per-edge
    errors come first, in edge order; then each state's, in state order and
    actions ascending; then the warnings.

    The checks run over whole columns and format a message only for what
    they flag.  A group's mass is summed in one pass over all groups, and
    `math.fsum` decides every group that pass cannot prove within 1e-9 of 1.
    """
    states, actions = m.states, m.actions
    out: list[Diagnostic] = []
    out_of_range = ~((m.prob > 0.0) & (m.prob <= 1.0))
    # a stable sort puts a repeated (state, action, succ) right after its
    # earlier copies; the key is below n_states**2 * n_actions
    triple = (m.state * len(actions) + m.action) * len(states) + m.succ
    order = np.argsort(triple, kind="stable")
    repeated = np.zeros(order.size, dtype=bool)
    triple = triple[order]
    repeated[order[1:]] = triple[1:] == triple[:-1]
    unlabelled = m.symbol < 0
    for i in np.flatnonzero(out_of_range | repeated | unlabelled).tolist():
        where = f"({states[m.state[i]]},{actions[m.action[i]]},{states[m.succ[i]]})"
        if out_of_range[i]:
            out.append(Diagnostic("error", "prob-range", f"edge {where} has probability {m.prob[i].item()!r} outside (0,1]"))
        if repeated[i]:
            out.append(Diagnostic("error", "duplicate-edge", f"edge {where} appears twice"))
        if unlabelled[i]:
            out.append(Diagnostic("error", "unlabelled-edge", f"edge {where} has a null label"))
    state_start, group_action, edge_start, edge = m.groups
    prob, lo = m.prob[edge], edge_start[:-1]  # prob in group order
    # one pass sums every group; for a group of n edges its error is below
    # n * 2**-53 * sum|p|, so twice that also covers fsum's own rounding, and
    # fsum decides every group the pass cannot place within 1e-9 of 1
    total = np.add.reduceat(prob, lo)
    margin = (edge_start[1:] - lo) * 2.0**-52 * np.add.reduceat(np.abs(prob), lo)
    doubtful = np.flatnonzero(~(np.abs(total - 1.0) <= 1e-9 - margin))  # NaN included
    per_state = [(s, -1, 0.0) for s in np.flatnonzero(state_start[1:] == state_start[:-1]).tolist()]  # no actions
    owner = np.searchsorted(state_start, doubtful, side="right") - 1
    for s, k in zip(owner.tolist(), doubtful.tolist()):
        total_k = math.fsum(prob[edge_start[k]:edge_start[k + 1]].tolist())
        if abs(total_k - 1.0) > 1e-9:
            per_state.append((s, k, total_k))
    for s, k, total_k in sorted(per_state):
        if k < 0:
            out.append(Diagnostic("error", "no-actions", f"state {states[s]} has no actions"))
        else:
            where = f"({states[s]},{actions[group_action[k]]})"
            out.append(Diagnostic("error", "prob-sum", f"probabilities for {where} sum to {total_k!r}"))
    # over the reversed edges the levels run forward: -1 marks what the initial state cannot reach
    level = backward_levels(len(states), m.succ, m.state, [m.initial])
    for s in np.flatnonzero(level < 0).tolist():
        out.append(Diagnostic("warning", "unreachable", f"state {states[s]} is unreachable"))
    return out


_TOP_KEYS = {"states", "actions", "alphabet", "initial", "transitions"}
_EDGE_KEYS = {"from", "action", "to", "prob", "label"}


def mdp_from_json(data: object) -> Mdp:
    if not isinstance(data, dict):
        raise MdpFormatError("top level must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise MdpFormatError(f"unknown top-level fields: {sorted(unknown)}")
    missing = _TOP_KEYS - set(data)
    if missing:
        raise MdpFormatError(f"missing top-level fields: {sorted(missing)}")

    def name_list(key: str) -> list[str]:
        v = data[key]
        if not isinstance(v, list) or not all(isinstance(x, str) for x in v):
            raise MdpFormatError(f"{key} must be a list of strings")
        if len(set(v)) != len(v):
            raise MdpFormatError(f"{key} contains duplicate names")
        return v

    states = name_list("states")
    actions = name_list("actions")
    symbols = name_list("alphabet")
    if not states:
        raise MdpFormatError("states must be nonempty")
    sidx = {n: i for i, n in enumerate(states)}
    aidx = {n: i for i, n in enumerate(actions)}
    lidx = {n: i for i, n in enumerate(symbols)}
    if not isinstance(data["initial"], str) or data["initial"] not in sidx:
        raise MdpFormatError(f"initial {data['initial']!r} does not name a state")
    raw = data["transitions"]
    if not isinstance(raw, list):
        raise MdpFormatError("transitions must be a list")
    columns = _edge_columns(raw, sidx, aidx, lidx)
    if columns is None:
        raise _first_bad_transition(raw, sidx, aidx, lidx)
    return Mdp(tuple(states), tuple(actions), tuple(symbols), sidx[data["initial"]], *columns)


def _edge_columns(raw: list, sidx: dict, aidx: dict, lidx: dict) -> list[np.ndarray] | None:
    """The columns (state, action, succ, prob, symbol) of the transitions, or
    None if any transition fails a check.  Each field is read in one pass
    and checked over the whole column: a name by its look-up in its pool,
    where a miss (a None index, or a name that cannot be a key) raises, and
    a probability by its type and `math.isfinite`."""
    if not all(map(isinstance, raw, repeat(dict))) or not set(map(len, raw)) <= {len(_EDGE_KEYS)}:
        return None
    n = len(raw)
    try:  # a missing field, a name that is no key of its pool, a prob that is no number
        state, action, succ, symbol = (
            np.fromiter(map(pool.get, [t[key] for t in raw]), dtype=np.int64, count=n)
            for key, pool in (("from", sidx), ("action", aidx), ("to", sidx), ("label", {**lidx, None: -1}))
        )
        prob = [t["prob"] for t in raw]
        if bool in set(map(type, prob)) or not all(map(math.isfinite, prob)):
            return None
    except (KeyError, TypeError, OverflowError):
        return None
    return [state, action, succ, np.fromiter(map(float, prob), dtype=np.float64, count=n), symbol]


def _first_bad_transition(raw: list, sidx: dict, aidx: dict, lidx: dict) -> MdpFormatError:
    """The error of the first transition that fails a check, checked one at
    a time in the order the messages are listed."""
    for k, t in enumerate(raw):
        if not isinstance(t, dict):
            return MdpFormatError(f"transitions[{k}] must be an object")
        unknown = set(t) - _EDGE_KEYS
        if unknown:
            return MdpFormatError(f"transitions[{k}] has unknown fields: {sorted(unknown)}")
        missing = _EDGE_KEYS - set(t)
        if missing:
            return MdpFormatError(f"transitions[{k}] is missing fields: {sorted(missing)}")
        for key, pool, what in (
            ("from", sidx, "state"),
            ("to", sidx, "state"),
            ("action", aidx, "action"),
        ):
            if not isinstance(t[key], str) or t[key] not in pool:
                return MdpFormatError(f"transitions[{k}]: unknown {what} {t[key]!r}")
        prob = t["prob"]
        try:
            finite = not isinstance(prob, bool) and math.isfinite(prob)
        except (TypeError, OverflowError):  # not a number, or an integer past the float range
            finite = False
        if not finite:
            return MdpFormatError(f"transitions[{k}]: prob must be a finite number")
        lab = t["label"]
        if lab is not None and (not isinstance(lab, str) or lab not in lidx):
            return MdpFormatError(f"transitions[{k}]: unknown label {lab!r}")
    raise AssertionError("every transition passes its checks")


def mdp_to_json(m: Mdp) -> dict:
    states, actions, symbols = m.states, m.actions, m.symbols
    columns = (m.state, m.action, m.succ, m.prob, m.symbol)
    return {
        "states": list(states),
        "actions": list(actions),
        "alphabet": list(symbols),
        "initial": states[m.initial],
        "transitions": [
            {
                "from": states[s],
                "action": actions[a],
                "to": states[t],
                "prob": p,
                "label": None if x < 0 else symbols[x],
            }
            for s, a, t, p, x in zip(*(c.tolist() for c in columns))
        ],
    }


def _json_int(digits: str) -> int:
    """`parse_int` that makes an integer past Python's digit limit a format error."""
    try:
        return int(digits)
    except ValueError:
        raise MdpFormatError(f"integer of {len(digits.lstrip('-'))} digits is too long to read") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """`object_pairs_hook` that refuses an object naming one key twice."""
    out = dict(pairs)
    if len(out) < len(pairs):
        dup = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise MdpFormatError(f"duplicate key {dup!r} in a JSON object")
    return out


def load_mdp(path: str | Path) -> Mdp:
    try:
        text = Path(path).read_text(encoding="utf-8")
        data = json.loads(text, object_pairs_hook=_unique_keys, parse_int=_json_int)
    except UnicodeDecodeError as exc:
        raise MdpFormatError(f"{path}: not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise MdpFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise MdpFormatError("not valid JSON: nested too deeply") from None
    return mdp_from_json(data)


def dump_mdp(m: Mdp, path: str | Path) -> None:
    Path(path).write_text(json.dumps(mdp_to_json(m), indent=2) + "\n")
