"""Labelled Markov decision processes and their JSON interchange format.

States, actions and alphabet symbols are referenced by name on disk and by
index in memory.  Every edge carries the probability of reaching one
successor under one action together with the symbol that step emits, so the
labelling is a function of (state, action, successor).

`Mdp` holds the edges as five read-only columns in input order (`state`,
`action`, `succ`, `prob`, `symbol`), and its cached `Mdp.groups` groups them
by (state, action), actions ascending, for `build_product` and `validate`.

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
from pathlib import Path

import numpy as np

from .graphs import adjacency, backward_levels


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
    """
    states, actions = m.states, m.actions
    state, succ, prob = m.state.tolist(), m.succ.tolist(), m.prob.tolist()
    out: list[Diagnostic] = []
    seen: set[tuple[int, int, int]] = set()
    for s, a, t, p, x in zip(state, m.action.tolist(), succ, prob, m.symbol.tolist()):
        where = f"({states[s]},{actions[a]},{states[t]})"
        if not 0.0 < p <= 1.0:
            out.append(Diagnostic("error", "prob-range", f"edge {where} has probability {p!r} outside (0,1]"))
        if (s, a, t) in seen:
            out.append(Diagnostic("error", "duplicate-edge", f"edge {where} appears twice"))
        seen.add((s, a, t))
        if x < 0:
            out.append(Diagnostic("error", "unlabelled-edge", f"edge {where} has a null label"))
    state_start, group_action, edge_start, edge = (c.tolist() for c in m.groups)
    for s, (lo, hi) in enumerate(zip(state_start, state_start[1:])):
        if lo == hi:
            out.append(Diagnostic("error", "no-actions", f"state {states[s]} has no actions"))
        for k in range(lo, hi):
            total = math.fsum(prob[i] for i in edge[edge_start[k]:edge_start[k + 1]])
            if abs(total - 1.0) > 1e-9:
                where = f"({states[s]},{actions[group_action[k]]})"
                out.append(Diagnostic("error", "prob-sum", f"probabilities for {where} sum to {total!r}"))
    # with successor lists, the levels run forward: -1 marks what the initial state cannot reach
    level = backward_levels([m.initial], adjacency(len(states), state, succ))
    for s, lv in enumerate(level):
        if lv < 0:
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
    rows: list[tuple[int, int, int, float, int]] = []
    for k, t in enumerate(raw):
        if not isinstance(t, dict):
            raise MdpFormatError(f"transitions[{k}] must be an object")
        unknown = set(t) - _EDGE_KEYS
        if unknown:
            raise MdpFormatError(f"transitions[{k}] has unknown fields: {sorted(unknown)}")
        missing = _EDGE_KEYS - set(t)
        if missing:
            raise MdpFormatError(f"transitions[{k}] is missing fields: {sorted(missing)}")
        for key, pool, what in (
            ("from", sidx, "state"),
            ("to", sidx, "state"),
            ("action", aidx, "action"),
        ):
            if not isinstance(t[key], str) or t[key] not in pool:
                raise MdpFormatError(f"transitions[{k}]: unknown {what} {t[key]!r}")
        prob = t["prob"]
        try:
            finite = not isinstance(prob, bool) and math.isfinite(prob)
        except (TypeError, OverflowError):  # not a number, or an integer past the float range
            finite = False
        if not finite:
            raise MdpFormatError(f"transitions[{k}]: prob must be a finite number")
        lab = t["label"]
        if lab is not None and (not isinstance(lab, str) or lab not in lidx):
            raise MdpFormatError(f"transitions[{k}]: unknown label {lab!r}")
        x = -1 if lab is None else lidx[lab]
        rows.append((sidx[t["from"]], aidx[t["action"]], sidx[t["to"]], float(prob), x))
    columns = list(zip(*rows)) or [()] * 5
    return Mdp(tuple(states), tuple(actions), tuple(symbols), sidx[data["initial"]], *columns)


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
