"""Labelled Markov decision processes and their JSON interchange format.

States, actions and alphabet symbols are referenced by name on disk and by
index in memory.  Every edge carries the probability of reaching one
successor under one action together with the symbol that step emits, so the
labelling is a function of (state, action, successor).

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
from typing import NamedTuple


class MdpFormatError(ValueError):
    """MDP JSON does not match the expected shape."""


class Edge(NamedTuple):
    state: int
    action: int
    succ: int
    prob: float
    symbol: int | None


@dataclass(frozen=True)
class Mdp:
    states: tuple[str, ...]
    actions: tuple[str, ...]
    symbols: tuple[str, ...]
    initial: int
    edges: tuple[Edge, ...]

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
        for e in self.edges:
            if not (0 <= e.state < len(self.states) and 0 <= e.succ < len(self.states)):
                raise ValueError("edge references an unknown state")
            if not 0 <= e.action < len(self.actions):
                raise ValueError("edge references an unknown action")
            if e.symbol is not None and not 0 <= e.symbol < len(self.symbols):
                raise ValueError("edge references an unknown symbol")

    @cached_property
    def _by_state_action(self) -> dict[tuple[int, int], tuple[Edge, ...]]:
        out: dict[tuple[int, int], list[Edge]] = {}
        for e in self.edges:
            out.setdefault((e.state, e.action), []).append(e)
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def _available(self) -> tuple[tuple[int, ...], ...]:
        out: list[set[int]] = [set() for _ in self.states]
        for e in self.edges:
            out[e.state].add(e.action)
        return tuple(tuple(sorted(s)) for s in out)

    def branches(self, state: int, action: int) -> tuple[Edge, ...]:
        """Edges for (state, action) in input order."""
        return self._by_state_action.get((state, action), ())

    def available(self, state: int) -> tuple[int, ...]:
        """Action indices with at least one outgoing edge, ascending."""
        return self._available[state]


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    code: str
    message: str


def validate(m: Mdp) -> list[Diagnostic]:
    """Semantic checks beyond structural well-formedness.

    Errors: probabilities outside (0,1], per-(state,action) mass away from 1,
    repeated (from,action,to) triples, unlabelled edges, states without any
    action.  Warning: states unreachable from the initial state.
    """
    out: list[Diagnostic] = []
    seen: set[tuple[int, int, int]] = set()
    for e in m.edges:
        where = f"({m.states[e.state]},{m.actions[e.action]},{m.states[e.succ]})"
        if not 0.0 < e.prob <= 1.0:
            out.append(
                Diagnostic(
                    "error",
                    "prob-range",
                    f"edge {where} has probability {e.prob!r} outside (0,1]",
                )
            )
        triple = (e.state, e.action, e.succ)
        if triple in seen:
            out.append(
                Diagnostic("error", "duplicate-edge", f"edge {where} appears twice")
            )
        seen.add(triple)
        if e.symbol is None:
            out.append(
                Diagnostic("error", "unlabelled-edge", f"edge {where} has a null label")
            )
    for s in range(len(m.states)):
        if not m.available(s):
            out.append(
                Diagnostic("error", "no-actions", f"state {m.states[s]} has no actions")
            )
        for a in m.available(s):
            total = math.fsum(e.prob for e in m.branches(s, a))
            if abs(total - 1.0) > 1e-9:
                out.append(
                    Diagnostic(
                        "error",
                        "prob-sum",
                        f"probabilities for ({m.states[s]},{m.actions[a]}) "
                        f"sum to {total!r}",
                    )
                )
    reached = {m.initial}
    stack = [m.initial]
    while stack:
        s = stack.pop()
        for a in m.available(s):
            for e in m.branches(s, a):
                if e.succ not in reached:
                    reached.add(e.succ)
                    stack.append(e.succ)
    for s in range(len(m.states)):
        if s not in reached:
            out.append(
                Diagnostic(
                    "warning", "unreachable", f"state {m.states[s]} is unreachable"
                )
            )
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
    edges: list[Edge] = []
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
        if isinstance(prob, bool) or not isinstance(prob, (int, float)) or not math.isfinite(prob):
            raise MdpFormatError(f"transitions[{k}]: prob must be a finite number")
        lab = t["label"]
        if lab is not None and (not isinstance(lab, str) or lab not in lidx):
            raise MdpFormatError(f"transitions[{k}]: unknown label {lab!r}")
        edges.append(
            Edge(
                sidx[t["from"]],
                aidx[t["action"]],
                sidx[t["to"]],
                float(prob),
                None if lab is None else lidx[lab],
            )
        )
    return Mdp(tuple(states), tuple(actions), tuple(symbols), sidx[data["initial"]], tuple(edges))


def mdp_to_json(m: Mdp) -> dict:
    return {
        "states": list(m.states),
        "actions": list(m.actions),
        "alphabet": list(m.symbols),
        "initial": m.states[m.initial],
        "transitions": [
            {
                "from": m.states[e.state],
                "action": m.actions[e.action],
                "to": m.states[e.succ],
                "prob": e.prob,
                "label": None if e.symbol is None else m.symbols[e.symbol],
            }
            for e in m.edges
        ],
    }


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """`object_pairs_hook` that refuses an object naming one key twice."""
    out = dict(pairs)
    if len(out) < len(pairs):
        dup = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise MdpFormatError(f"duplicate key {dup!r} in a JSON object")
    return out


def load_mdp(path: str | Path) -> Mdp:
    try:
        data = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise MdpFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise MdpFormatError("not valid JSON: nested too deeply") from None
    return mdp_from_json(data)


def dump_mdp(m: Mdp, path: str | Path) -> None:
    Path(path).write_text(json.dumps(mdp_to_json(m), indent=2) + "\n")
