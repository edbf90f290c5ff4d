"""Nondeterministic Buchi automata with acceptance on transitions.

The on-disk format is a strict subset of HOA v1: acceptance condition
``1 Inf(0)``, edge labels limited to a single proposition ``[2]`` or a
disjunction ``[0|3]``, acceptance marks ``{0}`` on edges only.  Propositions
double as alphabet symbols: exactly one holds at each step, so a label names
the set of symbols on which an edge fires.

A nonstandard ``GFM: true|false`` header records an asserted good-for-MDPs
flag.  It is carried around and reported, never model checked.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property


class HoaError(ValueError):
    """Base for HOA parsing failures."""


class HoaSyntaxError(HoaError):
    """Input does not scan; carries a 1-based line and optional column."""

    def __init__(self, message: str, line: int, col: int | None = None):
        self.line = line
        self.col = col
        where = f"line {line}" + (f", col {col}" if col is not None else "")
        super().__init__(f"{where}: {message}")


class HoaSemanticError(HoaError):
    """Input scans but falls outside the supported subset or is inconsistent."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class Nba:
    """Buchi automaton (symbols, states 0..n-1, initial, transitions, marks).

    ``transitions[i] = (src, symbol, dst)``; ``accepting`` holds indices into
    that tuple.  ``gfm`` is the asserted good-for-MDPs flag (None = unknown).
    """

    symbols: tuple[str, ...]
    n_states: int
    initial: int
    transitions: tuple[tuple[int, int, int], ...]
    accepting: frozenset[int]
    gfm: bool | None = None

    def __post_init__(self):
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        if self.n_states < 1:
            raise ValueError("automaton needs at least one state")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        if not 0 <= self.initial < self.n_states:
            raise ValueError("initial state out of range")
        k = len(self.symbols)
        for i, (q, s, r) in enumerate(self.transitions):
            if not (0 <= q < self.n_states and 0 <= r < self.n_states):
                raise ValueError(f"transition {i} references an unknown state")
            if not 0 <= s < k:
                raise ValueError(f"transition {i} references an unknown symbol")
        if len(set(self.transitions)) != len(self.transitions):
            raise ValueError("duplicate transitions")
        for i in self.accepting:
            if not 0 <= i < len(self.transitions):
                raise ValueError("accepting set references an unknown transition")

    @cached_property
    def _delta(self) -> dict[tuple[int, int], tuple[tuple[int, bool], ...]]:
        out: dict[tuple[int, int], list[tuple[int, bool]]] = {}
        for i, (q, s, r) in enumerate(self.transitions):
            out.setdefault((q, s), []).append((r, i in self.accepting))
        return {k: tuple(v) for k, v in out.items()}

    def moves(self, state: int, symbol: int) -> tuple[tuple[int, bool], ...]:
        """Successor (state, accepting) pairs for reading `symbol` in `state`."""
        return self._delta.get((state, symbol), ())


def is_deterministic(a: Nba) -> bool:
    """At most one move per (state, symbol)."""
    return all(len(moves) <= 1 for moves in a._delta.values())


def _missing_moves(a: Nba) -> list[tuple[int, int]]:
    """Ascending (state, symbol) pairs without a move, over the states a run can reach."""
    symbols, seen, stack = range(len(a.symbols)), {a.initial}, [a.initial]
    while stack:
        q = stack.pop()
        new = {r for s in symbols for r, _ in a.moves(q, s)} - seen
        seen |= new
        stack += new
    return [(q, s) for q in sorted(seen) for s in symbols if not a.moves(q, s)]


def is_complete(a: Nba) -> bool:
    """At least one move per symbol in each state a run reaches, the only moves ever read."""
    return not _missing_moves(a)


def complete_with_trap(a: Nba) -> Nba:
    """Route each missing move of a reachable state, where a run may read it, to
    a fresh rejecting trap, which keeps the language; `a` itself when complete."""
    missing = _missing_moves(a)
    if not missing:
        return a
    trap = a.n_states
    trans = a.transitions + tuple((q, s, trap) for q, s in missing)
    trans += tuple((trap, s, trap) for s in range(len(a.symbols)))
    return Nba(a.symbols, a.n_states + 1, a.initial, trans, a.accepting, a.gfm)


_HEADERS = {"HOA", "States", "Start", "AP", "acc-name", "Acceptance", "GFM"}
_EDGE_RE = re.compile(r"\[([^\]]*)\]\s*(\d+)\s*(?:\{([^{}]*)\})?")


def _number(digits: str, lineno: int) -> int:
    """`int` of a run of digits; more than 18 digits, which the product's int64
    columns may not hold, are a syntax error."""
    if len(digits) > 18:
        raise HoaSyntaxError(f"number of {len(digits)} digits is too long to read", lineno)
    return int(digits)


def parse_hoa(text: str) -> Nba:
    """Parse the HOA v1 subset described in the module docstring."""
    lines = text.splitlines()
    n_lines = len(lines)

    idx = 0
    while idx < n_lines and not lines[idx].strip():
        idx += 1
    if idx >= n_lines:
        raise HoaSyntaxError("empty input, expected 'HOA: v1'", max(1, n_lines))
    if lines[idx].strip() != "HOA: v1":
        raise HoaSyntaxError("expected 'HOA: v1' as the first header", idx + 1)
    idx += 1

    seen: dict[str, str] = {"HOA": "v1"}
    at_line: dict[str, int] = {}
    body_lineno = 0
    while True:
        if idx >= n_lines:
            raise HoaSyntaxError("missing --BODY--", n_lines)
        raw = lines[idx]
        lineno = idx + 1
        idx += 1
        if not raw.strip():
            continue
        stripped = raw.strip()
        if stripped == "--BODY--":
            body_lineno = lineno
            break
        if stripped == "--END--":
            raise HoaSyntaxError("--END-- before --BODY--", lineno)
        m = re.match(r"([A-Za-z][\w-]*):\s*(.*)", stripped)
        if m is None:
            raise HoaSyntaxError("expected a 'name: value' header", lineno, col=1)
        name, value = m.group(1), m.group(2).strip()
        if name == "properties":
            continue
        if name not in _HEADERS:
            raise HoaSyntaxError(f"unsupported header {name!r}", lineno)
        if name in seen:
            raise HoaSyntaxError(f"duplicate header {name!r}", lineno)
        seen[name] = value
        at_line[name] = lineno

    for req in ("States", "Start", "AP", "Acceptance"):
        if req not in seen:
            raise HoaSyntaxError(f"missing required header {req!r}", body_lineno)

    def header_int(name: str) -> int:
        if not re.fullmatch(r"\d+", seen[name]):
            raise HoaSyntaxError(
                f"{name} expects a nonnegative integer", at_line[name]
            )
        return _number(seen[name], at_line[name])

    n_states = header_int("States")
    if n_states < 1:
        raise HoaSemanticError("automaton needs at least one state", at_line["States"])
    start = header_int("Start")
    if start >= n_states:
        raise HoaSemanticError(f"start state {start} out of range", at_line["Start"])

    ap_val = seen["AP"]
    m = re.fullmatch(r"(\d+)((?:\s+\"[^\"]*\")*)", ap_val)
    if m is None:
        raise HoaSyntaxError('AP expects a count then quoted names', at_line["AP"])
    names = re.findall(r"\"([^\"]*)\"", m.group(2))
    if _number(m.group(1), at_line["AP"]) != len(names):
        raise HoaSyntaxError(
            f"AP count {m.group(1)} disagrees with {len(names)} names", at_line["AP"]
        )
    if len(set(names)) != len(names):
        raise HoaSemanticError("AP names must be distinct", at_line["AP"])
    n_ap = len(names)

    if "acc-name" in seen and seen["acc-name"] != "Buchi":
        raise HoaSemanticError(
            f"acc-name {seen['acc-name']!r} unsupported, only Buchi", at_line["acc-name"]
        )
    if re.sub(r"\s+", " ", seen["Acceptance"]).strip() != "1 Inf(0)":
        raise HoaSemanticError(
            "only the Buchi acceptance condition '1 Inf(0)' is supported",
            at_line["Acceptance"],
        )
    gfm: bool | None = None
    if "GFM" in seen:
        if seen["GFM"] not in ("true", "false"):
            raise HoaSyntaxError("GFM expects true or false", at_line["GFM"])
        gfm = seen["GFM"] == "true"

    declared: set[int] = set()
    cur: int | None = None
    trans: list[tuple[int, int, int]] = []
    acc_flags: list[bool] = []
    index: dict[tuple[int, int, int], int] = {}
    end_seen = False
    while idx < n_lines:
        raw = lines[idx]
        lineno = idx + 1
        idx += 1
        if not raw.strip():
            continue
        stripped = raw.strip()
        if stripped == "--END--":
            end_seen = True
            break
        if stripped.startswith("State:"):
            rest = stripped[len("State:"):].strip()
            m = re.fullmatch(r"(\d+)(\s*\{[^{}]*\})?", rest)
            if m is None:
                raise HoaSyntaxError("State line must be 'State: <index>'", lineno)
            if m.group(2):
                raise HoaSemanticError(
                    "state-based acceptance mark; acceptance here is on "
                    "transitions, put {0} on the accepting edges instead",
                    lineno,
                )
            q = _number(m.group(1), lineno)
            if q >= n_states:
                raise HoaSemanticError(f"state {q} not declared by States", lineno)
            if q in declared:
                raise HoaSemanticError(f"state {q} declared twice", lineno)
            declared.add(q)
            cur = q
            continue
        if stripped.startswith("["):
            if cur is None:
                raise HoaSyntaxError("edge before any State block", lineno)
            label = re.match(r"\[([^\]]*)\]", stripped)
            if label and re.search(r"[!&]|\bt\b|\bf\b", label.group(1)):
                raise HoaSemanticError(
                    "label expressions are limited to one proposition or a "
                    "disjunction of propositions; expand the edge into one "
                    "per symbol",
                    lineno,
                )
            m = _EDGE_RE.fullmatch(stripped)
            if m is None:
                raise HoaSyntaxError(
                    "malformed edge, expected '[label] destination' with an "
                    "optional {0}",
                    lineno,
                )
            expr, dst_s, marks = m.group(1).strip(), m.group(2), m.group(3)
            parts = [p.strip() for p in expr.split("|")]
            if not expr or any(not re.fullmatch(r"\d+", p) for p in parts):
                raise HoaSyntaxError(
                    "label must list proposition indices separated by '|'",
                    lineno,
                    col=raw.index("[") + 2,
                )
            dst = _number(dst_s, lineno)
            if dst >= n_states:
                raise HoaSemanticError(f"destination state {dst} not declared", lineno)
            if marks is not None and marks.strip() != "0":
                raise HoaSemanticError(
                    f"acceptance mark {{{marks.strip()}}} invalid, the only set is 0",
                    lineno,
                )
            acc = marks is not None
            for p in parts:
                s = _number(p, lineno)
                if s >= n_ap:
                    raise HoaSemanticError(f"proposition {s} out of range", lineno)
                key = (cur, s, dst)
                k = index.get(key)
                if k is None:
                    index[key] = len(trans)
                    trans.append(key)
                    acc_flags.append(acc)
                elif acc_flags[k] != acc:
                    raise HoaSemanticError(
                        f"edge ({cur},{names[s]},{dst}) repeated with a "
                        "different acceptance mark",
                        lineno,
                    )
            continue
        raise HoaSyntaxError(
            "expected 'State:', an edge '[label] dst', or --END--", lineno
        )
    if not end_seen:
        raise HoaSyntaxError("missing --END--", n_lines)
    for j in range(idx, n_lines):
        if lines[j].strip():
            raise HoaSyntaxError("content after --END--", j + 1)

    accepting = frozenset(i for i, f in enumerate(acc_flags) if f)
    return Nba(tuple(names), n_states, start, tuple(trans), accepting, gfm)

