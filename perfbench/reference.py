"""Independent reference for Buchi values, sharing no code with buchirl.

It reads the same MDP JSON and HOA files as the program, builds the product
of the MDP with a deterministic automaton itself (the automaton successor of
every branch is resolved from that branch's own symbol), finds the maximal
end components with networkx, and computes the maximal probability of
reaching an accepting one with a linear program solved by scipy's HiGHS.
The program uses value iteration, policy iteration and dense solves instead,
so agreement between the two is evidence, not an echo.

Product states and actions are named like the program's reports:
``"<mdp state>|q<automaton state>"`` and ``"<mdp action>@q<successor>"``.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog


class ReferenceError(ValueError):
    """Input outside what the reference handles."""


def read_hoa(text: str) -> dict:
    """Deterministic Buchi automaton from the HOA subset the corpus uses.

    Returns ``{"aps", "n", "start", "delta"}`` with ``delta[(q, ap)] =
    (successor, accepting)``.  Edge labels are one AP index or a disjunction
    of them; ``{0}`` marks an accepting transition.
    """
    head, _, body = text.partition("--BODY--")
    fields = {}
    for line in head.splitlines():
        if ":" in line:
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
    if re.sub(r"\s+", " ", fields.get("Acceptance", "")) != "1 Inf(0)":
        raise ReferenceError("only the Buchi condition '1 Inf(0)' is handled")
    aps = re.findall(r'"([^"]*)"', fields["AP"])
    n = int(fields["States"])
    delta: dict[tuple[int, int], tuple[int, bool]] = {}
    q = None
    for line in body.split("--END--")[0].splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("State:"):
            q = int(line.split(":")[1].split()[0])
            continue
        m = re.fullmatch(r"\[([\d|\s]+)\]\s+(\d+)\s*(\{\s*0\s*\})?", line)
        if m is None or q is None:
            raise ReferenceError(f"unsupported HOA body line: {line!r}")
        for ap in m.group(1).split("|"):
            key = (q, int(ap))
            if key in delta:
                raise ReferenceError("the reference handles deterministic automata only")
            delta[key] = (int(m.group(2)), m.group(3) is not None)
    if len(delta) != n * len(aps):
        raise ReferenceError("the reference handles complete automata only")
    return {"aps": aps, "n": n, "start": int(fields["Start"]), "delta": delta}


@dataclass
class Product:
    names: list[str]                      # product state names
    actions: list[list[str]]              # per state: action names
    branches: list[list[list[tuple[int, float, bool]]]]  # [state][action] -> (succ, prob, acc)


def build(mdp: dict, aut: dict) -> Product:
    """Reachable product, successor per branch symbol, from (initial, start)."""
    if set(mdp["alphabet"]) != set(aut["aps"]):
        raise ReferenceError("MDP and automaton alphabets differ")
    ap_of = {name: i for i, name in enumerate(aut["aps"])}
    edges: dict[str, dict[str, list[tuple[str, float, str]]]] = {}
    for t in mdp["transitions"]:
        edges.setdefault(t["from"], {}).setdefault(t["action"], []).append(
            (t["to"], float(t["prob"]), t["label"])
        )
    start = (mdp["initial"], aut["start"])
    index = {start: 0}
    order = [start]
    names: list[str] = []
    actions: list[list[str]] = []
    branches: list[list[list[tuple[int, float, bool]]]] = []
    head = 0
    while head < len(order):
        s, q = order[head]
        head += 1
        names.append(f"{s}|q{q}")
        acts, brs = [], []
        for act in sorted(edges.get(s, {})):
            moves = []
            succ_q = set()
            for to, prob, label in edges[s][act]:
                q2, acc = aut["delta"][(q, ap_of[label])]
                succ_q.add(q2)
                key = (to, q2)
                if key not in index:
                    index[key] = len(order)
                    order.append(key)
                moves.append((index[key], prob, acc))
            # branches that read different letters move the automaton to
            # different states, so such an action has no single successor
            tag = f"q{succ_q.pop()}" if len(succ_q) == 1 else "q*"
            acts.append(f"{act}@{tag}")
            brs.append(moves)
        if not acts:
            raise ReferenceError(f"MDP state {s!r} has no actions")
        actions.append(acts)
        branches.append(brs)
    return Product(names, actions, branches)


def maximal_end_components(p: Product) -> list[tuple[set[int], dict[int, list[int]]]]:
    """MECs as (states, retained actions per state), by repeated SCC
    refinement: drop actions that can leave their SCC and states left with
    no action, until nothing changes."""
    n = len(p.names)
    allowed = {s: list(range(len(p.actions[s]))) for s in range(n)}
    while True:
        g = nx.DiGraph()
        g.add_nodes_from(allowed)
        for s, acts in allowed.items():
            for a in acts:
                g.add_edges_from((s, t) for t, _, _ in p.branches[s][a] if t in allowed)
        comp = {}
        for ci, members in enumerate(nx.strongly_connected_components(g)):
            for s in members:
                comp[s] = ci
        changed = False
        for s in list(allowed):
            keep = [
                a for a in allowed[s]
                if all(t in allowed and comp[t] == comp[s] for t, _, _ in p.branches[s][a])
            ]
            if len(keep) != len(allowed[s]):
                changed = True
            if keep:
                allowed[s] = keep
            else:
                del allowed[s]
                changed = True
        if not changed:
            break
    groups: dict[int, set[int]] = {}
    for s in allowed:
        groups.setdefault(comp[s], set()).add(s)
    return [(members, {s: allowed[s] for s in members}) for members in groups.values()]


def max_reach_lp(p: Product, targets: set[int]) -> np.ndarray:
    """Maximal probability of reaching `targets`, per state, by the LP
    min sum(x) s.t. x_s >= sum_t P(s,a,t) x_t for every action, x = 1 on
    targets and x = 0 where no path leads to a target."""
    n = len(p.names)
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    for s in range(n):
        for moves in p.branches[s]:
            g.add_edges_from((s, t) for t, prob, _ in moves if prob > 0.0)
    g.add_edges_from((t, -1) for t in targets)  # one sink behind all targets
    maybe = sorted(nx.ancestors(g, -1) - targets)
    x = np.zeros(n)
    x[list(targets)] = 1.0
    if not maybe:
        return x
    col = {s: i for i, s in enumerate(maybe)}
    rows, cols, vals, rhs = [], [], [], []
    r = 0
    for s in maybe:
        for moves in p.branches[s]:
            # sum_{t maybe} P x_t - x_s <= -sum_{t target} P
            coef: dict[int, float] = {col[s]: -1.0}
            b = 0.0
            for t, prob, _ in moves:
                if t in targets:
                    b += prob
                elif t in col:
                    coef[col[t]] = coef.get(col[t], 0.0) + prob
            for c, v in coef.items():
                rows.append(r)
                cols.append(c)
                vals.append(v)
            rhs.append(-b)
            r += 1
    a_ub = sp.csr_matrix((vals, (rows, cols)), shape=(r, len(maybe)))
    res = linprog(
        np.ones(len(maybe)), A_ub=a_ub, b_ub=np.array(rhs), bounds=(0.0, 1.0),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise ReferenceError(f"reference LP failed: {res.message}")
    x[maybe] = res.x
    return x


def solve(mdp: dict, hoa: str) -> dict:
    """Reference answers for one pair, as plain JSON-ready data.

    ``psat`` maps product state names to the maximal Buchi probability,
    ``q`` maps them to the value of each action (the probability of reaching
    an accepting component when the action is played once and optimally
    afterwards), ``psat_initial`` is the value at the initial state.
    """
    p = build(mdp, read_hoa(hoa))
    mecs = maximal_end_components(p)
    accepting = [
        members for members, kept in mecs
        if any(acc for s in members for a in kept[s] for _, _, acc in p.branches[s][a])
    ]
    targets = set().union(*accepting) if accepting else set()
    x = max_reach_lp(p, targets) if targets else np.zeros(len(p.names))
    q = {}
    for s, name in enumerate(p.names):
        q[name] = {
            act: float(sum(prob * x[t] for t, prob, _ in p.branches[s][a]))
            for a, act in enumerate(p.actions[s])
        }
    return {
        "psat_initial": float(x[0]),
        "psat": {name: float(x[s]) for s, name in enumerate(p.names)},
        "q": q,
        "states": len(p.names),
        "mecs": len(mecs),
        "accepting_mecs": len(accepting),
    }


def solve_files(mdp_path: str, hoa_path: str, cache_dir: Path | None = None) -> dict:
    """`solve` on two files, reusing an earlier answer for identical bytes."""
    mdp_bytes = Path(mdp_path).read_bytes()
    hoa_bytes = Path(hoa_path).read_bytes()
    key = hashlib.sha256(mdp_bytes + b"\0" + hoa_bytes).hexdigest()
    cached = cache_dir / f"{key}.json" if cache_dir is not None else None
    if cached is not None and cached.exists():
        return json.loads(cached.read_text())
    out = solve(json.loads(mdp_bytes), hoa_bytes.decode())
    if cached is not None:
        cache_dir.mkdir(parents=True, exist_ok=True)
        cached.write_text(json.dumps(out))
    return out

