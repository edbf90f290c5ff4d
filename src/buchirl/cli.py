"""Command line interface.

Subcommands: validate, product, solve, oracle, learn, verify, sweep.  Every
command prints one JSON report (or writes it with --out); identical inputs
produce identical bytes unless --timing is set, which fills the otherwise
null timing field.

Exit codes: 0 ok, 2 usage (a numeric option out of its range included), 3
unreadable or unparsable input (MDP JSON with a duplicate key or nested too
deeply, an input that is not UTF-8, and a report or CSV that cannot be
written included), 4 validation or construction failure, 5
solver failure (the optimal solve's policy iteration past its round cap, a
singular linear system, a sparse policy evaluation that misses its residual
target, or the oracle's policy iteration not stabilized), 6 verification
failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .automata import (
    HoaError,
    complete_with_trap,
    is_complete,
    is_deterministic,
    parse_hoa,
)
from .learn import LearnConfig, train
from .mdp import Edge, Mdp, MdpFormatError, dump_mdp, load_mdp, validate
from .oracle import PolicyIterationError, buchi_value
from .product import ProductError, ProductMdp, build_product
from .shaping import Mode, PayoffSpec, augment
from .solvers import ConvergenceError, solve_optimal
from .verify import threshold_sweep, verify_instance

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_INVALID = 4
EXIT_SOLVER = 5
EXIT_VERIFY = 6

DEFAULT_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))


def _finite(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return v


def _zeta(text: str) -> float:
    v = _finite(text)
    if not 0.0 < v < 1.0:
        raise argparse.ArgumentTypeError("zeta must lie strictly between 0 and 1")
    return v


def _positive(text: str) -> float:
    v = _finite(text)
    if v <= 0.0:
        raise argparse.ArgumentTypeError("must be positive")
    return v


def _probability(text: str) -> float:
    v = _finite(text)
    if not 0.0 <= v <= 1.0:
        raise argparse.ArgumentTypeError("must lie between 0 and 1")
    return v


def _count(low: int):
    """An argparse type for integers of at least `low`."""

    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if v < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return v

    return parse


def _grid(text: str) -> tuple[float, ...]:
    grid = tuple(_zeta(part) for part in text.split(","))
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise argparse.ArgumentTypeError("grid must be strictly increasing")
    return grid


def _read_automaton(args):
    try:
        text = Path(args.hoa).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise HoaError(f"{args.hoa}: not UTF-8: {exc}") from None
    a = parse_hoa(text)
    if getattr(args, "trap_complete", False):
        a = complete_with_trap(a)
    if getattr(args, "assert_gfm", False):
        a = replace(a, gfm=True)
    return a


def _load_inputs(args):
    """Load the MDP and refuse a semantically invalid one, then read the
    automaton."""
    m = load_mdp(args.mdp)
    problems = [d for d in validate(m) if d.severity == "error"]
    if problems:
        raise ValueError(
            f"MDP failed validation with {len(problems)} error(s): "
            + "; ".join(d.message for d in problems[:3])
        )
    return m, _read_automaton(args)


def _values_by_name(p: ProductMdp, values) -> dict[str, float]:
    return {p.state_name(i): float(values[i]) for i in range(p.n_states)}


def _policy_by_name(p: ProductMdp, f) -> dict[str, str]:
    names = p.chosen_pair_names(f.choice)
    return {p.state_name(st): names[st] for st in range(p.n_states)}


def _product_as_mdp(p: ProductMdp, zeta: float | None) -> Mdp:
    """Dynamics of the product (or its leaked augmentation) as an MDP.

    Rewards are not part of the MDP schema, so this is dynamics only.  The
    leaked probabilities are those of `augment`'s reach view, whose branch
    columns run parallel to the product's: every raw branch keeps its edge,
    in order, and a pair with a positive `leak` gains one more edge to "t"
    after its own.  That edge carries the symbol of the first accepting
    branch (the label function is per-triple, so mixed symbols cannot be kept
    apart).
    """
    states = [p.state_name(i) for i in range(p.n_states)]
    names, owner = p.pair_names, p.pair_state.tolist()
    bounds = p.branch_start.tolist()
    succ, symbol, accepting = p.succ.tolist(), p.symbol.tolist(), p.accepting.tolist()
    if zeta is None:
        probs, leak = p.prob.tolist(), [0.0] * p.n_pairs
    else:
        flat = augment(p, PayoffSpec(Mode.REACH_TARGET, zeta)).flat
        probs, leak = flat.prob.tolist(), flat.leak.tolist()
    leaks = max(leak) > 0.0  # some pair leaks into t
    t = len(states)
    actions = sorted(set(names) | ({"stop"} if leaks else set()))
    where = {name: i for i, name in enumerate(actions)}
    edges = []
    for pid, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        st, act = owner[pid], where[names[pid]]
        edges += [Edge(st, act, succ[b], probs[b], symbol[b]) for b in range(lo, hi)]
        if leak[pid] > 0.0:
            leak_sym = next(symbol[b] for b in range(lo, hi) if accepting[b])
            edges.append(Edge(st, act, t, leak[pid], leak_sym))
    if leaks:
        states.append("t")
        edges.append(Edge(t, where["stop"], t, 1.0, 0))
    return Mdp(tuple(states), tuple(actions), p.mdp.symbols, p.initial, tuple(edges))


def cmd_validate(args) -> tuple[dict, int]:
    m = load_mdp(args.mdp)
    diags = validate(m)
    result: dict = {
        "diagnostics": [asdict(d) for d in diags],
        "errors": sum(d.severity == "error" for d in diags),
        "warnings": sum(d.severity == "warning" for d in diags),
        "alphabet_match": None,
    }
    code = EXIT_INVALID if result["errors"] else EXIT_OK
    if args.hoa:
        a = _read_automaton(args)
        result["automaton"] = {
            "states": a.n_states,
            "transitions": len(a.transitions),
            "accepting": len(a.accepting),
            "deterministic": is_deterministic(a),
            "complete": is_complete(a),
            "gfm": a.gfm,
        }
        result["alphabet_match"] = set(m.symbols) == set(a.symbols)
        if not result["alphabet_match"]:
            code = EXIT_INVALID
    return result, code


def cmd_product(args) -> tuple[dict, int]:
    m, a = _load_inputs(args)
    p = build_product(m, a)
    result = {
        "states": p.n_states,
        "pairs": p.n_pairs,
        "accepting_branches": p.accepting_branch_count,
        "gfm_caveat": p.gfm_caveat,
        "state_names": [p.state_name(i) for i in range(p.n_states)],
    }
    if args.export:
        exported = _product_as_mdp(p, args.zeta)
        dump_mdp(exported, args.export)
        result["export"] = args.export
        result["export_states"] = len(exported.states)
    return result, EXIT_OK


def cmd_solve(args) -> tuple[dict, int]:
    m, a = _load_inputs(args)
    p = build_product(m, a)
    model = augment(p, PayoffSpec(Mode(args.mode), args.zeta))
    v = solve_optimal(model)
    result = {
        "mode": args.mode,
        "zeta": args.zeta,
        "iterations": v.iterations,
        "residual": v.residual,
        "value_at_initial": v.at_initial(),
        "values": _values_by_name(p, v.values),
        "policy": _policy_by_name(p, v.policy),
        "gfm_caveat": p.gfm_caveat,
    }
    return result, EXIT_OK


def cmd_oracle(args) -> tuple[dict, int]:
    m, a = _load_inputs(args)
    p = build_product(m, a)
    res = buchi_value(p)
    result = {
        "mecs": [
            {"states": [p.state_name(i) for i in ec.states], "accepting": ec.accepting}
            for ec in res.mecs
        ],
        "accepting_mecs": list(res.accepting_mecs),
        "psat_at_initial": res.at_initial(),
        "psat": _values_by_name(p, res.values),
        "policy": _policy_by_name(p, res.strategy),
        "lower_bound_only": res.lower_bound_only,
    }
    return result, EXIT_OK


def cmd_learn(args) -> tuple[dict, int]:
    m, a = _load_inputs(args)
    p = build_product(m, a)
    model = augment(p, PayoffSpec(Mode(args.mode), args.zeta))
    cfg = LearnConfig(
        episodes=args.episodes,
        max_steps=args.max_steps,
        alpha0=args.alpha0,
        epsilon0=args.epsilon0,
        epsilon_final=args.epsilon_final,
        seed=args.seed,
        optimistic=args.optimistic,
    )
    out = train(model, cfg)
    if args.curve:
        with open(args.curve, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["episode", "total_reward", "epsilon"])
            w.writerows(out.curve)
    tail = out.curve[-1000:]
    init = p.initial
    result = {
        "mode": args.mode,
        "zeta": args.zeta,
        "episodes": args.episodes,
        "seed": args.seed,
        "policy": _policy_by_name(p, out.strategy),
        "q_at_initial": {p.pair_name(init, k): q for k, q in enumerate(out.table.q[init])},
        "visits_at_initial": {
            p.pair_name(init, k): n for k, n in enumerate(out.table.visits[init])
        },
        "mean_return_last_1000": float(np.mean([c[1] for c in tail])),
        "final_epsilon": out.curve[-1][2],
    }
    if args.curve:
        result["curve"] = args.curve
    return result, EXIT_OK


def cmd_verify(args) -> tuple[dict, int]:
    m, a = _load_inputs(args)
    report = verify_instance(
        m,
        a,
        zetas=tuple(args.zeta) if args.zeta else (0.5, 0.9),
        n_random=args.policies,
        seed=args.seed,
        tail_episodes=args.tail_episodes,
    )
    return asdict(report), EXIT_OK if report.passed else EXIT_VERIFY


def cmd_sweep(args) -> tuple[dict, int]:
    m, a = _load_inputs(args)
    report = threshold_sweep(m, a, args.grid)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["zeta", "policy", "psat_policy", "psat_opt", "is_optimal"])
            for r in report.rows:
                w.writerow([r.zeta, r.policy, r.psat_policy, r.psat_opt, r.is_optimal])
    result = asdict(report)
    if args.csv:
        result["csv"] = args.csv
    return result, EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buchirl",
        description="Reward shaping for Buchi objectives on labelled MDPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report here instead of stdout")
    common.add_argument(
        "--timing", action="store_true", help="fill the timing field (breaks byte-identity)"
    )

    auto = argparse.ArgumentParser(add_help=False)
    auto.add_argument(
        "--trap-complete",
        action="store_true",
        help="complete the automaton with a rejecting trap before use",
    )
    auto.add_argument(
        "--assert-gfm",
        action="store_true",
        help="trust the automaton to be good for MDPs",
    )

    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--mdp", required=True)
    inputs.add_argument("--hoa", required=True)

    s = sub.add_parser("validate", parents=[common, auto], help="check MDP JSON, optionally a pair")
    s.add_argument("--mdp", required=True)
    s.add_argument("--hoa")
    s.set_defaults(func=cmd_validate)

    s = sub.add_parser("product", parents=[common, auto, inputs], help="build the product")
    s.add_argument("--zeta", type=_zeta, help="export the leaked dynamics instead of the raw product")
    s.add_argument("--export", help="write the (augmented) product as MDP JSON here")
    s.set_defaults(func=cmd_product)

    s = sub.add_parser("solve", parents=[common, auto, inputs], help="optimal values of one payoff view")
    s.add_argument("--zeta", type=_zeta, required=True)
    s.add_argument("--mode", choices=[m.value for m in Mode], default="total")
    s.set_defaults(func=cmd_solve)

    s = sub.add_parser("oracle", parents=[common, auto, inputs], help="independent Buchi value")
    s.set_defaults(func=cmd_oracle)

    s = sub.add_parser("learn", parents=[common, auto, inputs], help="tabular Q-learning")
    s.add_argument("--zeta", type=_zeta, required=True)
    s.add_argument("--mode", choices=["total", "reach"], default="total")
    s.add_argument("--episodes", type=_count(1), default=50_000)
    s.add_argument("--max-steps", type=_count(1), default=1000)
    s.add_argument("--alpha0", type=_positive, default=1.0)
    s.add_argument("--epsilon0", type=_probability, default=0.3)
    s.add_argument("--epsilon-final", type=_probability, default=0.01)
    s.add_argument("--seed", type=_count(0), default=0)
    s.add_argument("--optimistic", action="store_true")
    s.add_argument("--curve", help="write the learning curve CSV here")
    s.set_defaults(func=cmd_learn)

    s = sub.add_parser("verify", parents=[common, auto, inputs], help="cross-check the payoff views")
    s.add_argument("--zeta", type=_zeta, action="append", help="repeatable; default 0.5 and 0.9")
    s.add_argument("--policies", type=_count(0), default=20, help="random strategies per zeta")
    s.add_argument("--seed", type=_count(0), default=0)
    s.add_argument("--tail-episodes", type=_count(0), default=0, help="Monte Carlo tail check sample size")
    s.set_defaults(func=cmd_verify)

    s = sub.add_parser("sweep", parents=[common, auto, inputs], help="optimal policy across a zeta grid")
    s.add_argument("--grid", type=_grid, default=DEFAULT_GRID, help="comma-separated zetas")
    s.add_argument("--csv", help="write sweep rows as CSV here")
    s.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "product" and args.zeta is not None and args.export is None:
            parser.error("argument --zeta: needs --export")
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    start = time.perf_counter()
    try:
        result, code = args.func(args)
        elapsed = time.perf_counter() - start
        report = {
            "command": args.command,
            "inputs": {"mdp": getattr(args, "mdp", None), "hoa": getattr(args, "hoa", None)},
            "config": {
                k: v
                for k, v in sorted(vars(args).items())
                if k not in {"func", "command", "mdp", "hoa", "out", "timing"}
            },
            "result": result,
            "timing": round(elapsed, 6) if args.timing else None,
        }
        text = json.dumps(report, indent=2)
        if args.out:
            Path(args.out).write_text(text + "\n")
        else:
            print(text)
    except (MdpFormatError, HoaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConvergenceError, PolicyIterationError, np.linalg.LinAlgError) as exc:
        # LinAlgError is a ValueError, so it is caught before the validation clause
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ProductError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return code

if __name__ == "__main__":
    sys.exit(main())
