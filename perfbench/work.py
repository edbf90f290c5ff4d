"""Worker processes of the benchmark; run.py starts them, one at a time.

    python3 work.py setup  <spec.json>   write the inputs of one run
    python3 work.py rounds <spec.json>   time in-process rounds, untraced
    python3 work.py traced <spec.json>   one untraced round, then one traced

The spec is a JSON object written by run.py.  ``setup`` imports buchirl and
writes the generated files, so its wall time is the run's set-up cost.  The
other modes need ``buchirl`` on the import path and write their results to
``spec["result"]``.

A desk round calls the library in-process on every generated pair; a CLI
round calls ``buchirl.cli.main`` in-process with the same argument lists the
untraced runs pass to the command, each report going to its own file.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402

GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
DESK_ZETAS = (0.5, 0.9, 0.99)
DESK_RANDOM_POLICIES = 20
DESK_LEARN = {"zeta": 0.9, "episodes": 200, "max_steps": 100}


def load_pairs(buchirl, records):
    return [
        (r["name"], buchirl.load_mdp(r["mdp"]), buchirl.parse_hoa(Path(r["hoa"]).read_text()))
        for r in records
    ]


def learn_summary(res, p) -> dict:
    """The parts of a TrainResult the checks look at, as plain data."""
    q = [v for row in res.table.q for v in row]
    return {
        "states": p.n_states,
        "choice_ok": all(0 <= k < len(p.pairs[st]) for st, k in enumerate(res.strategy.choice)),
        "q_min": min(q),
        "q_finite": all(math.isfinite(v) for v in q),
    }


def desk_round(buchirl, pairs, probed: bool = True) -> dict:
    """verify_instance, threshold_sweep and a short train on every pair.

    When ``probed``, one call of the speed kernel runs before each pair, and
    ``times`` are the round's wall times at the reference speed (``wall``
    keeps them as measured)."""
    clock = time.perf_counter
    times = {"verify_s": 0.0, "sweep_s": 0.0, "learn_s": 0.0}
    kernel_s = 0.0
    outputs = []
    failed = 0
    for k, (name, m, a) in enumerate(pairs):
        if probed:
            kernel_s += speed.kernel()
        out: dict = {"name": name}
        try:
            t = clock()
            rep = buchirl.verify_instance(
                m, a, zetas=DESK_ZETAS, n_random=DESK_RANDOM_POLICIES, seed=k
            )
            times["verify_s"] += clock() - t
            out["verify"] = asdict(rep)
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            out["verify_error"] = repr(exc)
        try:
            t = clock()
            sweep = buchirl.threshold_sweep(m, a, GRID)
            times["sweep_s"] += clock() - t
            out["sweep"] = asdict(sweep)
        except Exception as exc:
            failed += 1
            out["sweep_error"] = repr(exc)
        try:
            t = clock()
            p = buchirl.build_product(m, a)
            model = buchirl.augment(p, buchirl.PayoffSpec(buchirl.Mode.TOTAL_REWARD, DESK_LEARN["zeta"]))
            res = buchirl.train(
                model,
                buchirl.LearnConfig(
                    episodes=DESK_LEARN["episodes"], max_steps=DESK_LEARN["max_steps"], seed=k
                ),
            )
            times["learn_s"] += clock() - t
            out["learn"] = learn_summary(res, p)
        except Exception as exc:
            failed += 1
            out["learn_error"] = repr(exc)
        outputs.append(out)
    wall = dict(times)
    if probed:
        times = {key: speed.scale(t, kernel_s / len(pairs)) for key, t in wall.items()}
    return {"times": times, "wall": wall, "ops": 3 * len(pairs), "failed": failed, "outputs": outputs}


def cli_round(main, commands, out_dir: Path) -> dict:
    """Each command through ``main`` in-process; reports go to files."""
    clock = time.perf_counter
    times = {}
    codes = {}
    failed = 0
    for cmd in commands:
        path = out_dir / f"{cmd['op']}.json"
        with open(path, "w") as fh, contextlib.redirect_stdout(fh):
            t = clock()
            try:
                code = main(cmd["argv"])
            except Exception as exc:
                code = repr(exc)
            times[f"{cmd['op']}_s"] = clock() - t
        codes[cmd["op"]] = code
        failed += code != 0
    return {"times": times, "ops": len(commands), "failed": failed, "codes": codes}


def cmd_setup(spec: dict) -> None:
    import buchirl  # noqa: F401  part of the measured set-up
    import instances

    records = instances.generate(
        spec["workload"], spec["seed"], Path(spec["input_dir"]), Path(spec["corpus"])
    )
    Path(spec["manifest"]).write_text(json.dumps(records))


def cmd_rounds(spec: dict) -> None:
    """Whole desk rounds until spec["seconds"] have passed."""
    import buchirl

    pairs = load_pairs(buchirl, json.loads(Path(spec["manifest"]).read_text()))
    rounds = []
    first = None
    repeat_mismatch = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < spec["seconds"]:
        r = desk_round(buchirl, pairs)
        outputs = r.pop("outputs")
        if first is None:
            first = outputs
        elif json.dumps(outputs) != json.dumps(first):
            repeat_mismatch += 1
        rounds.append(r)
    Path(spec["result"]).write_text(
        json.dumps({"rounds": rounds, "outputs": first, "repeat_mismatch": repeat_mismatch})
    )


def cmd_traced(spec: dict) -> None:
    import buchirl
    import buchirl.cli
    from tracer import Tracer

    kind = spec["kind"]
    if kind == "desk":
        pairs = load_pairs(buchirl, json.loads(Path(spec["manifest"]).read_text()))

        def one_round(tag):
            return desk_round(buchirl, pairs, probed=False)
    else:
        def one_round(tag):
            out_dir = Path(spec["report_dir"]) / tag
            out_dir.mkdir(parents=True, exist_ok=True)
            # looked up per call, so the traced round calls the wrapper
            return cli_round(buchirl.cli.main, spec["commands"], out_dir)

    t = time.perf_counter()
    plain = one_round("plain")
    plain_wall = time.perf_counter() - t

    tracer = Tracer()
    tracer.install()
    try:
        t = time.perf_counter()
        traced = one_round("traced")
        traced_wall = time.perf_counter() - t
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    covered = summary.pop("covered_s")
    summary["trace.wall_s"] = traced_wall
    summary["trace.outside_s"] = traced_wall - covered
    summary["trace.overhead_s"] = traced_wall - plain_wall
    result = {
        "rounds": [plain, traced],
        "per_layer": summary,
        "self_sum_s": sum(v for k, v in summary.items() if k.endswith(".self_s")),
    }
    if kind == "desk":
        result["outputs"] = traced.pop("outputs")
        result["repeat_mismatch"] = int(json.dumps(plain.pop("outputs")) != json.dumps(result["outputs"]))
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    mode, spec_path = sys.argv[1], sys.argv[2]
    spec = json.loads(Path(spec_path).read_text())
    {"setup": cmd_setup, "rounds": cmd_rounds, "traced": cmd_traced}[mode](spec)
