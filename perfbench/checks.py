"""Checks of the program's outputs, each returning a list of problems.

The checks hold the program to properties the method must have (the cross
checks of ``verify`` pass, a greedy policy never beats the optimum) and to
the independent reference of reference.py (the optimum itself, the product's
state space, the optimal first action on I2).  An empty list means the
outputs are correct.
"""

from __future__ import annotations

import math

PSAT_TOL = 1e-8     # program optimum against the reference optimum
POLICY_TOL = 1e-9   # a policy's satisfaction may not exceed the optimum

# learn_i2: I2 under "infinitely often g" at zeta = 0.9 in the total view.
# From s0, action a reaches the accepting self-loop sA with probability 0.5,
# whose total reward is 1/(1 - 0.9) = 10, so q(s0, a) has expectation 5;
# action b emits one g and falls into the reward-free sink sR, so every
# episode through it returns exactly 1.
I2_INITIAL = "s0|q0"
I2_BEST = "a@q0"
I2_WORSE = "b@q0"
I2_ZETA = 0.9
I2_Q_BEST_BAND = (4.5, 5.5)


def check_sweep(tag: str, sweep: dict, ref: dict) -> list[str]:
    bad = []
    if not sweep["rows"]:
        bad.append(f"{tag}: sweep has no rows")
    for row in sweep["rows"]:
        if abs(row["psat_opt"] - ref["psat_initial"]) > PSAT_TOL:
            bad.append(
                f"{tag}: sweep psat_opt {row['psat_opt']!r} != reference "
                f"{ref['psat_initial']!r} at zeta {row['zeta']}"
            )
        if row["psat_policy"] > row["psat_opt"] + POLICY_TOL:
            bad.append(
                f"{tag}: psat_policy {row['psat_policy']!r} exceeds psat_opt "
                f"{row['psat_opt']!r} at zeta {row['zeta']}"
            )
        if row["psat_policy"] > ref["psat_initial"] + POLICY_TOL:
            bad.append(f"{tag}: psat_policy {row['psat_policy']!r} exceeds the reference optimum")
    return bad


def check_verify(tag: str, report: dict, zetas: int, tails: int = 0) -> list[str]:
    bad = []
    if not report["passed"]:
        failing = [k for k in ("identity_ok", "bounds_ok", "equality_ok", "prob1_ok") if not report[k]]
        failing += [f"tail@{t['zeta']}" for t in report["tails"] if not t["ok"]]
        bad.append(f"{tag}: verify did not pass ({', '.join(failing)})")
    if len(report["zetas"]) != zetas or report["checked"] != zetas * report["policies_per_zeta"]:
        bad.append(f"{tag}: verify checked {report['checked']} policies over {report['zetas']}")
    if len(report["tails"]) != tails:
        bad.append(f"{tag}: verify ran {len(report['tails'])} tail checks, expected {tails}")
    return bad


def check_policy_names(tag: str, policy: dict, ref: dict) -> list[str]:
    """The program's product has the reference's states, and every chosen
    pair is an action the reference product offers there."""
    bad = []
    if set(policy) != set(ref["q"]):
        missing = sorted(set(ref["q"]) - set(policy))[:3]
        extra = sorted(set(policy) - set(ref["q"]))[:3]
        bad.append(f"{tag}: product states differ from the reference (missing {missing}, extra {extra})")
        return bad
    for state, pair in policy.items():
        if pair not in ref["q"][state]:
            bad.append(f"{tag}: pair {pair} at {state} is not in the reference product")
    return bad


def check_desk(outputs: list[dict], refs: dict[str, dict], zetas: int) -> list[str]:
    bad = []
    for out in outputs:
        name = out["name"]
        ref = refs[name]
        for key in ("verify_error", "sweep_error", "learn_error"):
            if key in out:
                bad.append(f"{name}: {out[key]}")
        if "verify" in out:
            bad += check_verify(name, out["verify"], zetas)
        if "sweep" in out:
            bad += check_sweep(name, out["sweep"], ref)
        if "learn" in out:
            lr = out["learn"]
            if lr["states"] != ref["states"]:
                bad.append(f"{name}: product has {lr['states']} states, reference {ref['states']}")
            if not (lr["choice_ok"] and lr["q_finite"] and lr["q_min"] >= 0.0):
                bad.append(f"{name}: learned table out of range ({lr})")
    return bad


def check_large(reports: dict[str, dict], ref: dict) -> list[str]:
    """Reports of the operations that ran (a failed one has none)."""
    bad = []
    if "verify" in reports:
        bad += check_verify("large verify", reports["verify"]["result"], zetas=1)
    if "sweep" in reports:
        bad += check_sweep("large sweep", reports["sweep"]["result"], ref)
    if "learn" in reports:
        bad += check_policy_names("large learn", reports["learn"]["result"]["policy"], ref)
    if not 0.0 < ref["psat_initial"] < 1.0:
        bad.append(f"large: reference value {ref['psat_initial']} is not strictly inside (0, 1)")
    return bad


def check_learn_i2(reports: dict[str, dict], ref: dict) -> tuple[list[str], list[str]]:
    """Problems, and notes that are reported but do not fail the run."""
    bad: list[str] = []
    notes: list[str] = []
    if "verify" in reports:
        bad += check_verify("i2 verify", reports["verify"]["result"], zetas=1, tails=1)
    if "sweep" in reports:
        bad += check_sweep("i2 sweep", reports["sweep"]["result"], ref)
    if not math.isclose(ref["psat_initial"], 0.5, abs_tol=PSAT_TOL):
        bad.append(f"i2: reference value {ref['psat_initial']} is not the hand-worked 0.5")
    if "learn" not in reports:
        return bad, notes
    learned = reports["learn"]["result"]
    bad += check_policy_names("i2 learn", learned["policy"], ref)
    opt = ref["psat"][I2_INITIAL]
    if learned["policy"].get(I2_INITIAL) != I2_BEST:
        bad.append(f"i2: learned policy plays {learned['policy'].get(I2_INITIAL)} at {I2_INITIAL}")
    if abs(ref["q"][I2_INITIAL][I2_BEST] - opt) > PSAT_TOL or not ref["q"][I2_INITIAL][I2_WORSE] < opt:
        bad.append(f"i2: reference does not single out {I2_BEST} as optimal ({ref['q'][I2_INITIAL]})")
    q = learned["q_at_initial"]
    cap = 1.0 / (1.0 - I2_ZETA)
    if abs(q[I2_WORSE] - 1.0) > 1e-12:
        bad.append(f"i2: q({I2_INITIAL}, {I2_WORSE}) = {q[I2_WORSE]!r}, every such episode returns 1")
    if not q[I2_WORSE] < q[I2_BEST] < cap:
        bad.append(f"i2: q({I2_INITIAL}, {I2_BEST}) = {q[I2_BEST]!r} outside ({q[I2_WORSE]}, {cap})")
    lo, hi = I2_Q_BEST_BAND
    if not lo <= q[I2_BEST] <= hi:
        notes.append(
            f"i2: q({I2_INITIAL}, {I2_BEST}) = {q[I2_BEST]:.4f} outside [{lo}, {hi}] around "
            f"{0.5 * cap:g}; the estimate spreads this much across learner seeds"
        )
    return bad, notes
