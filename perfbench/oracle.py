"""Checks on hexaform's JSON reports that do not come from hexaform.

Expected values are either recorded constants (the invariants of the
builtin manifolds), dimensions computed by the benchmark's own rank
routine, or another report of the same pass on the manifold a walk
started from (Pachner invariance).
"""

from __future__ import annotations

import json
from fractions import Fraction

# recorded invariants of the Kuhnel CP^2: the nondegenerate part of the
# hexagon form is <1>, the reduced cup form is <-1>
CP2_FORM = {"rank": 1, "signature": [1, 0], "det": "1", "factors": [1], "parity": "odd"}

EXIT_OK = 0
EXIT_CAP = 3  # documented "cap exceeded" refusal

OK, REFUSED, FAILED = "ok", "refused", "failed"


def zero_value(p: int, n: int, model: str) -> str:
    """The report's string for the value 0 in the given model."""
    row = ",".join(["0"] * n)
    return row if model == "field" else ";".join([row] * n)


def probabilities(dist: dict) -> dict[str, Fraction]:
    total = int(dist["total"])
    return {e["value"]: Fraction(int(e["count"]), total) for e in dist["entries"]}


def _check_form(inv: dict, z_dim: int) -> list[str]:
    problems = [f"{k} is {inv.get(k)!r}, expected {v!r}"
                for k, v in CP2_FORM.items() if inv.get(k) != v]
    if inv.get("dim") != z_dim:
        problems.append(f"dim is {inv.get('dim')}, expected {z_dim}")
    if inv.get("radical") != z_dim - CP2_FORM["rank"]:
        problems.append(f"radical is {inv.get('radical')}, expected {z_dim - CP2_FORM['rank']}")
    return problems


def _check_distribution(dist: dict, exp: dict, reports: dict) -> list[str]:
    problems = []
    for key in ("p", "n", "model"):
        if dist.get(key) != exp[key]:
            problems.append(f"{key} is {dist.get(key)!r}, expected {exp[key]!r}")
    want_total = (exp["p"] ** exp["n"]) ** exp["dim"]
    if int(dist["total"]) != want_total:
        problems.append(f"total is {dist['total']}, expected q^{exp['dim']} = {want_total}")
    if sum(int(e["count"]) for e in dist["entries"]) != int(dist["total"]):
        problems.append("probabilities do not sum to 1")
    got = probabilities(dist)
    if exp.get("same_as") is not None:
        # Pachner invariance: a walk member's distribution is its base's
        base = reports.get(exp["same_as"])
        if base is not None and got != probabilities(base["distribution"]):
            problems.append(f"distribution differs from that of {exp['same_as']}")
    if exp.get("zero") and got != {zero_value(exp["p"], exp["n"], exp["model"]): 1}:
        # recorded: every distribution of S^4 puts all mass at 0
        problems.append(f"distribution is {dist['entries']}, expected all mass at 0")
    return problems


def check_report(exp: dict, report: dict, reports: dict) -> list[str]:
    """Problems with one successful report; empty when it is correct.

    `reports` maps the labels of earlier operations of the same pass to
    their parsed reports, for expectations that name a base operation.
    """
    kind = exp["kind"]
    if kind == "form":
        return _check_form(report["invariants"], exp["z_dim"])
    if kind == "compare":
        problems = _check_form(report["hexagon"], exp["z_dim"])
        cup = report["cup"]
        if cup.get("rank") != 1 or abs(int(cup.get("det", 0))) != 1:
            problems.append(f"cup form has rank {cup.get('rank')} and det {cup.get('det')}, "
                            "expected rank 1 and |det| 1")
        return problems
    if kind == "prob":
        return _check_distribution(report["distribution"], exp, reports)
    if kind == "verify":
        problems = [] if report.get("all_equal") is True else ["all_equal is not true"]
        if len(report.get("steps", ())) != exp["steps"]:
            problems.append(f"{len(report.get('steps', ()))} steps, expected {exp['steps']}")
        if exp["mode"] == "form":
            problems += _check_form(report["initial"], exp["z_dim"])
        else:
            problems += _check_distribution(report["initial"], exp, reports)
        return problems
    if kind == "frobenius":
        problems = [] if report.get("cocycle") is True else ["cocycle is not true"]
        for key in ("p", "degree"):
            if report.get(key) != exp[key]:
                problems.append(f"{key} is {report.get(key)!r}, expected {exp[key]!r}")
        return problems
    raise RuntimeError(f"unknown expectation kind {kind!r}")


def classify(exp: dict, rc: int | None, stdout: str, reports: dict) -> tuple[str, list[str]]:
    """Outcome of one operation: ok, refused (documented exit 3), or
    failed (an exception, any other exit, or a report the oracle rejects).
    `rc` is None when the command raised instead of returning."""
    if rc is None:
        return FAILED, ["raised an exception"]
    if rc == EXIT_CAP:
        return REFUSED, []
    if rc != EXIT_OK:
        return FAILED, [f"exit code {rc}"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return FAILED, [f"report is not JSON: {exc}"]
    try:
        problems = check_report(exp, report, reports)
    except (KeyError, TypeError, ValueError) as exc:
        problems = [f"report lacks an expected field: {exc!r}"]
    return (FAILED if problems else OK), problems
