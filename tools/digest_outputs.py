"""Print a SHA-256 digest of every artifact the CLI writes, for byte-identity checks.

Runs each scenario kind on small configs (several cases for some kinds)
into a temporary directory and prints one line per artifact,
``kind/case file sha256``.  ``manifest.json`` is skipped: its timestamps
change from run to run.  Run it on two commits and diff the output:

    python tools/digest_outputs.py > after.txt

``--keep DIR`` writes the artifacts to DIR (new or empty) and keeps them.
``--against DIR`` compares every artifact with the one of the same name
under DIR, written by an earlier ``--keep`` run, and prints a line for
each that differs: for a CSV, how many numeric cells differ and the
largest |difference| among them, plus a count of the cells that differ
but are not both finite numbers; for a JSON file the same, leaf by leaf;
any other file is reported as differing.
For a tolerance between two commits:

    python tools/digest_outputs.py --keep /tmp/before     # on the first commit
    python tools/digest_outputs.py --against /tmp/before  # on the second
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from banditlab.cli import run_scenario  # noqa: E402

Q_RATES = {"a_plus_c": 0.3, "a_minus_c": 0.1, "a_plus_u": 0.1, "a_minus_u": 0.3}


def _env(counterfactual: bool, horizon: int = 20, p1: float = 0.6, p2: float = 0.4) -> dict:
    return {"p1": p1, "p2": p2, "counterfactual": counterfactual, "horizon": horizon}


def cases(work: Path):
    """(kind, case, config) in run order; later cases read earlier outputs."""
    q_cf = {"type": "q", "rates": Q_RATES, "beta": 5.0}
    bayes = {"type": "bayes", "beta": 8.0}
    step = {"type": "q", "beta": 3.0, "policy": "greedy",
            "schedule": {"kind": "step", "alpha1": 0.4, "alpha2": 0.05, "tau_c": 8}}
    sim = {"kind": "simulate", "ensemble": {"replicas": 12}, "output": {"sessions": True}}
    yield "simulate", "q-counterfactual", {**sim, "environment": _env(True), "agent": q_cf}
    yield "simulate", "bayes-partial", {**sim, "environment": _env(False), "agent": bayes}
    # Bayesian counts together with the unchosen-reward split
    yield "simulate", "bayes-counterfactual", {**sim, "environment": _env(True), "agent": bayes}
    yield "simulate", "q-step-greedy", {**sim, "environment": _env(False), "agent": step,
                                        "seed": 5}
    # 700 replicas of 20 trials span two 512-replica simulation chunks and three
    # 6,400-row text blocks, the last one partial
    yield "simulate", "q-counterfactual-blocks", {**sim, "ensemble": {"replicas": 700},
                                                  "environment": _env(True), "agent": q_cf}
    # posterior means repeat, so their columns are written from distinct-value texts
    yield "simulate", "bayes-counterfactual-blocks", {**sim, "ensemble": {"replicas": 700},
                                                      "environment": _env(True), "agent": bayes}
    yield "propagate", "closure", {"kind": "propagate", "p": 0.7, "beta": 4.0,
                                   "n_steps": 30, "rates": Q_RATES}
    # the closure at the Bayes schedule: the Bayesian agent's exact moments
    yield "propagate", "bayes-schedule", {"kind": "propagate", "p": 0.7, "beta": 4.0,
                                          "n_steps": 30, "schedule": {"kind": "bayes"}}
    # an integer grid value, a huge beta and a cell with no steady state (blank)
    yield "sweep-delta", "grid", {"kind": "sweep-delta", "p": 0.5, "x_grid": [1, 1.2, 1.8],
                                  "beta_grid": [1.0, 5.0, 1e20]}
    # near-unbiased rates off p = 1/2, where the steady-state quadratic degenerates
    yield "sweep-delta", "near-unbiased", {"kind": "sweep-delta", "p": 0.3,
                                           "x_grid": [0.999, 0.9999, 1.0001],
                                           "beta_grid": [0.1, 0.5]}
    # weak confirmation at high beta: blank where the closure leaves [0, 1]
    yield "sweep-delta", "closure-leaves", {"kind": "sweep-delta", "p": 0.5,
                                            "x_grid": [0, 0.3, 1], "beta_grid": [1, 30, 50]}
    # <Q1**2> dips below 0 on the way to a root in [0, 1/4] at x = 0.3, beta = 50
    # (p = 0.1) and x = 0.6, beta = 100 (p = 0.05): blank, since a step must stay in [0, 1]
    for p in (0.05, 0.1):
        yield "sweep-delta", f"unit-box-p{p}", {"kind": "sweep-delta", "p": p,
                                                "x_grid": [0.3, 0.6], "beta_grid": [50, 100]}
    sw = {"kind": "switch-rate", "ensemble": {"replicas": 200}}
    yield "switch-rate", "q", {**sw, "environment": _env(True), "agent": q_cf}
    yield "switch-rate", "bayes-partial", {**sw, "environment": _env(False), "agent": bayes}
    yield "switch-rate", "q-greedy", {**sw, "environment": _env(True),
                                      "agent": {**q_cf, "policy": "greedy"}}
    yield "switch-rate", "bayes-partial-greedy", {**sw, "environment": _env(False),
                                                  "agent": {**bayes, "policy": "greedy"}}
    yield "switch-rate", "q-step-partial", {**sw, "environment": _env(False), "agent": {
        "type": "q", "beta": 5.0,
        "schedule": {"kind": "step", "alpha1": 0.3, "alpha2": 0.05, "tau_c": 8}}}
    # 9,000 replicas span two engine chunks, 8,192 + 808, so the sums cross a chunk boundary
    yield "switch-rate", "q-two-chunks", {**sw, "ensemble": {"replicas": 9000},
                                          "environment": _env(True), "agent": q_cf}
    # Bayesian counts streamed across the same chunk boundary, under partial feedback
    yield "switch-rate", "bayes-partial-two-chunks", {**sw, "ensemble": {"replicas": 9000},
                                                      "environment": _env(False), "agent": bayes}
    # at T = 100 the first group of 8,192 replicas holds over half the 2**20 trial
    # cap, so it is stepped in two halves, 4,096 + 4,096, whose sums are added; 808 follow
    yield "switch-rate", "q-split-chunk", {**sw, "ensemble": {"replicas": 9000},
                                           "environment": _env(True, 100), "agent": q_cf}
    for case in ("q-counterfactual", "bayes-partial"):
        yield "fit", case, {"kind": "fit", "sessions": str(work / "simulate" / case / "sessions.csv"),
                            "restarts": 3, "seed": 2}
    # without const, conf starts from its Sobol points alone and full from conf's optimum
    q_sessions = str(work / "simulate" / "q-counterfactual" / "sessions.csv")
    yield "fit", "conf-full", {"kind": "fit", "sessions": q_sessions,
                               "families": ["conf", "full"], "restarts": 3, "seed": 2}
    # const's initial simplex on 700 sessions of 20 trials is 2,100 points, 42,000
    # (point, trial) cells, so the engine scores it in several passes, and in
    # more of them if its cap on a pass's cells shrinks
    yield "fit", "const-blocks", {
        "kind": "fit", "sessions": str(work / "simulate" / "q-counterfactual-blocks" / "sessions.csv"),
        "families": ["const"], "restarts": 1, "seed": 2}
    rec = {"kind": "recover", "environment": _env(True, 24, 0.5, 0.5), "n_agents": 6,
           "beta_gen": 10, "restarts": 3}
    yield "recover", "bayes-greedy", {**rec, "policy": "greedy"}
    yield "recover", "const-q-softmax", {**rec, "generator": "const_q"}
    yield "new-arm", "q-counterfactual", {
        "kind": "new-arm", "sessions": str(work / "simulate" / "q-counterfactual" / "sessions.csv"),
        "subject": "S0003", "p3_grid": [0.2, 0.8], "n3": 6, "reps": 50, "restarts": 3}


def _number(cell) -> float:
    """A CSV cell or JSON leaf as a finite number, else NaN; booleans are
    not numbers."""
    if isinstance(cell, bool):
        return math.nan
    try:
        x = float(cell)
    except (TypeError, ValueError):
        return math.nan
    return x if math.isfinite(x) else math.nan


def _csv_cells(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _json_leaves(node, path=()) -> dict:
    """Every leaf of a parsed JSON document by its path of keys and list
    indices; an empty object or list is a leaf."""
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return {p: v for k, child in items for p, v in _json_leaves(child, path + (k,)).items()}
    return {path: node}


def _tally(pairs) -> tuple[int, float, int]:
    """(numeric pairs that differ, their largest |difference|, other pairs
    that differ)"""
    n_num = n_other = 0
    worst = 0.0
    for x, y in pairs:
        if x == y:
            continue
        d = abs(_number(x) - _number(y))
        if math.isnan(d):
            n_other += 1
        else:
            n_num += 1
            worst = max(worst, d)
    return n_num, worst, n_other


def _report(pairs, unit: str) -> str:
    n_num, worst, n_other = _tally(pairs)
    return (f"{n_num} numeric {unit} differ, max |delta| {worst:.3g}; "
            f"{n_other} non-numeric {unit} differ")


def compare(new: Path, old: Path) -> str:
    """How artifact ``new`` differs from ``old``; "" if their bytes are equal."""
    if not old.exists():
        return "missing from the reference"
    if new.read_bytes() == old.read_bytes():
        return ""
    if new.suffix == ".json":
        a, b = (_json_leaves(json.loads(p.read_text(encoding="utf-8"))) for p in (new, old))
        if a.keys() != b.keys():
            return "differs in its keys or in the length of a list"
        # numeric differences per field, a leaf's last key, so that a tolerance
        # reads per quantity
        fields: dict = {}
        for p in a:
            fields.setdefault(next((k for k in reversed(p) if isinstance(k, str)), ""),
                              []).append((a[p], b[p]))
        by_field = [(f, *_tally(pairs)[:2]) for f, pairs in sorted(fields.items())]
        return _report(((a[p], b[p]) for p in a), "leaves") + "".join(
            f"; {f}: {n} differ, max |delta| {w:.3g}" for f, n, w in by_field if n)
    if new.suffix != ".csv":
        return "differs (neither a CSV nor JSON)"
    a, b = _csv_cells(new), _csv_cells(old)
    if [len(r) for r in a] != [len(r) for r in b]:
        return "differs in its number of rows or of cells in a row"
    return _report(((x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)), "cells")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--keep", metavar="DIR", help="write the artifacts to DIR and keep them")
    ap.add_argument("--against", metavar="DIR",
                    help="compare each artifact with the same file under DIR")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.keep or tmp).resolve()
        if args.keep:
            work.mkdir(parents=True, exist_ok=True)
            if any(work.iterdir()):
                ap.error(f"--keep directory {work} is not empty")
        report = []
        for kind, case, cfg in cases(work):
            out = work / kind / case
            out.mkdir(parents=True)
            path = out / "config.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            run_scenario(path, out_dir=str(out))
            for f in sorted(out.iterdir()):
                if f.name not in ("config.json", "manifest.json"):
                    digest = hashlib.sha256(f.read_bytes()).hexdigest()
                    print(f"{kind}/{case} {f.name} {digest}")
                    diff = args.against and compare(f, Path(args.against) / kind / case / f.name)
                    if diff:
                        report.append(f"{kind}/{case} {f.name}: {diff}")
    if args.against:
        print(f"against {args.against}: {len(report)} artifact(s) differ")
        for line in report:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
