"""Print a SHA-256 digest of every artifact the CLI writes, for byte-identity checks.

Runs each scenario kind on small configs (several cases for some kinds)
into a temporary directory and prints one line per artifact,
``kind/case file sha256``.  ``manifest.json`` is skipped: its timestamps
change from run to run.  Run it on two commits and diff the output:

    python tools/digest_outputs.py > after.txt
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from banditlab.cli import run_scenario  # noqa: E402

Q_RATES = {"a_plus_c": 0.3, "a_minus_c": 0.1, "a_plus_u": 0.1, "a_minus_u": 0.3}
FACTUAL_RATES = {"a_plus_c": 0.3, "a_minus_c": 0.1, "a_plus_u": 0.0, "a_minus_u": 0.0}


def _env(counterfactual: bool, horizon: int = 20, p1: float = 0.6, p2: float = 0.4) -> dict:
    return {"p1": p1, "p2": p2, "counterfactual": counterfactual, "horizon": horizon}


def cases(work: Path):
    """(kind, case, config) in run order; later cases read earlier outputs."""
    q_cf = {"type": "q", "rates": Q_RATES, "beta": 5.0}
    bayes = {"type": "bayes", "beta": 8.0}
    step = {"type": "q", "rates": FACTUAL_RATES, "beta": 3.0, "policy": "greedy",
            "schedule": {"kind": "step", "alpha1": 0.4, "alpha2": 0.05, "tau_c": 8}}
    sim = {"kind": "simulate", "ensemble": {"replicas": 12}, "output": {"sessions": True}}
    yield "simulate", "q-counterfactual", {**sim, "environment": _env(True), "agent": q_cf}
    yield "simulate", "bayes-partial", {**sim, "environment": _env(False), "agent": bayes}
    yield "simulate", "q-step-greedy", {**sim, "environment": _env(False), "agent": step,
                                        "seed": 5}
    # 700 replicas of 20 trials span several 6,400-row blocks, the last one partial
    yield "simulate", "q-counterfactual-blocks", {**sim, "ensemble": {"replicas": 700},
                                                  "environment": _env(True), "agent": q_cf}
    yield "propagate", "closure", {"kind": "propagate", "p": 0.7, "beta": 4.0,
                                   "n_steps": 30, "rates": Q_RATES}
    yield "propagate", "exact-unbiased", {"kind": "propagate", "p": 0.7, "beta": 4.0,
                                          "n_steps": 30, "mode": "exact-unbiased"}
    # an integer grid value, a huge beta and a cell with no steady state (blank)
    yield "sweep-delta", "grid", {"kind": "sweep-delta", "p": 0.5, "x_grid": [1, 1.2, 1.8],
                                  "beta_grid": [1.0, 5.0, 1e20]}
    # near-unbiased rates off p = 1/2, where the steady-state quadratic degenerates
    yield "sweep-delta", "near-unbiased", {"kind": "sweep-delta", "p": 0.3,
                                           "x_grid": [0.999, 0.9999, 1.0001],
                                           "beta_grid": [0.1, 0.5]}
    sw = {"kind": "switch-rate", "ensemble": {"replicas": 200}}
    yield "switch-rate", "q", {**sw, "environment": _env(True), "agent": q_cf}
    yield "switch-rate", "bayes-partial", {**sw, "environment": _env(False), "agent": bayes}
    yield "switch-rate", "q-greedy", {**sw, "environment": _env(True),
                                      "agent": {**q_cf, "policy": "greedy"}}
    yield "switch-rate", "bayes-partial-greedy", {**sw, "environment": _env(False),
                                                  "agent": {**bayes, "policy": "greedy"}}
    for case in ("q-counterfactual", "bayes-partial"):
        yield "fit", case, {"kind": "fit", "sessions": str(work / "simulate" / case / "sessions.csv"),
                            "restarts": 3, "seed": 2}
    rec = {"kind": "recover", "environment": _env(True, 24, 0.5, 0.5), "n_agents": 6,
           "beta_gen": 10, "restarts": 3}
    yield "recover", "bayes-greedy", {**rec, "policy": "greedy"}
    yield "recover", "const-q-softmax", {**rec, "generator": "const_q"}
    yield "new-arm", "q-counterfactual", {
        "kind": "new-arm", "sessions": str(work / "simulate" / "q-counterfactual" / "sessions.csv"),
        "subject": "S0003", "p3_grid": [0.2, 0.8], "n3": 6, "reps": 50, "restarts": 3}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
