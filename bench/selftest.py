"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Runs one small round of each workload, shows that its real outputs pass
every check, then perturbs one output at a time and shows that the check
meant to catch it fails.  Also checks that BENCHMARK.json lists the
metrics run.py prints, with the same units.  Exits 1 on any miss.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import reference as ref
import run
import tracing
import workloads

FAILED = []


def expect(label: str, problems: list[str], needle: str | None) -> None:
    """needle None: no problem expected; otherwise one containing needle."""
    ok = not problems if needle is None else any(needle in p for p in problems)
    print(f"{'ok  ' if ok else 'MISS'} {label}" + ("" if ok else f": {problems[:3]}"))
    if not ok:
        FAILED.append(label)


def one_round(cls, bl, work: Path, **sizes):
    wl = type(cls.__name__, (cls,), sizes)(bl, work / cls.name, 0, 1)
    wl.work.mkdir()
    wl.setup()
    assert wl.run_round(0), f"{cls.name}: round failed"
    wl.collect(0)
    return wl


def fit_families(wl) -> None:
    subjects = wl.collected
    gaps = [abs(f["nll"] - ref.nll_replay(fam, f["params"], s["actions"], s["r_chosen"],
                                          s["r_unchosen"]))
            for s in subjects for fam, f in s["fits"].items()]
    print(f"     largest |reported NLL - log-sigmoid replay|: {max(gaps):.2e} "
          f"(tolerance {checks.NLL_TOL:g})")
    expect("fit-families outputs pass", checks.check_fit_families(subjects), None)

    def perturbed(edit, needle, label):
        subs = copy.deepcopy(subjects)
        edit(subs)
        expect(label, checks.check_fit_families(subs), needle)

    def shift_nll(subs):
        subs[0]["fits"]["conf"]["nll"] += 1e-3

    def shift_bic(subs):
        subs[1]["fits"]["full"]["bic"] += 1e-3

    def break_nesting(subs):
        f = subs[2]["fits"]
        f["full"]["nll"] = f["conf"]["nll"] + 1e-3

    def bad_const_fit(subs):
        s = next(s for s in subs if s["kind"] == "const_q")
        params = {"alpha": 0.99, "beta": 0.1}
        nll = ref.nll_replay("const", params, s["actions"], s["r_chosen"], s["r_unchosen"])
        s["fits"]["const"].update(params=params, nll=nll,
                                  bic=2 * np.log(len(s["actions"])) + 2 * nll)

    perturbed(shift_nll, "the replay gives", "fit-families: one NLL shifted by 1e-3")
    perturbed(shift_bic, "BIC", "fit-families: one BIC shifted by 1e-3")
    perturbed(break_nesting, "NLL(full)", "fit-families: NLL(full) above NLL(conf)")
    perturbed(bad_const_fit, "generating parameters",
              "fit-families: a const fit worse than the generating point")


def recover_greedy(wl) -> None:
    e = wl.ENV

    def run_check(rounds):
        return checks.check_recovery(rounds, e["horizon"], e["p1"], e["p2"], 0.3)

    gaps = []
    for rnd in wl.collected:
        for g in ("bayes", "const_q"):
            for i, f in enumerate(rnd[g]["fits"]):
                a, rc, ru = ref.greedy_session(g, rnd["seed"], i, e["horizon"], e["p1"], e["p2"])
                gaps.append(abs(f["nll"] - ref.nll_replay("full", f["params"], a, rc, ru)))
    print(f"     largest |reported NLL - replay of the regenerated session|: {max(gaps):.2e}")
    expect("recover-greedy outputs pass", run_check(wl.collected), None)

    def perturbed(edit, needle, label):
        rounds = copy.deepcopy(wl.collected)
        edit(rounds)
        expect(label, run_check(rounds), needle)

    def shift_nll(rounds):
        rounds[0]["bayes"]["fits"][1]["nll"] += 1e-3

    def bad_control_fit(rounds):
        f = rounds[0]["const_q"]["fits"][0]
        f["params"] = {**{k: 0.95 for k in checks.RATE_NAMES}, "beta": 0.5}
        a, rc, ru = ref.greedy_session("const_q", rounds[0]["seed"], 0, e["horizon"],
                                       e["p1"], e["p2"])
        f["nll"] = ref.nll_replay("full", f["params"], a, rc, ru)

    def reverse_direction(rounds):
        for rnd in rounds:
            for f in rnd["bayes"]["fits"]:
                p = f["params"]
                p["a_plus_c"], p["a_minus_c"] = min(p["a_plus_c"], p["a_minus_c"]), \
                    max(p["a_plus_c"], p["a_minus_c"])

    def shift_mean(rounds):
        rounds[0]["const_q"]["mean_rates"]["a_plus_u"] += 1e-6

    perturbed(shift_nll, "regenerated session", "recover-greedy: one NLL shifted by 1e-3")
    perturbed(bad_control_fit, "in-family point",
              "recover-greedy: a control fit worse than the in-family point")
    perturbed(reverse_direction, "a+c > a-c",
              "recover-greedy: Bayesian agents without positivity")
    perturbed(shift_mean, "mean_rates", "recover-greedy: mean_rates off the fits' mean")


def ensemble_stats(wl) -> None:
    expect("ensemble-stats outputs pass", wl.check(), None)

    def perturbed(edit, needle, label):
        saved = copy.deepcopy((wl.first, wl.digests))
        edit(wl.first)
        expect(label, wl.check(), needle)
        wl.first, wl.digests = saved

    def shift_moment(f):
        em = f["em"]
        em["mean11"][40] += 10 * em["se11"][40]

    def shift_switch(f):
        s = f["series"]["x1"]
        s["empirical_mean"][60] += 10 * np.hypot(s["analytic_se"][60], s["empirical_se"][60])

    def raise_confirm(f):
        f["series"]["x15"]["analytic_mean"][70] = f["series"]["x1"]["analytic_mean"][70] + 1e-3

    def shift_steady(f):
        f["sweep"][0] = f["sweep"][0][:3] + (f["sweep"][0][3] + 1e-8,)

    def shift_propagate(f):
        t, m1, m11, m12, d = f["propagate"][30]
        f["propagate"][30] = (t, m1, m11 + 1e-9, m12, d + 1e-9)

    def differ(f):
        wl.digests.append("0" * 64)

    perturbed(shift_moment, "E[Q1^2]", "ensemble-stats: one moment shifted by 10 se")
    perturbed(shift_switch, "switch rate", "ensemble-stats: one switch rate shifted by 10 se")
    perturbed(raise_confirm, "confirmation-biased",
              "ensemble-stats: confirmation switch rate above the unbiased one")
    perturbed(shift_steady, "sweep-delta", "ensemble-stats: unbiased steady state shifted")
    perturbed(shift_propagate, "propagate", "ensemble-stats: one propagate row shifted")
    perturbed(differ, "differs from round 0", "ensemble-stats: a round that differs")


def simulate_write(wl) -> None:
    expect("simulate-write outputs pass", wl.check(), None)
    sims = {tag: wl.parse(tag) for tag in wl.SPECS}

    def perturbed(tag, edit, needle, label):
        sim = copy.deepcopy(sims[tag])
        edit(sim)
        expect(label, wl.check_tag(tag, sim), needle)

    def alter_q_row(sim):
        sim["q1"][3, 10] += 1e-6

    def alter_bayes_row(sim):
        sim["q2"][7, 40] += 0.01

    def drop_replica(sim):
        for k in sim:
            sim[k] = sim[k][:-1]

    def unblank(sim):
        sim["r_unchosen"][0, 0] = sim["s_r_unchosen"][0, 0] = 1

    def bias_rewards(sim):
        for k in ("r_chosen", "s_r_chosen"):
            sim[k][:, ::2] = 1

    def desync_sessions(sim):
        sim["s_action"][5, 5] = 3 - sim["s_action"][5, 5]

    perturbed("sim-q", alter_q_row, "the update gives", "simulate-write: one Q value row altered")
    perturbed("sim-bayes", alter_bayes_row, "the update gives",
              "simulate-write: one posterior-mean row altered")
    perturbed("sim-q", drop_replica, "rows", "simulate-write: a replica missing")
    perturbed("sim-bayes", unblank, "not blank",
              "simulate-write: unchosen reward shown under partial feedback")
    perturbed("sim-q", bias_rewards, "reward frequency", "simulate-write: rewards off p")
    perturbed("sim-q", desync_sessions, "sessions.csv",
              "simulate-write: sessions.csv differs from trajectories.csv")
    wl.digests.append("0" * 64)
    expect("simulate-write: a round that differs", wl.check(), "differs from round 0")
    wl.digests.pop()


def benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    expect("BENCHMARK.json end_to_end matches run.py", [] if e2e == run.END_TO_END
           else [f"{e2e} != {run.END_TO_END}"], None)
    expect("BENCHMARK.json per_layer matches tracing.py", [] if layer == tracing.PER_LAYER
           else [f"{sorted(set(layer) ^ set(tracing.PER_LAYER))}"], None)
    expect("BENCHMARK.json workloads match workloads.py",
           [] if [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
           else ["workload names differ"], None)


def main() -> int:
    bl = run.import_package()
    run.OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        W = workloads
        fit_families(one_round(W.FitFamilies, bl, work))
        recover_greedy(one_round(W.RecoverGreedy, bl, work, AGENTS=5))
        ensemble_stats(one_round(W.EnsembleStats, bl, work, SWITCH_REPLICAS=2000,
                                 MOMENT_REPLICAS=4000))
        simulate_write(one_round(W.SimulateWrite, bl, work, REPLICAS=100))
        benchmark_json()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILED)} missed" if FAILED else "every check passed clean and caught "
          "its perturbation")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
