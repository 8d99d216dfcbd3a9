"""The benchmark's four workloads.

A workload writes its inputs and configs in `setup`, then runs rounds:
every round calls the same scenarios, and `run_round` is the only part
that is timed.  `collect` parses a round's outputs after the clock stops,
and `check` compares everything collected against independent
computations (see checks.py).  Scenarios go through `banditlab.cli.main`,
in this process, so argument parsing, config validation and the writers
are part of the measured work.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from array import array
from pathlib import Path

import numpy as np

import checks
import reference as ref


def x_curve(x: float) -> dict:
    """Rates of the x-curve family: 0.1x on confirming evidence, 0.2 - 0.1x
    on the rest (x = 1 is unbiased)."""
    return {"a_plus_c": 0.1 * x, "a_minus_c": 0.2 - 0.1 * x,
            "a_plus_u": 0.2 - 0.1 * x, "a_minus_u": 0.1 * x}


class Workload:
    name = ""
    # operations per round, and the measured length of one untraced round
    # on a 2-core machine: every run does ceil(seconds / round_s) rounds
    ops_per_round = 0
    round_s = 1.0
    # fewest rounds in any run, so that the checks see enough outputs
    min_rounds = 1

    def __init__(self, bl, work: Path, seed: int, rounds: int):
        self.bl = bl
        self.work = work
        self.seed = seed
        self.rounds = rounds

    def cli(self, kind: str, config: dict, seed: int, out: str) -> bool:
        """Run one scenario through the command line; True on exit code 0."""
        path = self.work / f"{out}.json"
        if not path.exists():
            path.write_text(json.dumps(config), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.bl.cli.main([kind, str(path), "--seed", str(seed),
                                   "--out-dir", str(self.work / out), "--threads", "1"])
        return rc == 0

    def warm(self, kind: str, config: dict, out: str) -> None:
        """A small run of a scenario before timing.  Its outcome is not used:
        with one restart a fit may fail to converge, which the CLI reports."""
        with contextlib.redirect_stderr(io.StringIO()):
            self.cli(kind, config, self.seed, out)

    def fits(self):
        """(family, params, SessionData, nll) of every fit collected."""
        return []


def _read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(ln for ln in fh if not ln.startswith("#"))]
    return rows[0], rows[1:]


def _read_columns(path: Path, columns: dict[str, tuple[int, str]]) -> dict[str, np.ndarray]:
    """Named columns of a CSV, {name: (index, "b" for int8 or "d" for
    float64)}, parsed row by row into compact arrays so that no list of rows
    is held; a blank cell reads as -1."""
    cols = {k: (j, array(code), float if code == "d" else int)
            for k, (j, code) in columns.items()}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(ln for ln in fh if not ln.startswith("#"))
        next(reader)  # the header
        for row in reader:
            for j, a, conv in cols.values():
                cell = row[j]
                a.append(conv(cell) if cell != "" else -1)
    return {k: np.frombuffer(a, dtype=np.float64 if conv is float else np.int8)
            for k, (_, a, conv) in cols.items()}


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 16), b""):
                h.update(block)
    return h.hexdigest()


# -------------------------------------------------------------- fit-families

class FitFamilies(Workload):
    """The `fit` scenario, all four families, 20 restarts, on sessions CSVs
    written in set-up.  One op is one subject fitted by all four families;
    a round is one CSV of four subjects: a Bayesian (softmax, beta 10) and a
    constant-rate Q (alpha 0.3, beta 5) subject at T = 24, and one of each
    at T drawn from 90..110."""

    name = "fit-families"
    ops_per_round = 4
    round_s = 8.0
    min_rounds = 1

    def setup(self):
        bl = self.bl
        agents = {"bayes": bl.BayesAgentSpec(bl.Policy(beta=10.0)),
                  "const_q": bl.QAgentSpec(bl.LearningRateSet.constant(0.3),
                                           bl.Policy(beta=5.0))}
        self.pool = []
        for r in range(self.rounds):
            long_t = np.random.default_rng([self.seed, r]).integers(90, 111, size=2)
            layout = [("bayes", 24), ("const_q", 24),
                      ("bayes", int(long_t[0])), ("const_q", int(long_t[1]))]
            subjects = []
            for k, (kind, T) in enumerate(layout):
                env = bl.make_environment(0.5, 0.5, True, T)
                traj = bl.run_trajectory(agents[kind], env, bl.RngStream(self.seed, 4 * r + k))
                subjects.append((kind, bl.session_from_trajectory(traj, f"r{r:02d}s{k}")))
            csv_path = self.work / f"sessions-{r:02d}.csv"
            bl.write_sessions(csv_path, [s for _, s in subjects], seed=self.seed)
            self.pool.append((csv_path, subjects))
        self.collected = []
        # warm-up: one short subject, every family, through the same path
        bl.write_sessions(self.work / "warm.csv", [self.pool[0][1][0][1]])
        self.warm("fit", {"kind": "fit", "sessions": str(self.work / "warm.csv"),
                          "restarts": 1}, "warm")

    def run_round(self, r: int) -> bool:
        csv_path = self.pool[r][0]
        return self.cli("fit", {"kind": "fit", "sessions": str(csv_path),
                                "families": ["bayes", "const", "conf", "full"],
                                "restarts": 20}, self.seed, f"fit-{r:02d}")

    def collect(self, r: int) -> None:
        out = self.work / f"fit-{r:02d}" / "fits.json"
        results = json.loads(out.read_text(encoding="utf-8"))["results"]
        for kind, s in self.pool[r][1]:
            fits = {f["model"]: f for f in results if f["subject_id"] == s.subject_id}
            self.collected.append({"sid": s.subject_id, "kind": kind, "session": s,
                                   "actions": s.actions, "r_chosen": s.r_chosen,
                                   "r_unchosen": s.r_unchosen, "fits": fits})

    def check(self) -> list[str]:
        return checks.check_fit_families(self.collected)

    def fits(self):
        return [(fam, f["params"], s["session"], f["nll"])
                for s in self.collected for fam, f in s["fits"].items()]


# ------------------------------------------------------------ recover-greedy

class RecoverGreedy(Workload):
    """The `recover` scenario twice per round: greedy Bayesian agents and
    their greedy constant-rate (alpha 0.3) control, T = 24, the `full`
    family, 20 restarts, as criterion 2 runs them.  Round r uses scenario
    seed 1000 * seed + r, so seed 0 starts with criterion 2's agents.  One
    op is one agent simulated and fitted."""

    name = "recover-greedy"
    AGENTS = 2  # per ensemble and round
    ops_per_round = 2 * AGENTS
    round_s = 2.5
    min_rounds = 5  # at least 10 Bayesian agents for the majority checks
    ENV = {"p1": 0.5, "p2": 0.5, "counterfactual": True, "horizon": 24}

    def config(self, generator: str, n_agents: int, restarts: int, env=None) -> dict:
        return {"kind": "recover", "environment": env or self.ENV, "n_agents": n_agents,
                "beta_gen": 10.0, "generator": generator, "generator_alpha": 0.3,
                "policy": "greedy", "restarts": restarts}

    def setup(self):
        self.collected = []
        warm_env = {**self.ENV, "horizon": 6}
        for g in ("bayes", "const_q"):
            self.warm("recover", self.config(g, 1, 1, warm_env), f"warm-{g}")

    def round_seed(self, r: int) -> int:
        return 1000 * self.seed + r

    def run_round(self, r: int) -> bool:
        ok = True
        for g in ("bayes", "const_q"):
            ok &= self.cli("recover", self.config(g, self.AGENTS, 20),
                           self.round_seed(r), f"recover-{g}")
        return ok

    def collect(self, r: int) -> None:
        rnd = {"seed": self.round_seed(r)}
        for g in ("bayes", "const_q"):
            rnd[g] = json.loads((self.work / f"recover-{g}" / "recovery.json")
                                .read_text(encoding="utf-8"))
        self.collected.append(rnd)

    def check(self) -> list[str]:
        e = self.ENV
        return checks.check_recovery(self.collected, e["horizon"], e["p1"], e["p2"], 0.3)

    def fits(self):
        e = self.ENV
        out = []
        for rnd in self.collected:
            for g in ("bayes", "const_q"):
                for i, f in enumerate(rnd[g]["fits"]):
                    a, rc, ru = ref.greedy_session(g, rnd["seed"], i, e["horizon"],
                                                   e["p1"], e["p2"])
                    s = self.bl.SessionData(f["subject_id"], a.astype(np.int8),
                                            rc.astype(np.int8), ru.astype(np.int8), True)
                    out.append(("full", f["params"], s, f["nll"]))
        return out


# ------------------------------------------------------------ ensemble-stats

class EnsembleStats(Workload):
    """Per round: two `switch-rate` scenarios (x-curve learners at x = 1.0
    and 1.5, beta 5, p 0.5, T 100, 10,000 replicas each, as in criterion 6,
    sharing their replica streams), `ensemble_value_moments` of 20,000
    softmax Bayesian agents at T 100 and p 0.7, then `propagate` and
    `sweep-delta` over a grid where every cell has a steady state.  Every
    round repeats the same work.  One op is one replica-trial step."""

    name = "ensemble-stats"
    SWITCH_REPLICAS = 10_000
    MOMENT_REPLICAS = 20_000
    T = 100
    P_MOMENTS = 0.7
    ops_per_round = 2 * SWITCH_REPLICAS * (T + 1) + MOMENT_REPLICAS * T
    round_s = 2.2
    min_rounds = 1
    SWITCH = {"x1": 1.0, "x15": 1.5}
    PROPAGATE = {"kind": "propagate", "p": 0.5, "beta": 5.0, "n_steps": T,
                 "mode": "closure", "rates": x_curve(1.0)}
    SWEEP = {"kind": "sweep-delta", "p": 0.5, "x_grid": [1.0, 1.2, 1.4],
             "beta_grid": [1.0, 3.0, 5.0]}

    def switch_config(self, x: float, replicas: int, horizon: int) -> dict:
        return {"kind": "switch-rate",
                "environment": {"p1": 0.5, "p2": 0.5, "counterfactual": True,
                                "horizon": horizon},
                "agent": {"type": "q", "rates": x_curve(x), "beta": 5.0},
                "ensemble": {"replicas": replicas}}

    def moments(self, replicas: int, horizon: int):
        bl = self.bl
        env = bl.make_environment(self.P_MOMENTS, self.P_MOMENTS, True, horizon)
        return bl.mc.ensemble_value_moments(bl.BayesAgentSpec(bl.Policy(beta=5.0)),
                                            env, replicas, self.seed)

    def setup(self):
        self.first = None
        self.digests = []
        for tag, x in self.SWITCH.items():
            self.warm("switch-rate", self.switch_config(x, 64, 10), f"warm-{tag}")
        self.moments(64, 10)
        self.warm("propagate", {**self.PROPAGATE, "n_steps": 5}, "warm-prop")

    def run_round(self, r: int) -> bool:
        ok = True
        for tag, x in self.SWITCH.items():
            ok &= self.cli("switch-rate", self.switch_config(x, self.SWITCH_REPLICAS, self.T),
                           self.seed, f"switch-{tag}")
        self.em = self.moments(self.MOMENT_REPLICAS, self.T)
        ok &= self.cli("propagate", self.PROPAGATE, self.seed, "propagate")
        ok &= self.cli("sweep-delta", self.SWEEP, self.seed, "sweep")
        return ok

    def outputs(self):
        return [self.work / "switch-x1" / "switch_rate.csv",
                self.work / "switch-x15" / "switch_rate.csv",
                self.work / "propagate" / "moments.csv",
                self.work / "sweep" / "delta_star.csv"]

    def collect(self, r: int) -> None:
        em = {k: getattr(self.em, k) for k in
              ("mean1", "se1", "mean11", "se11", "mean12", "se12")}
        h = hashlib.sha256(_digest(self.outputs()).encode())
        for k in sorted(em):
            h.update(em[k].tobytes())
        self.digests.append(h.hexdigest())
        if self.first is not None:
            return
        series = {}
        for tag in self.SWITCH:
            header, rows = _read_csv(self.work / f"switch-{tag}" / "switch_rate.csv")
            a = np.array(rows, dtype=float)
            series[tag] = {"name": tag, **{col: a[:, j] for j, col in enumerate(header)}}
        _, prop = _read_csv(self.work / "propagate" / "moments.csv")
        _, sweep = _read_csv(self.work / "sweep" / "delta_star.csv")
        self.first = {"em": em, "series": series,
                      "propagate": [tuple(float(v) for v in row) for row in prop],
                      "sweep": [tuple(float(v) for v in row) for row in sweep]}

    def check(self) -> list[str]:
        f = self.first
        if f is None:
            return []
        alpha = x_curve(1.0)["a_plus_c"]  # every rate of the unbiased learner
        out = [f"round {i} differs from round 0" for i, d in enumerate(self.digests)
               if d != self.digests[0]]
        return (out
                + checks.check_value_moments(f["em"], self.P_MOMENTS)
                + checks.check_switch_rates(list(f["series"].values()))
                + checks.check_confirmation_below(f["series"]["x1"], f["series"]["x15"])
                + checks.check_steady_states(f["sweep"], self.SWEEP["p"], alpha)
                + checks.check_unbiased_propagation(f["propagate"], self.PROPAGATE["p"], alpha))


# ------------------------------------------------------------ simulate-write

class SimulateWrite(Workload):
    """Per round: the `simulate` scenario with sessions output at T 100, for
    an asymmetric Q-learner under counterfactual feedback and a Bayesian
    agent under partial feedback, 2,000 replicas each.  Every round
    repeats the same work.  One op is one replica-trial step simulated and
    written."""

    name = "simulate-write"
    REPLICAS = 2000
    T = 100
    ops_per_round = 2 * REPLICAS * T
    round_s = 10.0
    min_rounds = 1
    Q_RATES = {"a_plus_c": 0.3, "a_minus_c": 0.1, "a_plus_u": 0.1, "a_minus_u": 0.3}
    SPECS = {
        "sim-q": {"environment": {"p1": 0.6, "p2": 0.4, "counterfactual": True},
                  "agent": {"type": "q", "rates": Q_RATES, "beta": 5.0}},
        "sim-bayes": {"environment": {"p1": 0.6, "p2": 0.4, "counterfactual": False},
                      "agent": {"type": "bayes", "beta": 8.0}},
    }

    def config(self, tag: str, replicas: int, horizon: int) -> dict:
        spec = self.SPECS[tag]
        return {"kind": "simulate",
                "environment": {**spec["environment"], "horizon": horizon},
                "agent": spec["agent"], "ensemble": {"replicas": replicas},
                "output": {"sessions": True}}

    def setup(self):
        self.digests = []
        for tag in self.SPECS:
            self.warm("simulate", self.config(tag, 5, 10), f"warm-{tag}")

    def run_round(self, r: int) -> bool:
        ok = True
        for tag in self.SPECS:
            ok &= self.cli("simulate", self.config(tag, self.REPLICAS, self.T),
                           self.seed, tag)
        return ok

    def outputs(self):
        return [self.work / tag / f for tag in self.SPECS
                for f in ("trajectories.csv", "sessions.csv")]

    def collect(self, r: int) -> None:
        """Only a digest of each round's files: they are parsed and checked
        after the rounds (and after peak_rss_mb is read), on the files the
        last round left, so that the check's memory does not count."""
        self.digests.append(_digest(self.outputs()))

    def parse(self, tag: str) -> dict[str, np.ndarray]:
        """A scenario's CSV columns as (replicas, T) arrays when the row
        counts are right (flat otherwise; the check reports it)."""
        R, T = self.REPLICAS, self.T
        sim = _read_columns(self.work / tag / "trajectories.csv",
                            {"action": (2, "b"), "r_chosen": (3, "b"),
                             "r_unchosen": (4, "b"), "q1": (5, "d"), "q2": (6, "d")})
        sess = _read_columns(self.work / tag / "sessions.csv",
                             {"action": (2, "b"), "r_chosen": (3, "b"), "r_unchosen": (4, "b")})
        sim.update({"s_" + k: v for k, v in sess.items()})
        if all(v.size == R * T for v in sim.values()):
            sim = {k: v.reshape(R, T) for k, v in sim.items()}
        return sim

    def check_tag(self, tag: str, sim: dict[str, np.ndarray]) -> list[str]:
        spec = self.SPECS[tag]
        env = spec["environment"]
        rates = (tuple(spec["agent"]["rates"][k] for k in checks.RATE_NAMES)
                 if spec["agent"]["type"] == "q" else None)
        return checks.check_simulation(sim, {
            "name": tag, "replicas": self.REPLICAS, "horizon": self.T,
            "p1": env["p1"], "p2": env["p2"],
            "counterfactual": env["counterfactual"], "rates": rates})

    def check(self) -> list[str]:
        if not self.digests:
            return []
        # the files on disk now stand for every round if all digests agree
        digests = self.digests + [_digest(self.outputs())]
        return ([f"round {i} differs from round 0" for i, d in enumerate(digests)
                 if d != digests[0]]
                + [p for tag in self.SPECS for p in self.check_tag(tag, self.parse(tag))])


WORKLOADS = {w.name: w for w in (FitFamilies, RecoverGreedy, EnsembleStats, SimulateWrite)}
