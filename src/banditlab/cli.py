"""Command-line front end: declarative scenario configs in, plot-ready CSV/JSON out.

Each run reads one JSON config describing a scenario, writes its data
artifacts plus a manifest into the output directory, and is
reproducible: identical config and seed give byte-identical data files
(the manifest's timestamps are the only thing that varies).  CSVs are
written by ``sessions.write_csv``; JSON records are the results'
dataclasses.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
# run_trajectory is the scalar reference the chunk engine reproduces; it stays
# importable here because bench/tracing.py wraps it under this module's name
from .agents import (RATE_NAMES, BayesAgentSpec, BayesSchedule, LearningRateSet,  # noqa: F401
                     Policy, QAgentSpec, StepSchedule, run_trajectory)
from .env import Environment, is_integer
from .fitting import (BETA_MAX, MAX_RESTARTS, MODEL_FAMILIES, best_model,
                      fit_families, fit_subject, new_arm_curve, recover_bias)
from .moments import (ConvergenceError, MomentState, propagate_moments, steady_state_delta,
                      x_curve_rates)
from .sessions import (csv_writer, iter_session_blocks, read_sessions, row_blocks, write_csv,
                       write_sessions)
from .switching import ensemble_switch_rate

OUT_DIR_ENV = "BANDITLAB_OUT_DIR"


class ConfigError(Exception):
    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


@dataclass
class RunManifest:
    """What a run wrote, one ``{"path", "rows"}`` object per file, and what
    failed to converge: fits as ``subject/family``, grid cells as
    ``x=X/beta=B``.  Runs that fit carry fit counters; runs that simulate
    count their replica-steps.  ``timings`` holds wall-clock seconds:
    ``run_s`` for the handler and its shares, ``simulate_s``, ``read_s``,
    ``fit_s``, ``recover_s`` and ``write_s``."""

    config_hash: str
    tool_version: str
    seed: int
    started_at: str
    finished_at: str
    files: list
    counters: Optional[dict] = None
    not_converged: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if not (k == "counters" and v is None)}


def _fit_health(fits) -> dict:
    """The manifest's counters, summed over a run's fits, and its failed fits."""
    return {"counters": {"objective_evals": sum(f.n_evals for f in fits),
                         "fits": len(fits),
                         "fits_not_converged": sum(not f.converged for f in fits),
                         "fits_clamped": sum(f.clamped for f in fits),
                         "fits_beta_at_cap": sum(f.params["beta"] >= BETA_MAX
                                                 for f in fits)},
            "not_converged": [f"{f.subject_id}/{f.model}" for f in fits if not f.converged]}


def _first(*values):
    """The first value that is not None: the precedence of seeds and directories."""
    return next(v for v in values if v is not None)


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------- validation
#
# A rule is a (test, description) pair, or a nested table for a JSON object.
# A table maps each key to (rule, default); REQUIRED marks a key with no
# default.  JSON null counts as absent.

REQUIRED = object()


def _is_num(v) -> bool:
    # json.load accepts NaN, Infinity and integers too large for a float
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _one_of(*choices):
    return (lambda v: v in choices), f"one of {', '.join(map(repr, choices))}"


def _grid(lo, hi, what):
    return (lambda v: isinstance(v, list) and bool(v)
            and all(_is_num(x) and lo <= x <= hi for x in v)), f"a nonempty list of {what}"


_OBJECT = (lambda v: isinstance(v, dict)), "an object"
_PROB = (lambda v: _is_num(v) and 0.0 <= v <= 1.0), "a probability in [0, 1]"
_NONNEG = (lambda v: _is_num(v) and v >= 0), "a nonnegative number"
_POS_INT = (lambda v: is_integer(v) and v >= 1), "a positive integer"
# a standard error needs two draws
_REPS = (lambda v: is_integer(v) and v >= 2), "an integer of at least 2"
_NAT = (lambda v: is_integer(v) and v >= 0), "a nonnegative integer"
_BOOL = (lambda v: isinstance(v, bool)), "true or false"
_STR = (lambda v: isinstance(v, str)), "a string"
_FAMILIES = ((lambda v: isinstance(v, list) and bool(v)
              and all(isinstance(f, str) and f in MODEL_FAMILIES for f in v)
              and len(set(v)) == len(v)),
             f"a nonempty list of distinct families from {sorted(MODEL_FAMILIES)}")

_POLICY = (_one_of("softmax", "greedy"), "softmax")
# a fit's restart points are Sobol' points, of which there are 2**30
_RESTARTS = (((lambda v: is_integer(v) and 1 <= v <= MAX_RESTARTS),
              "an integer from 1 to 2**30"), 20)
_RATES = ({k: (_PROB, REQUIRED) for k in RATE_NAMES}, None)
_SCHEDULE = ({"kind": (_one_of("step", "bayes"), REQUIRED), "alpha1": (_PROB, None),
              "alpha2": (_PROB, None), "tau_c": (_NAT, None)}, None)
_ENV = ({"p1": (_PROB, REQUIRED), "p2": (_PROB, REQUIRED),
         "counterfactual": (_BOOL, REQUIRED), "horizon": (_POS_INT, REQUIRED)}, REQUIRED)
_ENSEMBLE_RUN = {"environment": _ENV,
                 "agent": ({"type": (_one_of("q", "bayes"), REQUIRED),
                            "beta": (_NONNEG, REQUIRED), "policy": _POLICY,
                            "rates": _RATES, "schedule": _SCHEDULE}, REQUIRED),
                 "ensemble": ({"replicas": (_POS_INT, REQUIRED)}, REQUIRED)}
_OUTPUT = {"directory": (_STR, None)}
_COMMON = {"seed": (_NAT, 0), "output": (_OUTPUT, {})}

SCHEMA = {kind: {**_COMMON, **table} for kind, table in {
    # only simulate writes sessions.csv, so only it reads output.sessions
    "simulate": {**_ENSEMBLE_RUN, "output": ({**_OUTPUT, "sessions": (_BOOL, False)}, {})},
    "propagate": {"p": (_PROB, REQUIRED), "beta": (_NONNEG, REQUIRED),
                  "n_steps": (_POS_INT, REQUIRED),
                  # configs send "closure", its one value; for "exact-unbiased",
                  # the exact Bayesian recursion, give {"schedule": {"kind": "bayes"}}
                  "mode": (_one_of("closure"), "closure"),
                  "rates": _RATES, "schedule": _SCHEDULE},
    "sweep-delta": {"p": (_PROB, REQUIRED),
                    "x_grid": (_grid(0.0, 2.0, "numbers in [0, 2]"), REQUIRED),
                    "beta_grid": (_grid(0.0, math.inf, "nonnegative numbers"), REQUIRED)},
    "switch-rate": _ENSEMBLE_RUN,
    "fit": {"sessions": (_STR, REQUIRED), "families": (_FAMILIES, list(MODEL_FAMILIES)),
            "restarts": _RESTARTS},
    "recover": {"environment": _ENV, "n_agents": (_POS_INT, REQUIRED),
                "beta_gen": (_NONNEG, REQUIRED),
                "generator": (_one_of("bayes", "const_q"), "bayes"),
                "generator_alpha": (_PROB, 0.3), "policy": _POLICY, "restarts": _RESTARTS},
    "new-arm": {"sessions": (_STR, REQUIRED), "subject": (_STR, None),
                "q_family": (_one_of(*(name for name, fam in MODEL_FAMILIES.items()
                                       if fam.rate_columns is not None)), "full"),
                "p3_grid": (_grid(0.0, 1.0, "probabilities"), REQUIRED),
                "n3": (_POS_INT, 24), "reps": (_REPS, 10_000), "restarts": _RESTARTS},
}.items()}
KINDS = tuple(SCHEMA)


def _walk(table, cfg: dict, diags: list, path: str = "") -> dict:
    """The keys of ``table`` from ``cfg``, with defaults filled in; a value
    that breaks its rule becomes None and adds one diagnostic, and so does
    each key of ``cfg`` outside ``table``, which nothing would read."""
    diags.extend(f"{path}{key}: unknown key" for key in cfg if key not in table)
    out = {}
    for key, (rule, default) in table.items():
        where, v = path + key, cfg.get(key)
        test, what = _OBJECT if isinstance(rule, dict) else rule
        if v is None:
            v = default
        if v is REQUIRED:
            diags.append(f"{where}: required, must be {what}")
            v = None
        elif v is not None and not test(v):
            diags.append(f"{where}: must be {what}, got {v!r}")
            v = None
        elif v is not None and isinstance(rule, dict):
            v = _walk(rule, v, diags, where + ".")
        out[key] = v
    return out


def check_config(cfg) -> tuple[Optional[dict], list[str]]:
    """``cfg`` checked against its kind's table and the cross-field rules:
    the config with every default filled in (None if its kind is unknown)
    and one diagnostic per problem."""
    if not isinstance(cfg, dict):
        return None, ["config: top level must be a JSON object"]
    kind = cfg.get("kind")
    if kind not in KINDS:
        return None, [f"kind: must be one of {', '.join(KINDS)}; got {kind!r}"]
    diags: list[str] = []
    c = {"kind": kind, **_walk(SCHEMA[kind], {k: v for k, v in cfg.items() if k != "kind"},
                               diags)}
    env, agent = c.get("environment") or {}, c.get("agent") or {}
    # a Q-agent and a closure learn at constant rates or on a schedule
    for where, block, learns, what in (("agent.", agent, agent.get("type") == "q", "type 'q'"),
                                       ("", c, c.get("mode") == "closure", "closure mode")):
        if learns and (block["rates"] is None) == (block["schedule"] is None):
            diags.append(f"{where}rates, {where}schedule: {what} needs exactly one, got "
                         + ("both" if block["rates"] else "neither"))
    if agent.get("type") == "bayes":
        diags.extend(f"agent.{k}: type 'bayes' learns from its counts, not from {k}"
                     for k in ("rates", "schedule") if agent[k] is not None)
    for where, sched in (("agent.schedule", agent.get("schedule")),
                         ("schedule", c.get("schedule"))):
        if not sched:
            continue
        given = [k for k in ("alpha1", "alpha2", "tau_c") if sched[k] is not None]
        if sched["kind"] == "step" and len(given) < 3:
            diags.append(f"{where}: a step schedule needs alpha1, alpha2 and tau_c")
        if sched["kind"] == "bayes":
            diags.extend(f"{where}.{k}: a bayes schedule's rates are 1/(t+3); it reads no {k}"
                         for k in given)
    if env.get("counterfactual") is False:
        for k in ("a_plus_u", "a_minus_u"):
            if (agent.get("rates") or {}).get(k):
                diags.append(f"agent.rates.{k}: must be 0 when environment.counterfactual "
                             "is false — there is no unchosen-arm feedback to learn from")
        if kind == "recover":
            diags.append("environment.counterfactual: bias recovery requires "
                         "counterfactual feedback")
    return c, diags


def read_config(path):
    """The parsed JSON of the config file at ``path``; OSError if it cannot
    be read, ConfigError if it is not UTF-8 JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise OSError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError([f"config: not valid JSON (line {e.lineno}, column {e.colno}: "
                           f"{e.msg})"]) from e
    except UnicodeDecodeError as e:
        raise ConfigError([f"config: not UTF-8 text (byte {e.start}: {e.reason})"]) from e


def validate_config(path) -> list[str]:
    """One diagnostic per problem in the config file at ``path``."""
    try:
        return check_config(read_config(path))[1]
    except ConfigError as e:
        return e.diagnostics


# ------------------------------------------------------------------ builders

def _rates_from_cfg(block):
    """The rates a checked block gives: its schedule, or its constant rate set."""
    sched = block["schedule"]
    if sched is None:
        return LearningRateSet(*(block["rates"][k] for k in RATE_NAMES))
    if sched["kind"] == "step":
        return StepSchedule(sched["alpha1"], sched["alpha2"], int(sched["tau_c"]))
    return BayesSchedule()


def _agent_from_cfg(agent):
    policy = Policy(beta=agent["beta"], mode=agent["policy"])
    if agent["type"] == "bayes":
        return BayesAgentSpec(policy)
    return QAgentSpec(_rates_from_cfg(agent), policy)


def _env_from_cfg(env) -> Environment:
    return Environment(p1=env["p1"], p2=env["p2"],
                       counterfactual=env["counterfactual"],
                       horizon=env["horizon"])


# ------------------------------------------------------------------- writers

def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ------------------------------------------------------------------ handlers

def _timed(items, timings: dict, key: str):
    """Yield from ``items``, adding the time spent producing each to ``timings[key]``."""
    it = iter(items)
    while True:
        t0 = time.perf_counter()
        item = next(it, None)
        timings[key] += time.perf_counter() - t0
        if item is None:
            return
        yield item


def _run_simulate(cfg, seed: int, out_dir: Path, threads: int):
    env = _env_from_cfg(cfg["environment"])
    agent = _agent_from_cfg(cfg["agent"])
    replicas = cfg["ensemble"]["replicas"]
    timings = {"simulate_s": 0.0}
    t0 = time.perf_counter()
    with csv_writer(out_dir / "trajectories.csv", ["replica", "t", "action", "r_chosen",
                                                   "r_unchosen", "q1", "q2"], seed) as write:
        def sessions():
            # each block goes to trajectories.csv as it is simulated and to
            # sessions.csv as write_sessions pulls it, so no run is held whole
            T = env.horizon
            for first, traj, block in _timed(iter_session_blocks(agent, env, replicas, seed),
                                             timings, "simulate_s"):
                n = len(block)
                ru = traj.reward_unchosen().ravel() if env.counterfactual else [""] * (n * T)
                write((np.repeat(np.arange(first, first + n), T), np.tile(np.arange(T), n),
                       traj.actions.ravel(), traj.reward_chosen().ravel(), ru,
                       traj.values1[:, :-1].ravel(), traj.values2[:, :-1].ravel()))
                yield from block

        files = [("trajectories.csv", replicas * env.horizon)]
        if cfg["output"]["sessions"]:
            files.append(("sessions.csv",
                          write_sessions(out_dir / "sessions.csv", sessions(), seed=seed)))
        else:
            for _ in sessions():
                pass
    timings["write_s"] = time.perf_counter() - t0 - timings["simulate_s"]
    return files, {"counters": {"replica_steps": replicas * env.horizon},
                   "timings": timings}


def _run_propagate(cfg, seed: int, out_dir: Path, threads: int):
    series = propagate_moments(MomentState.point_mass(0.5), _rates_from_cfg(cfg), cfg["p"],
                               cfg["beta"], cfg["n_steps"])
    columns = (list(range(len(series))), [m.m1 for m in series], [m.m11 for m in series],
               [m.m12 for m in series], [m.delta for m in series])
    n = write_csv(out_dir / "moments.csv", ["t", "m1", "m11", "m12", "delta"], [columns], seed)
    return [("moments.csv", n)], {}


def _run_sweep_delta(cfg, seed: int, out_dir: Path, threads: int):
    p = cfg["p"]
    rows, failed = [], []
    for x in cfg["x_grid"]:
        rates = x_curve_rates(x)
        for beta in cfg["beta_grid"]:
            try:
                rows.append((x, beta, p, steady_state_delta(rates, p, beta)))
            except ConvergenceError:  # no steady state: a blank cell
                rows.append((x, beta, p, ""))
                failed.append(f"x={x}/beta={beta}")
    # a grid value may be an int or a float, and a cell may be blank
    n = write_csv(out_dir / "delta_star.csv", ["x", "beta", "p", "delta_star"],
                  row_blocks(rows), seed)
    return [("delta_star.csv", n)], {"not_converged": failed}


def _run_switch_rate(cfg, seed: int, out_dir: Path, threads: int):
    env = _env_from_cfg(cfg["environment"])
    agent = _agent_from_cfg(cfg["agent"])
    replicas = cfg["ensemble"]["replicas"]
    series = ensemble_switch_rate(agent, env, replicas, seed)
    columns = (series.t, series.analytic_mean, series.analytic_se,
               series.empirical_mean, series.empirical_se)
    n = write_csv(out_dir / "switch_rate.csv",
                  ["t", "analytic_mean", "analytic_se", "empirical_mean", "empirical_se"],
                  [columns], seed)
    # the switching ensemble runs one trial past the horizon
    steps = replicas * (env.horizon + 1)
    return [("switch_rate.csv", n)], {"counters": {"replica_steps": steps}}


def _fit_job(args):
    sessions, families, restarts, seed, stream_base = args
    batch = fit_families(sessions, families, restarts=restarts, seed=seed,
                         stream_index=stream_base)
    return [fits[fam] for fits in batch for fam in families]


def _run_fit(cfg, seed: int, out_dir: Path, threads: int):
    t0 = time.perf_counter()
    sessions = read_sessions(cfg["sessions"])
    t1 = time.perf_counter()
    families, restarts = cfg["families"], cfg["restarts"]
    # each worker fits a contiguous share of the subjects as one batch;
    # subject i keeps restart streams 4 i + k whatever the share
    shares = [ix for ix in np.array_split(np.arange(len(sessions)), threads)
              if ix.size]
    jobs = [(sessions[ix[0]:ix[-1] + 1], families, restarts, seed,
             int(ix[0]) * len(MODEL_FAMILIES)) for ix in shares]
    if len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            per_share = list(pool.map(_fit_job, jobs))
    else:
        per_share = [_fit_job(j) for j in jobs]
    results = [f for fits in per_share for f in fits]
    t2 = time.perf_counter()

    by_subject: dict[str, list] = {}
    for f in results:
        by_subject.setdefault(f.subject_id, []).append(f)
    best = ({sid: best_model(fits) for sid, fits in by_subject.items()}
            if len(families) > 1 else {})
    _write_json(out_dir / "fits.json",
                {"seed": seed, "results": [asdict(f) for f in results],
                 "best": best})

    summary = []
    for fam in families:
        fam_fits = [f for f in results if f.model == fam]
        summary.append((fam, len(fam_fits),
                        float(np.mean([f.nll for f in fam_fits])),
                        float(np.mean([f.bic for f in fam_fits])),
                        sum(1 for b in best.values() if b == fam)))
    n = write_csv(out_dir / "fit_summary.csv",
                  ["model", "n_subjects", "mean_nll", "mean_bic", "n_best"],
                  [list(zip(*summary))], seed)
    timings = {"read_s": t1 - t0, "fit_s": t2 - t1, "write_s": time.perf_counter() - t2}
    return [("fits.json", len(results)), ("fit_summary.csv", n)], {
        **_fit_health(results), "timings": timings}


def _run_recover(cfg, seed: int, out_dir: Path, threads: int):
    env = _env_from_cfg(cfg["environment"])
    policy = Policy(beta=cfg["beta_gen"], mode=cfg["policy"])
    # a Bayesian agent, or the matched control: a constant-rate Q-learner
    agent = (BayesAgentSpec(policy) if cfg["generator"] == "bayes"
             else QAgentSpec(LearningRateSet.constant(cfg["generator_alpha"]), policy))
    t0 = time.perf_counter()
    report = recover_bias(agent, env, cfg["n_agents"], seed=seed, restarts=cfg["restarts"])
    t1 = time.perf_counter()
    _write_json(out_dir / "recovery.json",
                {"seed": seed, "generator": cfg["generator"], "beta_gen": cfg["beta_gen"],
                 "policy_mode": cfg["policy"], **asdict(report)})
    timings = {"recover_s": t1 - t0, "write_s": time.perf_counter() - t1}
    return [("recovery.json", report.n_agents)], {**_fit_health(report.fits),
                                                  "timings": timings}


def _run_new_arm(cfg, seed: int, out_dir: Path, threads: int):
    sessions = read_sessions(cfg["sessions"])
    subject = cfg["subject"]
    if subject is None:
        session = sessions[0]
    else:
        match = [s for s in sessions if s.subject_id == subject]
        if not match:
            raise ValueError(f"subject {subject!r} not found in {cfg['sessions']}")
        session = match[0]
    fits = [fit_subject(family, session, restarts=cfg["restarts"], seed=seed, stream_index=k)
            for k, family in enumerate(("bayes", cfg["q_family"]))]
    fit_b, fit_q = fits
    curve = new_arm_curve(fit_b, fit_q, session, cfg["p3_grid"], n3=cfg["n3"],
                          reps=cfg["reps"], seed=seed)
    _write_json(out_dir / "new_arm_fits.json",
                {"seed": seed, "fits": [asdict(fit_b), asdict(fit_q)]})
    n = write_csv(out_dir / "new_arm.csv", ["model", "p3", "choice_prob", "stderr"],
                  [list(zip(*curve))], seed)
    return [("new_arm_fits.json", 2), ("new_arm.csv", n)], _fit_health(fits)


_HANDLERS = {"simulate": _run_simulate, "propagate": _run_propagate,
             "sweep-delta": _run_sweep_delta, "switch-rate": _run_switch_rate,
             "fit": _run_fit, "recover": _run_recover, "new-arm": _run_new_arm}


def run_scenario(config, seed: Optional[int] = None,
                 out_dir: Optional[str] = None, threads: int = 1) -> RunManifest:
    """Validate, dispatch and write artifacts plus a manifest; returns it.

    ``config`` is the path of a JSON config file or its parsed content;
    ``threads`` below 1 is a ConfigError, raised before anything is read."""
    if threads < 1:
        # main prints it as it printed its own check: same text, exit status 2
        raise ConfigError([f"error: --threads must be at least 1, got {threads}"])
    raw = config if isinstance(config, dict) else read_config(config)
    cfg, diags = check_config(raw)
    if diags:
        raise ConfigError(diags)
    seed = _first(seed, cfg["seed"])
    out = Path(_first(out_dir, cfg["output"]["directory"],
                      os.environ.get(OUT_DIR_ENV), "out"))
    out.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    files, health = _HANDLERS[cfg["kind"]](cfg, seed, out, threads)
    timings = {"run_s": time.perf_counter() - t0, **health.pop("timings", {})}
    finished = datetime.now(timezone.utc).isoformat()
    manifest = RunManifest(config_hash=config_hash(raw), tool_version=__version__,
                           seed=seed, started_at=started, finished_at=finished,
                           files=[{"path": p, "rows": r} for p, r in files],
                           timings=timings, **health)
    _write_json(out / "manifest.json", manifest.to_dict())
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="banditlab",
        description="Simulate bandit learners, propagate their moment dynamics, "
                    "and fit choice models to session data.")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS + ("validate",):
        p = sub.add_parser(kind, help=f"run a {kind} scenario" if kind in KINDS
                           else "check a config without running it")
        p.add_argument("config", help="path to a JSON scenario config")
        if kind != "validate":
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
            p.add_argument("--out-dir", default=None,
                           help=f"output directory (default: config, then "
                                f"${OUT_DIR_ENV}, then ./out)")
            p.add_argument("--threads", type=int, default=1,
                           help="worker processes for fit, each fitting a "
                                "contiguous share of the subjects")
    args = parser.parse_args(argv)

    if args.command == "validate":
        try:
            diags = validate_config(args.config)
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        for d in diags:
            print(d)
        if not diags:
            print("ok")
        return 0 if not diags else 2

    try:
        raw = read_config(args.config)
        declared = raw.get("kind") if isinstance(raw, dict) else None
        if declared != args.command:
            print(f"error: config declares kind {declared!r} but the "
                  f"{args.command!r} subcommand was invoked", file=sys.stderr)
            return 2
        manifest = run_scenario(raw, seed=args.seed,
                                out_dir=args.out_dir, threads=args.threads)
    except ConfigError as e:
        for d in e.diagnostics:
            print(d, file=sys.stderr)
        return 2
    except Exception as e:  # an unreadable config or a module error, with context
        print(f"error: {args.command} failed: {e}", file=sys.stderr)
        return 1
    for f in manifest.files:
        print(f"wrote {f['path']} ({f['rows']} rows)")
    if manifest.not_converged:
        print(f"error: {len(manifest.not_converged)} result(s) did not converge: "
              f"{', '.join(manifest.not_converged)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
