"""Command-line front end: declarative scenario configs in, plot-ready CSV/JSON out.

Each run reads one JSON config describing a scenario, writes its data
artifacts plus a manifest into the output directory, and is
reproducible: identical config and seed give byte-identical data files
(the manifest's timestamps are the only thing that varies).  Floats are
written with 17 significant digits so the CSVs round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .agents import (BayesAgentSpec, BayesSchedule, LearningRateSet, Policy,
                     QAgentSpec, StepSchedule, run_trajectory)
from .env import Environment, RngStream
from .fitting import (BETA_MAX, MODEL_FAMILIES, best_model, fit_families, fit_subject,
                      new_arm_curve, recover_bias)
from .moments import (MomentState, propagate_moments, propagate_moments_bayes,
                      steady_state_delta, x_curve_rates)
from .sessions import read_sessions, session_from_trajectory, write_sessions
from .switching import ensemble_switch_rate

KINDS = ("simulate", "propagate", "sweep-delta", "switch-rate", "fit",
         "recover", "new-arm")
OUT_DIR_ENV = "BANDITLAB_OUT_DIR"
RATE_NAMES = ("a_plus_c", "a_minus_c", "a_plus_u", "a_minus_u")


class ConfigError(Exception):
    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


@dataclass
class RunManifest:
    """What a run wrote.  Runs that fit also carry fit counters and the
    fits (``subject/family``) with no converged restart."""

    config_hash: str
    tool_version: str
    seed: int
    started_at: str
    finished_at: str
    files: list
    counters: Optional[dict] = None
    not_converged: list = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {"config_hash": self.config_hash, "tool_version": self.tool_version,
               "seed": self.seed, "started_at": self.started_at,
               "finished_at": self.finished_at,
               "files": [{"path": p, "rows": r} for p, r in self.files]}
        if self.counters is not None:
            out["counters"] = dict(self.counters)
            out["not_converged"] = list(self.not_converged)
        return out


def _fit_counters(fits) -> dict:
    """Objective evaluations and fit health summed over a run's fits."""
    return {"objective_evals": sum(f.n_evals for f in fits),
            "fits": len(fits),
            "fits_not_converged": sum(not f.converged for f in fits),
            "fits_clamped": sum(f.clamped for f in fits),
            "fits_beta_at_cap": sum(f.params["beta"] >= BETA_MAX for f in fits)}


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------- validation

def _is_num(v) -> bool:
    # json.load accepts NaN, Infinity and integers too large for a float
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _check_prob(diags, cfg, key, path):
    v = cfg.get(key)
    if not _is_num(v) or not 0.0 <= v <= 1.0:
        diags.append(f"{path}: must be a probability in [0, 1], got {v!r}")


def _check_env(diags, env, path="environment"):
    if not isinstance(env, dict):
        diags.append(f"{path}: missing or not an object")
        return
    _check_prob(diags, env, "p1", f"{path}.p1")
    _check_prob(diags, env, "p2", f"{path}.p2")
    if not isinstance(env.get("counterfactual"), bool):
        diags.append(f"{path}.counterfactual: must be true or false")
    h = env.get("horizon")
    if not isinstance(h, int) or isinstance(h, bool) or h < 1:
        diags.append(f"{path}.horizon: must be a positive integer, got {h!r}")


def _check_schedule(diags, sched, path):
    if sched is None:
        return
    if not isinstance(sched, dict) or sched.get("kind") not in ("step", "bayes"):
        diags.append(f"{path}.kind: must be 'step' or 'bayes'")
        return
    if sched["kind"] == "step":
        for k in ("alpha1", "alpha2"):
            _check_prob(diags, sched, k, f"{path}.{k}")
        tc = sched.get("tau_c")
        if not isinstance(tc, int) or isinstance(tc, bool) or tc < 0:
            diags.append(f"{path}.tau_c: must be a nonnegative integer, got {tc!r}")


def _check_agent(diags, agent, env, path="agent"):
    if not isinstance(agent, dict):
        diags.append(f"{path}: missing or not an object")
        return
    typ = agent.get("type")
    if typ not in ("q", "bayes"):
        diags.append(f"{path}.type: must be 'q' or 'bayes', got {typ!r}")
        return
    b = agent.get("beta")
    if not _is_num(b) or b < 0:
        diags.append(f"{path}.beta: must be a nonnegative number, got {b!r}")
    if agent.get("policy", "softmax") not in ("softmax", "greedy"):
        diags.append(f"{path}.policy: must be 'softmax' or 'greedy'")
    if typ == "bayes":
        return
    rates = agent.get("rates")
    if not isinstance(rates, dict):
        diags.append(f"{path}.rates: required for type 'q'")
        return
    for k in RATE_NAMES:
        _check_prob(diags, rates, k, f"{path}.rates.{k}")
    _check_schedule(diags, agent.get("schedule"), f"{path}.schedule")
    if isinstance(env, dict) and env.get("counterfactual") is False:
        for k in ("a_plus_u", "a_minus_u"):
            v = rates.get(k)
            if _is_num(v) and v != 0.0:
                diags.append(f"{path}.rates.{k}: must be 0 when "
                             "environment.counterfactual is false — there is no "
                             "unchosen-arm feedback to learn from")


def _check_ensemble(diags, ens, path="ensemble"):
    if not isinstance(ens, dict):
        diags.append(f"{path}: missing or not an object")
        return
    r = ens.get("replicas")
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        diags.append(f"{path}.replicas: must be a positive integer, got {r!r}")
    s = ens.get("seed")
    if s is not None and (not isinstance(s, int) or isinstance(s, bool) or s < 0):
        diags.append(f"{path}.seed: must be a nonnegative integer, got {s!r}")


def _check_grid(diags, cfg, key, path, lo=None, hi=None):
    g = cfg.get(key)
    if not isinstance(g, list) or not g or not all(_is_num(v) for v in g):
        diags.append(f"{path}: must be a nonempty list of numbers")
        return
    for v in g:
        if (lo is not None and v < lo) or (hi is not None and v > hi):
            diags.append(f"{path}: value {v!r} outside [{lo}, {hi}]")


def _check_pos_int(diags, cfg, key, path, default_ok=True):
    v = cfg.get(key)
    if v is None and default_ok:
        return
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        diags.append(f"{path}: must be a positive integer, got {v!r}")


def validate_config_data(cfg) -> list[str]:
    """Schema and cross-field checks; returns a list of diagnostics."""
    diags: list[str] = []
    if not isinstance(cfg, dict):
        return ["config: top level must be a JSON object"]
    kind = cfg.get("kind")
    if kind not in KINDS:
        return [f"kind: must be one of {', '.join(KINDS)}; got {kind!r}"]
    out = cfg.get("output")
    if out is not None:
        if not isinstance(out, dict):
            diags.append("output: must be an object")
        elif "directory" in out and not isinstance(out["directory"], str):
            diags.append("output.directory: must be a string")

    if kind in ("simulate", "switch-rate"):
        _check_env(diags, cfg.get("environment"))
        _check_agent(diags, cfg.get("agent"), cfg.get("environment"))
        _check_ensemble(diags, cfg.get("ensemble"))
        if kind == "switch-rate" and isinstance(cfg.get("agent"), dict) \
                and cfg["agent"].get("policy") == "greedy":
            diags.append("agent.policy: switching series requires a softmax policy")
    elif kind == "propagate":
        _check_prob(diags, cfg, "p", "p")
        b = cfg.get("beta")
        if not _is_num(b) or b < 0:
            diags.append(f"beta: must be a nonnegative number, got {b!r}")
        _check_pos_int(diags, cfg, "n_steps", "n_steps", default_ok=False)
        mode = cfg.get("mode", "closure")
        if mode not in ("closure", "exact-unbiased"):
            diags.append("mode: must be 'closure' or 'exact-unbiased'")
        if mode == "closure":
            rates = cfg.get("rates")
            if not isinstance(rates, dict):
                diags.append("rates: required for closure mode")
            else:
                for k in RATE_NAMES:
                    _check_prob(diags, rates, k, f"rates.{k}")
            _check_schedule(diags, cfg.get("schedule"), "schedule")
    elif kind == "sweep-delta":
        _check_prob(diags, cfg, "p", "p")
        _check_grid(diags, cfg, "x_grid", "x_grid", lo=0.0, hi=2.0)
        _check_grid(diags, cfg, "beta_grid", "beta_grid", lo=0.0)
    elif kind == "fit":
        if not isinstance(cfg.get("sessions"), str):
            diags.append("sessions: must be a path string")
        fams = cfg.get("families", list(MODEL_FAMILIES))
        if not isinstance(fams, list) or not fams \
                or not all(f in MODEL_FAMILIES for f in fams):
            diags.append(f"families: must be a nonempty subset of "
                         f"{sorted(MODEL_FAMILIES)}")
        _check_pos_int(diags, cfg, "restarts", "restarts")
    elif kind == "recover":
        _check_env(diags, cfg.get("environment"))
        env = cfg.get("environment")
        if isinstance(env, dict) and env.get("counterfactual") is False:
            diags.append("environment.counterfactual: bias recovery requires "
                         "counterfactual feedback")
        _check_pos_int(diags, cfg, "n_agents", "n_agents", default_ok=False)
        bg = cfg.get("beta_gen")
        if not _is_num(bg) or bg < 0:
            diags.append(f"beta_gen: must be a nonnegative number, got {bg!r}")
        if cfg.get("generator", "bayes") not in ("bayes", "const_q"):
            diags.append("generator: must be 'bayes' or 'const_q'")
        ga = cfg.get("generator_alpha")
        if ga is not None:
            _check_prob(diags, cfg, "generator_alpha", "generator_alpha")
        if cfg.get("policy", "softmax") not in ("softmax", "greedy"):
            diags.append("policy: must be 'softmax' or 'greedy'")
        _check_pos_int(diags, cfg, "restarts", "restarts")
    elif kind == "new-arm":
        if not isinstance(cfg.get("sessions"), str):
            diags.append("sessions: must be a path string")
        if cfg.get("q_family", "full") not in ("const", "conf", "full"):
            diags.append("q_family: must be 'const', 'conf' or 'full'")
        _check_grid(diags, cfg, "p3_grid", "p3_grid", lo=0.0, hi=1.0)
        _check_pos_int(diags, cfg, "n3", "n3")
        _check_pos_int(diags, cfg, "reps", "reps")
        _check_pos_int(diags, cfg, "restarts", "restarts")
        if "subject" in cfg and not isinstance(cfg["subject"], str):
            diags.append("subject: must be a subject id string")

    s = cfg.get("seed")
    if s is not None and (not isinstance(s, int) or isinstance(s, bool) or s < 0):
        diags.append(f"seed: must be a nonnegative integer, got {s!r}")
    return diags


def validate_config(path) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise OSError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        return [f"config: not valid JSON (line {e.lineno}, column {e.colno}: {e.msg})"]
    return validate_config_data(cfg)


# ------------------------------------------------------------------ builders

def _schedule_from_cfg(sched):
    if sched is None:
        return None
    if sched["kind"] == "step":
        return StepSchedule(sched["alpha1"], sched["alpha2"], int(sched["tau_c"]))
    return BayesSchedule()


def _rates_from_cfg(rates, schedule=None) -> LearningRateSet:
    return LearningRateSet(rates["a_plus_c"], rates["a_minus_c"],
                           rates["a_plus_u"], rates["a_minus_u"],
                           schedule=schedule)


def _agent_from_cfg(agent):
    policy = Policy(beta=agent["beta"], mode=agent.get("policy", "softmax"))
    if agent["type"] == "bayes":
        return BayesAgentSpec(policy)
    sched = _schedule_from_cfg(agent.get("schedule"))
    return QAgentSpec(_rates_from_cfg(agent["rates"], sched), policy)


def _env_from_cfg(env) -> Environment:
    return Environment(p1=env["p1"], p2=env["p2"],
                       counterfactual=env["counterfactual"],
                       horizon=env["horizon"])


# ------------------------------------------------------------------- writers

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _write_csv(path, seed: int, header, rows) -> int:
    """Write any iterable of rows; returns how many it wrote."""
    n = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# seed={seed}\n")
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
            n += 1
    return n


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ------------------------------------------------------------------ handlers

def _run_simulate(cfg, seed: int, out_dir: Path, threads: int):
    env = _env_from_cfg(cfg["environment"])
    agent = _agent_from_cfg(cfg["agent"])
    replicas = cfg["ensemble"]["replicas"]
    sessions = []
    want_sessions = bool(cfg.get("output", {}).get("sessions", False))

    def rows():
        # one replica at a time, so no more than one trajectory is held
        for r in range(replicas):
            traj = run_trajectory(agent, env, RngStream(seed, r))
            yield from traj.csv_rows(replica=r)
            if want_sessions:
                sessions.append(session_from_trajectory(traj, f"S{r:04d}"))

    files = [("trajectories.csv",
              _write_csv(out_dir / "trajectories.csv", seed,
                         ["replica", "t", "action", "r_chosen", "r_unchosen",
                          "q1", "q2"], rows()))]
    if want_sessions:
        n = write_sessions(out_dir / "sessions.csv", sessions, seed=seed)
        files.append(("sessions.csv", n))
    return files, None


def _run_propagate(cfg, seed: int, out_dir: Path, threads: int):
    p = cfg["p"]
    n_steps = cfg["n_steps"]
    m0 = MomentState.point_mass(0.5)
    if cfg.get("mode", "closure") == "exact-unbiased":
        series = propagate_moments_bayes(m0, p, n_steps)
    else:
        sched = _schedule_from_cfg(cfg.get("schedule"))
        rates = _rates_from_cfg(cfg["rates"], sched)
        series = propagate_moments(m0, rates, p, cfg["beta"], n_steps)
    rows = [(t, m.m1, m.m11, m.m12, m.delta) for t, m in enumerate(series)]
    n = _write_csv(out_dir / "moments.csv", seed,
                   ["t", "m1", "m11", "m12", "delta"], rows)
    return [("moments.csv", n)], None


def _run_sweep_delta(cfg, seed: int, out_dir: Path, threads: int):
    p = cfg["p"]
    rows = []
    for x in cfg["x_grid"]:
        rates = x_curve_rates(x)
        for beta in cfg["beta_grid"]:
            rows.append((x, beta, p, steady_state_delta(rates, p, beta)))
    n = _write_csv(out_dir / "delta_star.csv", seed,
                   ["x", "beta", "p", "delta_star"], rows)
    return [("delta_star.csv", n)], None


def _run_switch_rate(cfg, seed: int, out_dir: Path, threads: int):
    env = _env_from_cfg(cfg["environment"])
    agent = _agent_from_cfg(cfg["agent"])
    series = ensemble_switch_rate(agent, env, cfg["ensemble"]["replicas"], seed)
    rows = list(zip(series.t, series.analytic_mean, series.analytic_se,
                    series.empirical_mean, series.empirical_se))
    n = _write_csv(out_dir / "switch_rate.csv", seed,
                   ["t", "analytic_mean", "analytic_se",
                    "empirical_mean", "empirical_se"], rows)
    return [("switch_rate.csv", n)], None


def _fit_job(args):
    sessions, families, restarts, seed, stream_base = args
    batch = fit_families(sessions, families, restarts=restarts, seed=seed,
                         stream_index=stream_base)
    return [fits[fam] for fits in batch for fam in families]


def _run_fit(cfg, seed: int, out_dir: Path, threads: int):
    sessions = read_sessions(cfg["sessions"])
    families = cfg.get("families", list(MODEL_FAMILIES))
    restarts = cfg.get("restarts", 20)
    # each worker fits a contiguous share of the subjects as one batch;
    # subject i keeps restart streams 4 i + k whatever the share
    shares = [ix for ix in np.array_split(np.arange(len(sessions)), max(threads, 1))
              if ix.size]
    jobs = [(sessions[ix[0]:ix[-1] + 1], families, restarts, seed,
             int(ix[0]) * len(MODEL_FAMILIES)) for ix in shares]
    if len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            per_share = list(pool.map(_fit_job, jobs))
    else:
        per_share = [_fit_job(j) for j in jobs]
    results = [f for fits in per_share for f in fits]

    by_subject: dict[str, list] = {}
    for f in results:
        by_subject.setdefault(f.subject_id, []).append(f)
    best = ({sid: best_model(fits) for sid, fits in by_subject.items()}
            if len(families) > 1 else {})
    _write_json(out_dir / "fits.json",
                {"seed": seed, "results": [f.to_dict() for f in results],
                 "best": best})

    summary = []
    for fam in families:
        fam_fits = [f for f in results if f.model == fam]
        summary.append((fam, len(fam_fits),
                        float(np.mean([f.nll for f in fam_fits])),
                        float(np.mean([f.bic for f in fam_fits])),
                        sum(1 for b in best.values() if b == fam)))
    n = _write_csv(out_dir / "fit_summary.csv", seed,
                   ["model", "n_subjects", "mean_nll", "mean_bic", "n_best"],
                   summary)
    return [("fits.json", len(results)), ("fit_summary.csv", n)], results


def _run_recover(cfg, seed: int, out_dir: Path, threads: int):
    env = _env_from_cfg(cfg["environment"])
    report = recover_bias(cfg["n_agents"], env, cfg["beta_gen"], seed=seed,
                          generator=cfg.get("generator", "bayes"),
                          generator_alpha=cfg.get("generator_alpha", 0.3),
                          restarts=cfg.get("restarts", 20),
                          policy_mode=cfg.get("policy", "softmax"))
    _write_json(out_dir / "recovery.json", {"seed": seed, **report.to_dict()})
    return [("recovery.json", report.n_agents)], report.fits


def _run_new_arm(cfg, seed: int, out_dir: Path, threads: int):
    sessions = read_sessions(cfg["sessions"])
    subject = cfg.get("subject")
    if subject is None:
        session = sessions[0]
    else:
        match = [s for s in sessions if s.subject_id == subject]
        if not match:
            raise ValueError(f"subject {subject!r} not found in {cfg['sessions']}")
        session = match[0]
    restarts = cfg.get("restarts", 20)
    fit_b = fit_subject("bayes", session, restarts=restarts, seed=seed,
                        stream_index=0)
    fit_q = fit_subject(cfg.get("q_family", "full"), session, restarts=restarts,
                        seed=seed, stream_index=1)
    curve = new_arm_curve(fit_b, fit_q, session, cfg["p3_grid"],
                          n3=cfg.get("n3", 24), reps=cfg.get("reps", 10_000),
                          seed=seed)
    _write_json(out_dir / "new_arm_fits.json",
                {"seed": seed, "fits": [fit_b.to_dict(), fit_q.to_dict()]})
    n = _write_csv(out_dir / "new_arm.csv", seed,
                   ["model", "p3", "choice_prob", "stderr"], curve)
    return [("new_arm_fits.json", 2), ("new_arm.csv", n)], [fit_b, fit_q]


_HANDLERS = {"simulate": _run_simulate, "propagate": _run_propagate,
             "sweep-delta": _run_sweep_delta, "switch-rate": _run_switch_rate,
             "fit": _run_fit, "recover": _run_recover, "new-arm": _run_new_arm}


def run_scenario(config_path, seed: Optional[int] = None,
                 out_dir: Optional[str] = None, threads: int = 1) -> RunManifest:
    """Validate, dispatch and write artifacts plus a manifest; returns it."""
    with open(config_path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    diags = validate_config_data(cfg)
    if diags:
        raise ConfigError(diags)
    if seed is None:
        seed = cfg.get("ensemble", {}).get("seed", cfg.get("seed", 0))
    if out_dir is None:
        out_dir = cfg.get("output", {}).get("directory",
                                            os.environ.get(OUT_DIR_ENV, "out"))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()
    files, fits = _HANDLERS[cfg["kind"]](cfg, seed, out, threads)
    finished = datetime.now(timezone.utc).isoformat()
    manifest = RunManifest(config_hash=config_hash(cfg), tool_version=__version__,
                           seed=seed, started_at=started, finished_at=finished,
                           files=files)
    if fits is not None:
        manifest.counters = _fit_counters(fits)
        manifest.not_converged = [f"{f.subject_id}/{f.model}" for f in fits
                                  if not f.converged]
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
        with open(args.config, "r", encoding="utf-8") as fh:
            declared = json.load(fh).get("kind")
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read config {args.config}: {e}", file=sys.stderr)
        return 1
    if declared != args.command:
        print(f"error: config declares kind {declared!r} but the "
              f"{args.command!r} subcommand was invoked", file=sys.stderr)
        return 2
    try:
        manifest = run_scenario(args.config, seed=args.seed,
                                out_dir=args.out_dir, threads=args.threads)
    except ConfigError as e:
        for d in e.diagnostics:
            print(d, file=sys.stderr)
        return 2
    except Exception as e:  # propagated module errors, with context
        print(f"error: {args.command} failed: {e}", file=sys.stderr)
        return 1
    for path, rows in manifest.files:
        print(f"wrote {path} ({rows} rows)")
    if manifest.not_converged:
        print(f"error: no simplex restart converged for {len(manifest.not_converged)} "
              f"fit(s): {', '.join(manifest.not_converged)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
