"""Config validation, scenario runs, and artifact reproducibility."""

import copy
import csv
import hashlib
import io
import json
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import banditlab
from banditlab import (BayesAgentSpec, Environment, Policy, QAgentSpec, LearningRateSet,
                       RngStream, StepSchedule, run_trajectory)
from banditlab.cli import (KINDS, SCHEMA, check_config, config_hash, main, run_scenario,
                           validate_config_data)
from banditlab.sessions import BLOCK_ROWS, CSV_HEADER

SIM_CFG = {
    "kind": "simulate",
    "environment": {"p1": 0.6, "p2": 0.4, "counterfactual": True, "horizon": 12},
    "agent": {"type": "q", "beta": 5.0,
              "rates": {"a_plus_c": 0.3, "a_minus_c": 0.1,
                        "a_plus_u": 0.1, "a_minus_u": 0.3}},
    "ensemble": {"replicas": 3, "seed": 33},
    "output": {"sessions": True},
}


RATES = {"a_plus_c": 0.12, "a_minus_c": 0.08, "a_plus_u": 0.08, "a_minus_u": 0.12}
# one valid config of every kind
CONFIGS = {cfg["kind"]: cfg for cfg in [
    SIM_CFG,
    {"kind": "propagate", "p": 0.5, "beta": 3.0, "n_steps": 10, "rates": RATES,
     "schedule": {"kind": "step", "alpha1": 0.3, "alpha2": 0.1, "tau_c": 4}},
    {"kind": "sweep-delta", "p": 0.5, "x_grid": [1.0, 1.2], "beta_grid": [1.0, 3.0]},
    {"kind": "switch-rate",
     "environment": {"p1": 0.5, "p2": 0.5, "counterfactual": True, "horizon": 8},
     "agent": {"type": "bayes", "beta": 6.0}, "ensemble": {"replicas": 200, "seed": 4}},
    {"kind": "fit", "sessions": "sessions.csv", "families": ["bayes", "const"],
     "restarts": 2, "seed": 11},
    {"kind": "recover",
     "environment": {"p1": 0.5, "p2": 0.5, "counterfactual": True, "horizon": 12},
     "n_agents": 2, "beta_gen": 10.0, "generator": "const_q", "generator_alpha": 0.3,
     "restarts": 2, "seed": 3, "output": {"directory": "o"}},
    {"kind": "new-arm", "sessions": "sessions.csv", "subject": "S0001",
     "p3_grid": [0.2, 0.8], "n3": 6, "reps": 50, "restarts": 2, "seed": 2},
]}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_validate_accepts_good_config(tmp_path, capsys):
    rc = main(["validate", write_cfg(tmp_path, SIM_CFG)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "ok"
    # JSON null means absent: the key takes its default
    recover, new_arm = CONFIGS["recover"], CONFIGS["new-arm"]
    for cfg, key, default in [(recover, "generator_alpha", 0.3), (recover, "restarts", 20),
                              (new_arm, "n3", 24), (new_arm, "restarts", 20),
                              (new_arm, "subject", None), (SIM_CFG, "seed", 0)]:
        checked, diags = check_config({**cfg, key: None})
        assert diags == [] and checked[key] == default


def test_validate_reports_each_problem(tmp_path, capsys):
    cfg = json.loads(json.dumps(SIM_CFG))
    cfg["ensemble"]["replicas"] = 0
    cfg["agent"]["rates"]["a_plus_c"] = 1.3
    cfg["environment"]["counterfactual"] = False
    cfg["output"]["sessions"] = "false"
    rc = main(["validate", write_cfg(tmp_path, cfg)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "ensemble.replicas" in out
    assert "agent.rates.a_plus_c" in out
    assert "no unchosen-arm feedback" in out
    assert "output.sessions" in out
    # one draw leaves the transfer curve's standard errors undefined
    cfg = dict(CONFIGS["new-arm"], reps=1)
    assert main(["validate", write_cfg(tmp_path, cfg)]) == 2
    assert "reps: must be an integer of at least 2, got 1" in capsys.readouterr().out


def test_validate_missing_and_malformed_files(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["validate", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().out


def test_validate_rejects_non_finite_numbers(tmp_path, capsys):
    # json.load accepts NaN, Infinity and integers no float can hold
    rates = {k: 0.1 for k in ("a_plus_c", "a_minus_c", "a_plus_u", "a_minus_u")}
    bad = [({"kind": "propagate", "p": 0.5, "beta": float("nan"), "n_steps": 3,
             "rates": rates}, "beta"),
           ({"kind": "sweep-delta", "p": 0.5, "x_grid": [1.0],
             "beta_grid": [float("inf")]}, "beta_grid"),
           ({"kind": "propagate", "p": 0.5, "beta": 10**400, "n_steps": 3,
             "rates": rates}, "beta")]
    for cfg, field in bad:
        rc = main(["validate", write_cfg(tmp_path, cfg)])
        assert rc == 2
        assert field in capsys.readouterr().out


def test_unknown_kind_is_rejected():
    diags = validate_config_data({"kind": "meditate"})
    assert len(diags) == 1 and "kind" in diags[0]


def _table_keys(table):
    for key, (rule, _) in table.items():
        yield key
        if isinstance(rule, dict):
            yield from _table_keys(rule)


SCHEMA_KEYS = sorted({k for t in SCHEMA.values() for k in _table_keys(t)} | {"kind"})
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(KINDS + ("q", "bayes", "step", "greedy", "closure", "full")),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12)


def _key_paths(cfg, prefix=()):
    for k, v in cfg.items():
        yield prefix + (k,)
        if isinstance(v, dict):
            yield from _key_paths(v, prefix + (k,))


def _assert_diagnostics(cfg):
    diags = validate_config_data(cfg)
    assert isinstance(diags, list) and all(isinstance(d, str) for d in diags)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_validate_never_raises_on_arbitrary_json(value):
    _assert_diagnostics(value)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(CONFIGS.values())).flatmap(
    lambda cfg: st.tuples(st.just(cfg), st.sampled_from(list(_key_paths(cfg))))), JSON_VALUES)
@example((CONFIGS["fit"], ("families",)), [[1]])
@example((CONFIGS["fit"], ("families",)), [{}])
def test_validate_never_raises_on_one_replaced_key(cfg_and_path, value):
    cfg, path = cfg_and_path
    cfg = copy.deepcopy(cfg)
    node = cfg
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    _assert_diagnostics(cfg)


def test_readme_configs_validate():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, re.S)]
    configs = [b for b in blocks if isinstance(b, dict) and "kind" in b]
    assert configs
    for cfg in configs:
        assert validate_config_data(cfg) == [], cfg["kind"]


def test_subcommand_must_match_declared_kind(tmp_path, capsys):
    rc = main(["propagate", write_cfg(tmp_path, SIM_CFG)])
    assert rc == 2
    assert "declares kind 'simulate'" in capsys.readouterr().err


def test_simulate_artifacts_and_manifest(tmp_path):
    cfg_path = write_cfg(tmp_path, SIM_CFG)
    out = tmp_path / "run1"
    rc = main(["simulate", cfg_path, "--out-dir", str(out)])
    assert rc == 0
    traj = (out / "trajectories.csv").read_text().splitlines()
    assert traj[0] == "# seed=33"
    assert traj[1] == "replica,t,action,r_chosen,r_unchosen,q1,q2"
    assert len(traj) == 2 + 3 * 12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 33
    assert manifest["tool_version"] == banditlab.__version__
    assert manifest["config_hash"] == config_hash(json.loads(open(cfg_path).read()))
    rows = {f["path"]: f["rows"] for f in manifest["files"]}
    assert rows["trajectories.csv"] == 3 * 12
    assert rows["sessions.csv"] == 3 * 12
    assert manifest["counters"] == {"replica_steps": 3 * 12}
    # values round-trip exactly through the %.17g format
    env = Environment(p1=0.6, p2=0.4, counterfactual=True, horizon=12)
    agent = QAgentSpec(LearningRateSet(0.3, 0.1, 0.1, 0.3), Policy(beta=5.0))
    want = run_trajectory(agent, env, RngStream(33, 2))
    got = [float(ln.split(",")[5]) for ln in traj[2:] if ln.startswith("2,")]
    np.testing.assert_array_equal(got, want.values1[:-1])


def _per_cell_csv(header, rows, seed) -> bytes:
    """A table as the writer wrote it one cell at a time: a float as
    f"{v:.17g}", everything else left to csv.writer."""
    buf = io.StringIO(newline="")
    buf.write(f"# seed={seed}\n")
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode("utf-8")


def _scalar_simulate(agent, env, replicas, seed) -> tuple[bytes, bytes]:
    """trajectories.csv and sessions.csv built from one run_trajectory per replica."""
    traj_rows, session_rows = [], []
    for r in range(replicas):
        traj = run_trajectory(agent, env, RngStream(seed, r))
        rc = traj.reward_chosen().tolist()
        ru = (traj.reward_unchosen().tolist() if env.counterfactual
              else [""] * env.horizon)
        for t, a in enumerate(traj.actions.tolist()):
            traj_rows.append((r, t, a, rc[t], ru[t],
                              float(traj.values1[t]), float(traj.values2[t])))
            session_rows.append((f"S{r:04d}", t, a, rc[t], ru[t]))
    header = ["replica", "t", "action", "r_chosen", "r_unchosen", "q1", "q2"]
    return (_per_cell_csv(header, traj_rows, seed),
            _per_cell_csv(CSV_HEADER, session_rows, seed))


# the agents of tools/digest_outputs.py's simulate cases
_SIM_AGENTS = {
    "q-counterfactual": (True, {"type": "q", "beta": 5.0, "rates": {
        "a_plus_c": 0.3, "a_minus_c": 0.1, "a_plus_u": 0.1, "a_minus_u": 0.3}},
        QAgentSpec(LearningRateSet(0.3, 0.1, 0.1, 0.3), Policy(beta=5.0))),
    "bayes-partial": (False, {"type": "bayes", "beta": 8.0},
                      BayesAgentSpec(Policy(beta=8.0))),
    "q-step-greedy": (False, {"type": "q", "beta": 3.0, "policy": "greedy", "rates": {
        "a_plus_c": 0.3, "a_minus_c": 0.1, "a_plus_u": 0.0, "a_minus_u": 0.0},
        "schedule": {"kind": "step", "alpha1": 0.4, "alpha2": 0.05, "tau_c": 8}},
        QAgentSpec(LearningRateSet(0.3, 0.1, 0.0, 0.0, StepSchedule(0.4, 0.05, 8)),
                   Policy(beta=3.0, mode="greedy"))),
}


@pytest.mark.parametrize("horizon", [1, 20])
@pytest.mark.parametrize("case", sorted(_SIM_AGENTS))
def test_simulate_matches_scalar_runs_across_blocks(tmp_path, case, horizon):
    # one block plus five replicas: a full block, then a partial one
    replicas = BLOCK_ROWS // horizon + 5
    counterfactual, agent_cfg, agent = _SIM_AGENTS[case]
    env_cfg = {"p1": 0.6, "p2": 0.4, "counterfactual": counterfactual, "horizon": horizon}
    cfg = {"kind": "simulate", "environment": env_cfg, "agent": agent_cfg, "seed": 5,
           "ensemble": {"replicas": replicas}, "output": {"sessions": True}}
    out = tmp_path / "o"
    run_scenario(write_cfg(tmp_path, cfg), out_dir=str(out))
    want_traj, want_sessions = _scalar_simulate(agent, Environment(**env_cfg), replicas, 5)
    assert (out / "trajectories.csv").read_bytes() == want_traj
    assert (out / "sessions.csv").read_bytes() == want_sessions


def test_manifest_records_timings(tmp_path):
    out = tmp_path / "sim"
    timings = run_scenario(write_cfg(tmp_path, SIM_CFG), out_dir=str(out)).timings
    assert set(timings) == {"run_s", "simulate_s", "write_s"}
    assert json.loads((out / "manifest.json").read_text())["timings"] == timings
    prop = run_scenario(write_cfg(tmp_path, CONFIGS["propagate"], "p.json"),
                        out_dir=str(tmp_path / "prop")).timings
    assert set(prop) == {"run_s"}
    fit_cfg = dict(CONFIGS["fit"], sessions=str(out / "sessions.csv"))
    fit = run_scenario(write_cfg(tmp_path, fit_cfg, "f.json"),
                       out_dir=str(tmp_path / "fit")).timings
    assert set(fit) == {"run_s", "read_s", "fit_s", "write_s"}
    rec = run_scenario(write_cfg(tmp_path, CONFIGS["recover"], "r.json"),
                       out_dir=str(tmp_path / "rec")).timings
    assert set(rec) == {"run_s", "recover_s", "write_s"}
    for shares in (timings, fit, rec):
        assert sum(v for k, v in shares.items() if k != "run_s") <= shares["run_s"]
    assert all(v >= 0 for t in (timings, prop, fit, rec) for v in t.values())


def test_bench_tracer_installs_and_uninstalls(tmp_path, monkeypatch):
    # bench/tracing.py wraps the package's functions by their module names
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracing
    from banditlab import cli, mc
    originals = (cli.write_sessions, cli.run_trajectory, mc.iter_value_chunks)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        run_scenario(write_cfg(tmp_path, SIM_CFG), out_dir=str(tmp_path / "o"))
        # the bayes polish must find the wrapped scipy.optimize.minimize_scalar
        fit_cfg = dict(CONFIGS["fit"], sessions=str(tmp_path / "o" / "sessions.csv"))
        run_scenario(write_cfg(tmp_path, fit_cfg, "f.json"), out_dir=str(tmp_path / "f"))
    finally:
        tracer.uninstall()
    assert (cli.write_sessions, cli.run_trajectory, mc.iter_value_chunks) == originals
    metrics = tracing.layer_metrics(tracer)
    assert metrics["mc.replica_steps"] == 3 * 12
    assert metrics["agents.run_trajectory.calls"] == 0
    assert metrics["sessions.rows_written"] == 3 * 12
    assert metrics["fitting.minimize.calls"] >= 1


_IMPORT_GRAPH_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
heavy = ("scipy.stats", "scipy.optimize")
def loaded():
    return [m for m in heavy if m in sys.modules]
import banditlab, banditlab.cli
seen = {"import": loaded()}
for cfg in sys.argv[2:-1]:
    banditlab.cli.run_scenario(cfg)
seen["scenarios"] = loaded()
banditlab.cli.run_scenario(sys.argv[-1])
seen["fit"] = loaded()
print(json.dumps(seen))
"""


def test_only_fitting_loads_scipy_stats_and_optimize(tmp_path):
    # a fresh interpreter: this test module has imported scipy.stats already
    sim = tmp_path / "sim"
    cfgs = [dict(SIM_CFG, ensemble={"replicas": 1, "seed": 33})] + [
        CONFIGS[k] for k in ("switch-rate", "propagate", "sweep-delta")]
    cfgs.append(dict(CONFIGS["fit"], sessions=str(sim / "sessions.csv")))
    paths = []
    for i, cfg in enumerate(cfgs):
        out = sim if i == 0 else tmp_path / f"o{i}"
        output = {**cfg.get("output", {}), "directory": str(out)}
        paths.append(write_cfg(tmp_path, dict(cfg, output=output), f"c{i}.json"))
    src = str(Path(banditlab.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", _IMPORT_GRAPH_SCRIPT, src, *paths],
                         capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert res.returncode == 0, res.stderr
    seen = json.loads(res.stdout.splitlines()[-1])
    assert seen == {"import": [], "scenarios": [],
                    "fit": ["scipy.stats", "scipy.optimize"]}


def test_rerun_is_byte_identical_outside_manifest(tmp_path):
    cfg_path = write_cfg(tmp_path, SIM_CFG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", cfg_path, "--out-dir", str(a)]) == 0
    assert main(["simulate", cfg_path, "--out-dir", str(b)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        if name == "manifest.json":
            continue
        assert (a / name).read_bytes() == (b / name).read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    for k in ("config_hash", "seed", "files", "tool_version"):
        assert ma[k] == mb[k]


def test_seed_flag_overrides_config(tmp_path):
    cfg_path = write_cfg(tmp_path, SIM_CFG)
    out = tmp_path / "o"
    assert main(["simulate", cfg_path, "--seed", "7", "--out-dir", str(out)]) == 0
    text = (out / "trajectories.csv").read_text()
    assert text.startswith("# seed=7\n")
    assert json.loads((out / "manifest.json").read_text())["seed"] == 7


def test_default_out_dir_from_environment(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("BANDITLAB_OUT_DIR", str(target))
    monkeypatch.chdir(tmp_path)
    cfg = {k: v for k, v in SIM_CFG.items() if k != "output"}
    assert main(["simulate", write_cfg(tmp_path, cfg)]) == 0
    assert (target / "trajectories.csv").exists()


def test_propagate_matches_library_series(tmp_path):
    cfg = {"kind": "propagate", "p": 0.5, "beta": 3.0, "n_steps": 10,
           "rates": {"a_plus_c": 0.12, "a_minus_c": 0.08,
                     "a_plus_u": 0.08, "a_minus_u": 0.12}}
    out = tmp_path / "o"
    assert main(["propagate", write_cfg(tmp_path, cfg), "--out-dir", str(out)]) == 0
    lines = (out / "moments.csv").read_text().splitlines()
    assert lines[1] == "t,m1,m11,m12,delta"
    assert len(lines) == 2 + 11
    from banditlab import MomentState, propagate_moments
    series = propagate_moments(MomentState.point_mass(0.5),
                               LearningRateSet(0.12, 0.08, 0.08, 0.12),
                               0.5, 3.0, 10)
    last = lines[-1].split(",")
    assert float(last[1]) == series[-1].m1
    assert float(last[4]) == series[-1].delta


def test_sweep_delta_covers_the_grid(tmp_path, capsys):
    cfg = {"kind": "sweep-delta", "p": 0.5,
           "x_grid": [1.0, 1.2], "beta_grid": [1.0, 3.0]}
    out = tmp_path / "o"
    assert main(["sweep-delta", write_cfg(tmp_path, cfg), "--out-dir", str(out)]) == 0
    lines = (out / "delta_star.csv").read_text().splitlines()
    assert len(lines) == 2 + 4
    from banditlab import steady_state_delta, steady_state_moments, x_curve_rates
    x, beta, p, d = lines[3].split(",")
    assert (float(x), float(beta)) == (1.0, 3.0)
    assert float(d) == steady_state_delta(x_curve_rates(1.0), 0.5, 3.0)
    assert json.loads((out / "manifest.json").read_text())["not_converged"] == []

    # a cell with no steady state is written blank and named; the run exits 1
    cfg = {"kind": "sweep-delta", "p": 0.5, "x_grid": [1.0, 1.8], "beta_grid": [1.0, 5.0]}
    out = tmp_path / "bad"
    assert main(["sweep-delta", write_cfg(tmp_path, cfg), "--out-dir", str(out)]) == 1
    assert "x=1.8/beta=5.0" in capsys.readouterr().err
    lines = (out / "delta_star.csv").read_text().splitlines()
    assert len(lines) == 2 + 4 and lines[-1] == "1.8,5,0.5,"
    assert all(ln.split(",")[3] for ln in lines[2:-1])
    assert json.loads((out / "manifest.json").read_text())["not_converged"] == ["x=1.8/beta=5.0"]

    # near unbiased rates off p = 1/2 the steady state exists and is written
    cfg = {"kind": "sweep-delta", "p": 0.3, "x_grid": [0.9999, 1.0], "beta_grid": [0.5]}
    out = tmp_path / "near"
    assert main(["sweep-delta", write_cfg(tmp_path, cfg), "--out-dir", str(out)]) == 0
    lines = (out / "delta_star.csv").read_text().splitlines()
    assert len(lines) == 2 + 2
    cells = [float(ln.split(",")[3]) for ln in lines[2:]]
    assert cells[0] == steady_state_moments(x_curve_rates(0.9999), 0.3, 0.5).delta
    assert cells[1] == pytest.approx(0.21 * 0.1 / 1.9, abs=1e-12)


def test_switch_rate_run(tmp_path):
    cfg = {"kind": "switch-rate",
           "environment": {"p1": 0.5, "p2": 0.5, "counterfactual": True,
                           "horizon": 8},
           "agent": {"type": "bayes", "beta": 6.0},
           "ensemble": {"replicas": 200, "seed": 4}}
    out = tmp_path / "o"
    assert main(["switch-rate", write_cfg(tmp_path, cfg), "--out-dir", str(out)]) == 0
    lines = (out / "switch_rate.csv").read_text().splitlines()
    assert lines[1].split(",")[:2] == ["t", "analytic_mean"]
    assert len(lines) == 2 + 8
    # the switching ensemble simulates one trial past the horizon
    counters = json.loads((out / "manifest.json").read_text())["counters"]
    assert counters == {"replica_steps": 200 * 9}


def test_switch_rate_reproduces_readme_switching_column(tmp_path):
    # late-session switch probability (trials 16-23 of 24) of 2,000 agents:
    # Bayesian agents switch less than the alpha = 0.3 control under greedy
    # choice and more under softmax
    readme = {("greedy", "bayes"): 0.067, ("greedy", "q"): 0.216,
              ("softmax", "bayes"): 0.362, ("softmax", "q"): 0.327}
    analytic = {}
    for (policy, kind), want in readme.items():
        agent = {"type": kind, "beta": 10.0, "policy": policy}
        if kind == "q":
            agent["rates"] = {k: 0.3 for k in RATES}
        cfg = {"kind": "switch-rate",
               "environment": {"p1": 0.5, "p2": 0.5, "counterfactual": True, "horizon": 24},
               "agent": agent, "ensemble": {"replicas": 2000, "seed": 0}}
        path = write_cfg(tmp_path, cfg, f"{policy}-{kind}.json")
        assert validate_config_data(cfg) == []
        out = tmp_path / f"{policy}-{kind}"
        assert main(["switch-rate", path, "--out-dir", str(out)]) == 0
        series = np.loadtxt(out / "switch_rate.csv", delimiter=",", skiprows=2)
        assert round(series[15:23, 3].mean(), 3) == want, (policy, kind)
        analytic[policy, kind] = series[15:23, 1].mean()
    assert analytic["greedy", "bayes"] < analytic["greedy", "q"]
    assert analytic["softmax", "bayes"] > analytic["softmax", "q"]


def test_switch_rate_runs_bayes_agents_without_counterfactual(tmp_path):
    cfg = {"kind": "switch-rate",
           "environment": {"p1": 0.6, "p2": 0.4, "counterfactual": False,
                           "horizon": 8},
           "agent": {"type": "bayes", "beta": 6.0},
           "ensemble": {"replicas": 200, "seed": 4}}
    path = write_cfg(tmp_path, cfg)
    assert main(["validate", path]) == 0
    out = tmp_path / "o"
    assert main(["switch-rate", path, "--out-dir", str(out)]) == 0
    assert len((out / "switch_rate.csv").read_text().splitlines()) == 2 + 8


def test_fit_pipeline_on_simulated_sessions(tmp_path):
    sim = dict(SIM_CFG)
    sim_dir = tmp_path / "sim"
    assert main(["simulate", write_cfg(tmp_path, sim), "--out-dir", str(sim_dir)]) == 0
    fit_cfg = {"kind": "fit", "sessions": str(sim_dir / "sessions.csv"),
               "families": ["bayes", "const"], "restarts": 2, "seed": 11}
    out = tmp_path / "fits"
    assert main(["fit", write_cfg(tmp_path, fit_cfg, "fit.json"),
                 "--out-dir", str(out)]) == 0
    fits = json.loads((out / "fits.json").read_text())
    assert fits["seed"] == 11
    assert len(fits["results"]) == 2 * 3
    assert set(fits["best"]) == {"S0000", "S0001", "S0002"}
    assert all(r["converged"] for r in fits["results"])
    summary = (out / "fit_summary.csv").read_text().splitlines()
    assert len(summary) == 2 + 2


def test_fit_missing_sessions_file_fails_cleanly(tmp_path, capsys):
    fit_cfg = {"kind": "fit", "sessions": str(tmp_path / "nope.csv"),
               "families": ["bayes"], "restarts": 1}
    rc = main(["fit", write_cfg(tmp_path, fit_cfg)])
    assert rc == 1
    assert "error: fit failed" in capsys.readouterr().err


def test_sessions_file_without_subjects_fails_cleanly(tmp_path, capsys):
    # a header and no rows: both fitting scenarios name the file, exit 1
    # and write no fit files
    sessions = tmp_path / "empty.csv"
    sessions.write_text("# seed=0\nsubject_id,trial,action,r_chosen,r_unchosen\n")
    for kind in ("fit", "new-arm"):
        cfg = dict(CONFIGS[kind], sessions=str(sessions))
        out = tmp_path / kind
        assert main([kind, write_cfg(tmp_path, cfg), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {kind} failed: {sessions}: no subject" in err
        assert list(out.iterdir()) == []


def test_non_integer_cells_name_their_line_and_column(tmp_path, capsys):
    header = "subject_id,trial,action,r_chosen,r_unchosen\n"
    cases = [("", "S1,0,1,1,0\nS1,x,2,0,1\n", "line 3: trial must be an integer, got 'x'"),
             ("# seed=0\n", "S1,0,1,1,0\nS1,1,2,0,1.5\n",
              "line 4: r_unchosen must be an integer, got '1.5'")]
    for i, (comment, rows, want) in enumerate(cases):
        sessions = tmp_path / f"bad{i}.csv"
        sessions.write_text(comment + header + rows)
        cfg = dict(CONFIGS["fit"], sessions=str(sessions))
        assert main(["fit", write_cfg(tmp_path, cfg), "--out-dir", str(tmp_path / str(i))]) == 1
        assert f"error: fit failed: {sessions}: {want}" in capsys.readouterr().err


def test_recover_scenario_writes_report(tmp_path):
    cfg = {"kind": "recover",
           "environment": {"p1": 0.5, "p2": 0.5, "counterfactual": True,
                           "horizon": 12},
           "n_agents": 2, "beta_gen": 10.0, "restarts": 2, "seed": 3}
    out = tmp_path / "o"
    assert main(["recover", write_cfg(tmp_path, cfg), "--out-dir", str(out)]) == 0
    rep = json.loads((out / "recovery.json").read_text())
    assert rep["n_agents"] == 2
    assert sum(rep["sign_counts"].values()) <= 4
    assert 0.0 <= rep["frac_beta_at_cap"] <= 1.0
    assert set(rep["mean_rates"]) == {"a_plus_c", "a_minus_c", "a_plus_u", "a_minus_u"}
    assert len(rep["fits"]) == 2


def test_failed_fits_are_written_and_named(tmp_path, capsys):
    # S0035's full-family fit has no converged restart (softmax beta 8
    # Bayesian agents, T=30, seed 5, 6 restarts, fit seed 2): the run still
    # writes every fit, names the failure and exits 1
    env = Environment(p1=0.6, p2=0.4, counterfactual=True, horizon=30)
    sessions = banditlab.synthesize_sessions(
        banditlab.BayesAgentSpec(Policy(beta=8.0)), env, 40, seed=5)
    banditlab.write_sessions(tmp_path / "sessions.csv", sessions)
    cfg = {"kind": "fit", "sessions": str(tmp_path / "sessions.csv"),
           "restarts": 6, "seed": 2}
    out = tmp_path / "fit"
    assert main(["fit", write_cfg(tmp_path, cfg), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "S0035/full" in err and "S0034" not in err
    results = json.loads((out / "fits.json").read_text())["results"]
    assert len(results) == 40 * 4
    assert [(r["subject_id"], r["model"]) for r in results if not r["converged"]] \
        == [("S0035", "full")]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["not_converged"] == ["S0035/full"]
    counters = manifest["counters"]
    assert counters["fits"] == 160 and counters["fits_not_converged"] == 1
    assert counters["objective_evals"] == sum(r["n_evals"] for r in results)
    assert counters["fits_clamped"] == sum(r["clamped"] for r in results)
    assert counters["fits_beta_at_cap"] == sum(r["params"]["beta"] == 50.0 for r in results)

    # the same for recover: four softmax Bayesian agents, 3 restarts
    cfg = {"kind": "recover",
           "environment": {"p1": 0.5, "p2": 0.5, "counterfactual": True, "horizon": 24},
           "n_agents": 4, "beta_gen": 10.0, "restarts": 3, "seed": 0}
    out = tmp_path / "rec"
    assert main(["recover", write_cfg(tmp_path, cfg, "rec.json"), "--out-dir", str(out)]) == 1
    assert "agent0000/full" in capsys.readouterr().err
    rep = json.loads((out / "recovery.json").read_text())
    assert [f["converged"] for f in rep["fits"]] == [False, True, True, True]
    assert rep["frac_not_converged"] == 0.25
    assert json.loads((out / "manifest.json").read_text())["counters"]["fits"] == 4

    # and for new-arm: S0035's full-family fit again fails (fit seed 1)
    cfg = {"kind": "new-arm", "sessions": str(tmp_path / "sessions.csv"),
           "subject": "S0035", "p3_grid": [0.2, 0.8], "n3": 6, "reps": 50,
           "restarts": 6, "seed": 1}
    out = tmp_path / "na"
    assert main(["new-arm", write_cfg(tmp_path, cfg, "na.json"), "--out-dir", str(out)]) == 1
    assert "S0035/full" in capsys.readouterr().err
    fits = json.loads((out / "new_arm_fits.json").read_text())["fits"]
    assert [(f["model"], f["converged"]) for f in fits] == [("bayes", True), ("full", False)]
    assert len((out / "new_arm.csv").read_text().splitlines()) == 2 + 4
    assert json.loads((out / "manifest.json").read_text())["not_converged"] == ["S0035/full"]


def test_fit_batches_match_single_subject_fits(tmp_path):
    # sessions of 5, 24 and 200 trials share one padded batch, or are split
    # into two batches by --threads 2; every fit equals the subject's own
    bayes = banditlab.BayesAgentSpec(Policy(beta=10.0))
    q = QAgentSpec(LearningRateSet(0.3, 0.1, 0.0, 0.0), Policy(beta=5.0))
    sessions = []
    for i, (agent, T, cf) in enumerate([(bayes, 200, True), (q, 5, False),
                                        (bayes, 24, True), (q, 5, False)]):
        env = Environment(p1=0.6, p2=0.4, counterfactual=cf, horizon=T)
        sessions += banditlab.synthesize_sessions(agent, env, 1, seed=i, prefix=f"T{T}_{i}")
    banditlab.write_sessions(tmp_path / "sessions.csv", sessions)
    cfg = write_cfg(tmp_path, {"kind": "fit", "sessions": str(tmp_path / "sessions.csv"),
                               "restarts": 3, "seed": 4})
    outs = []
    for threads in ("1", "2"):
        outs.append(tmp_path / f"t{threads}")
        assert main(["fit", cfg, "--out-dir", str(outs[-1]), "--threads", threads]) == 0
    for name in ("fits.json", "fit_summary.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    batch = banditlab.fit_families(sessions, restarts=3, seed=4)
    results = json.loads((outs[0] / "fits.json").read_text())["results"]
    assert [asdict(f) for fits in batch for f in fits.values()] == results
    for i, s in enumerate(sessions):
        assert banditlab.fit_families(s, restarts=3, seed=4, stream_index=4 * i) == batch[i]


def test_threads_below_one_are_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CONFIGS["sweep-delta"])
    for threads in ("0", "-1"):
        out = tmp_path / f"t{threads}"
        assert main(["sweep-delta", cfg, "--out-dir", str(out), "--threads", threads]) == 2
        assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err
        assert not out.exists()


def test_new_arm_scenario(tmp_path):
    sim_dir = tmp_path / "sim"
    assert main(["simulate", write_cfg(tmp_path, SIM_CFG), "--out-dir",
                 str(sim_dir)]) == 0
    cfg = {"kind": "new-arm", "sessions": str(sim_dir / "sessions.csv"),
           "subject": "S0001", "p3_grid": [0.2, 0.8], "n3": 6, "reps": 50,
           "restarts": 2, "seed": 2}
    out = tmp_path / "o"
    assert main(["new-arm", write_cfg(tmp_path, cfg, "na.json"),
                 "--out-dir", str(out)]) == 0
    curve = (out / "new_arm.csv").read_text().splitlines()
    assert len(curve) == 2 + 4  # two models x two grid points
    fits = json.loads((out / "new_arm_fits.json").read_text())
    assert [f["subject_id"] for f in fits["fits"]] == ["S0001", "S0001"]
    assert [f["model"] for f in fits["fits"]] == ["bayes", "full"]
