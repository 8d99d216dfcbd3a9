"""Config validation, scenario runs, and artifact reproducibility."""

import copy
import csv
import hashlib
import io
import json
import re
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import banditlab
from banditlab import (BayesAgentSpec, Environment, Policy, QAgentSpec, LearningRateSet,
                       RngStream, StepSchedule, run_trajectory)
from banditlab.cli import (KINDS, SCHEMA, ConfigError, check_config, config_hash, main,
                           read_config, run_scenario)
from banditlab.sessions import BLOCK_ROWS, CSV_HEADER

SIM_CFG = {
    "kind": "simulate",
    "environment": {"p1": 0.6, "p2": 0.4, "counterfactual": True, "horizon": 12},
    "agent": {"type": "q", "beta": 5.0,
              "rates": {"a_plus_c": 0.3, "a_minus_c": 0.1,
                        "a_plus_u": 0.1, "a_minus_u": 0.3}},
    "ensemble": {"replicas": 3},
    "seed": 33,
    "output": {"sessions": True},
}


RATES = {"a_plus_c": 0.12, "a_minus_c": 0.08, "a_plus_u": 0.08, "a_minus_u": 0.12}
# one valid config of every kind
CONFIGS = {cfg["kind"]: cfg for cfg in [
    SIM_CFG,
    {"kind": "propagate", "p": 0.5, "beta": 3.0, "n_steps": 10,
     "schedule": {"kind": "step", "alpha1": 0.3, "alpha2": 0.1, "tau_c": 4}},
    {"kind": "sweep-delta", "p": 0.5, "x_grid": [1.0, 1.2], "beta_grid": [1.0, 3.0]},
    {"kind": "switch-rate",
     "environment": {"p1": 0.5, "p2": 0.5, "counterfactual": True, "horizon": 8},
     "agent": {"type": "bayes", "beta": 6.0}, "ensemble": {"replicas": 200}, "seed": 4},
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
    # a family named twice would be fitted, counted and summarised twice
    cfg = dict(CONFIGS["fit"], families=["const", "bayes", "const"])
    assert main(["validate", write_cfg(tmp_path, cfg)]) == 2
    assert "families: must be a nonempty list of distinct families" in capsys.readouterr().out


def test_validate_missing_and_malformed_files(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["validate", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().out


def test_run_subcommands_read_configs_like_validate(tmp_path, capsys):
    # one reader: a malformed file draws the same diagnostic and exit status 2
    # under every subcommand, an unreadable one exit status 1
    for name, content in (("truncated.json", b'{"kind": "propagate", '),
                          ("binary.json", b'\xff{}')):
        path = tmp_path / name
        path.write_bytes(content)
        assert main(["validate", str(path)]) == 2
        want = capsys.readouterr().out
        assert want.startswith("config: not ")
        for kind in ("propagate", "fit"):
            assert main([kind, str(path), "--out-dir", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err == want
    assert main(["propagate", str(tmp_path / "absent.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


STEP = {"kind": "step", "alpha1": 0.3, "alpha2": 0.05, "tau_c": 4}


@pytest.mark.parametrize("kind", ["simulate", "switch-rate", "propagate"])
def test_a_learner_gives_rates_or_a_schedule(tmp_path, kind):
    # a Q-agent, or a closure-mode propagate config, learns at constant
    # rates or on a schedule; it never carries rates it does not read
    cfg = copy.deepcopy(CONFIGS[kind])
    if kind == "propagate":
        block, where, what = cfg, "", "closure mode"
    else:
        block, where, what = cfg["agent"], "agent.", "type 'q'"
        block.update(type="q", beta=5.0)
    block.pop("rates", None)
    block.pop("schedule", None)
    for given, got in (({}, "neither"), ({"rates": RATES, "schedule": STEP}, "both")):
        block.update(given)
        assert check_config(cfg)[1] == [
            f"{where}rates, {where}schedule: {what} needs exactly one, got {got}"]
    del block["rates"]
    assert check_config(cfg)[1] == []
    files = run_scenario(cfg, out_dir=str(tmp_path / "o")).files
    assert all((tmp_path / "o" / f["path"]).exists() for f in files)


@pytest.mark.parametrize("kind", ["simulate", "switch-rate"])
def test_step_scheduled_agent_runs_under_partial_feedback(tmp_path, kind):
    # a schedule's unchosen rates are turned off with the unchosen feedback,
    # so there are no unchosen rates to forbid
    cfg = {"kind": kind,
           "environment": {"p1": 0.6, "p2": 0.4, "counterfactual": False, "horizon": 10},
           "agent": {"type": "q", "beta": 5.0, "schedule": STEP},
           "ensemble": {"replicas": 50}, "seed": 1}
    path = write_cfg(tmp_path, cfg)
    assert main(["validate", path]) == 0
    assert main([kind, path, "--out-dir", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_closure_at_the_bayes_schedule_writes_the_exact_unbiased_moments(tmp_path, p, capsys):
    # at equal rates every policy-coupled term of the closure is 0.0, so
    # closure mode at the Bayes schedule is the exact recursion at any beta
    written = set()
    for beta in (0, 4.0, 50.0, 1e6):
        run_scenario({"kind": "propagate", "p": p, "beta": beta, "n_steps": 40,
                      "schedule": {"kind": "bayes"}}, out_dir=str(tmp_path / str(beta)))
        written.add((tmp_path / str(beta) / "moments.csv").read_bytes())
    assert len(written) == 1
    # a config asking for that recursion by a mode of its own is refused,
    # not run at rates it never gave
    for rates in ({}, {"rates": RATES}):
        cfg = {"kind": "propagate", "p": p, "beta": 4.0, "n_steps": 40,
               "mode": "exact-unbiased", **rates}
        assert main(["validate", write_cfg(tmp_path, cfg)]) == 2
        assert capsys.readouterr().out == ("mode: must be one of 'closure', "
                                           "got 'exact-unbiased'\n")


@pytest.mark.parametrize("kind", ["fit", "recover", "new-arm"])
def test_restarts_beyond_the_sobol_sequence_are_refused(kind):
    # restart points are Sobol' points, and the 30-bit sequence has 2**30;
    # validation only, so no run starts
    for restarts in (2**30 + 1, 2**31):
        assert check_config(dict(CONFIGS[kind], restarts=restarts))[1] == [
            f"restarts: must be an integer from 1 to 2**30, got {restarts}"]
    for restarts in (1, 2**30):
        assert check_config(dict(CONFIGS[kind], restarts=restarts))[1] == []


def test_keys_nothing_reads_are_refused():
    # a misspelt key would otherwise leave its intended key at the default
    cfg = copy.deepcopy(CONFIGS["simulate"])
    cfg["restart"] = 3
    cfg["ensemble"]["seeed"] = 5
    assert check_config(cfg)[1] == ["restart: unknown key", "ensemble.seeed: unknown key"]
    # the seed has one key, and only simulate writes sessions
    cfg = copy.deepcopy(CONFIGS["switch-rate"])
    cfg["ensemble"]["seed"] = 7
    assert check_config(cfg)[1] == ["ensemble.seed: unknown key"]
    for kind in (k for k in KINDS if k != "simulate"):
        cfg = dict(CONFIGS[kind], output={"sessions": True})
        assert check_config(cfg)[1] == ["output.sessions: unknown key"], kind
    # a Bayesian agent learns from its counts, and a bayes schedule at 1/(t+3)
    cfg = copy.deepcopy(CONFIGS["switch-rate"])
    cfg["agent"].update(rates=RATES, schedule={"kind": "bayes"})
    assert check_config(cfg)[1] == [
        "agent.rates: type 'bayes' learns from its counts, not from rates",
        "agent.schedule: type 'bayes' learns from its counts, not from schedule"]
    cfg = dict(CONFIGS["propagate"], schedule={**STEP, "kind": "bayes"})
    assert check_config(cfg)[1] == [
        f"schedule.{k}: a bayes schedule's rates are 1/(t+3); it reads no {k}"
        for k in ("alpha1", "alpha2", "tau_c")]


class _Reads(dict):
    """A checked config that records the dotted path of each key read from it."""

    def __init__(self, cfg: dict, seen: set, path: str = ""):
        super().__init__({k: _Reads(v, seen, f"{path}{k}.") if isinstance(v, dict) else v
                          for k, v in cfg.items()})
        self.seen, self.path = seen, path

    def __getitem__(self, key):
        self.seen.add(self.path + key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.seen.add(self.path + key)
        return super().get(key, default)


def _leaves(cfg: dict, path: str = ""):
    for k, v in cfg.items():
        if isinstance(v, dict):
            yield from _leaves(v, f"{path}{k}.")
        elif v is not None:
            yield path + k


def test_every_key_a_config_sets_is_read(tmp_path, monkeypatch):
    # a key that validates but that no run reads is surface with no effect;
    # propagate's mode has one value, which validation reads and configs send
    unread = {"propagate": {"mode"}}
    checked = {}

    def recording(cfg):
        c, diags = check_config(cfg)
        checked[c["kind"]] = (c, set())
        return _Reads(c, checked[c["kind"]][1]), diags

    monkeypatch.setattr(banditlab.cli, "check_config", recording)
    # simulate runs first and writes the sessions.csv that fit and new-arm read
    monkeypatch.chdir(tmp_path)
    for kind in KINDS:
        run_scenario(CONFIGS[kind], out_dir=str(tmp_path))
    assert sorted(checked) == sorted(KINDS)
    for kind, (cfg, seen) in checked.items():
        assert set(_leaves(cfg)) - seen == unread.get(kind, set()), kind


def test_benchmark_configs_validate(tmp_path, monkeypatch):
    # bench/workloads.py sends these configs through the command line and
    # changes only with the benchmark, so every one must keep validating
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads
    sent = []
    for cls in workloads.WORKLOADS.values():
        w = cls(banditlab, tmp_path, 0, 1)
        w.cli = lambda kind, config, seed, out: sent.append((kind, config)) or True
        w.moments = lambda replicas, horizon: None  # not a config; no simulation here
        w.pool = [(tmp_path / "sessions.csv", [])]  # what a fit round reads
        assert w.run_round(0)
    assert sorted(kind for kind, _ in sent) == ["fit", "propagate", "recover", "recover",
                                                "simulate", "simulate", "sweep-delta",
                                                "switch-rate", "switch-rate"]
    for kind, cfg in sent:
        assert cfg["kind"] == kind and check_config(cfg)[1] == [], cfg


def test_unknown_kind_is_rejected():
    diags = check_config({"kind": "meditate"})[1]
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
    diags = check_config(cfg)[1]
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
        assert check_config(cfg)[1] == [], cfg["kind"]


def test_subcommand_must_match_declared_kind(tmp_path, capsys):
    rc = main(["propagate", write_cfg(tmp_path, SIM_CFG)])
    assert rc == 2
    assert "declares kind 'simulate'" in capsys.readouterr().err


def test_run_reads_its_config_once(tmp_path, monkeypatch):
    reads = []

    def counted(path):
        reads.append(path)
        return read_config(path)

    monkeypatch.setattr(banditlab.cli, "read_config", counted)
    cfg_path = write_cfg(tmp_path, CONFIGS["propagate"])
    out = tmp_path / "o"
    assert main(["propagate", cfg_path, "--out-dir", str(out)]) == 0
    assert reads == [cfg_path] and (out / "moments.csv").exists()
    # a kind mismatch is refused from that one read, before anything is written
    reads.clear()
    assert main(["simulate", cfg_path, "--out-dir", str(tmp_path / "x")]) == 2
    assert reads == [cfg_path] and not (tmp_path / "x").exists()


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
    "bayes-counterfactual": (True, {"type": "bayes", "beta": 8.0},
                             BayesAgentSpec(Policy(beta=8.0))),
    "q-step-greedy": (False, {"type": "q", "beta": 3.0, "policy": "greedy",
        "schedule": {"kind": "step", "alpha1": 0.4, "alpha2": 0.05, "tau_c": 8}},
        QAgentSpec(StepSchedule(0.4, 0.05, 8), Policy(beta=3.0, mode="greedy"))),
}


@pytest.mark.parametrize("horizon", [1, 20])
@pytest.mark.parametrize("case", sorted(_SIM_AGENTS))
def test_simulate_matches_scalar_runs_across_blocks(tmp_path, case, horizon):
    # past a full 512-replica simulation chunk and a full text block: at T = 20
    # one chunk is cut into blocks of 320 and 192 replicas, then a partial
    # chunk follows; at T = 1 a block is a whole chunk
    replicas = max(BLOCK_ROWS // horizon, 512) + 5
    counterfactual, agent_cfg, agent = _SIM_AGENTS[case]
    env_cfg = {"p1": 0.6, "p2": 0.4, "counterfactual": counterfactual, "horizon": horizon}
    cfg = {"kind": "simulate", "environment": env_cfg, "agent": agent_cfg, "seed": 5,
           "ensemble": {"replicas": replicas}, "output": {"sessions": True}}
    out = tmp_path / "o"
    run_scenario(write_cfg(tmp_path, cfg), out_dir=str(out))
    want_traj, want_sessions = _scalar_simulate(agent, Environment(**env_cfg), replicas, 5)
    assert (out / "trajectories.csv").read_bytes() == want_traj
    assert (out / "sessions.csv").read_bytes() == want_sessions


def test_simulate_without_sessions_writes_the_same_trajectories(tmp_path):
    cfg = copy.deepcopy(SIM_CFG)
    run_scenario(write_cfg(tmp_path, cfg), out_dir=str(tmp_path / "with"))
    cfg["output"]["sessions"] = False
    files = run_scenario(write_cfg(tmp_path, cfg, "no.json"), out_dir=str(tmp_path / "no")).files
    assert files == [{"path": "trajectories.csv", "rows": 3 * 12}]
    assert not (tmp_path / "no" / "sessions.csv").exists()
    assert ((tmp_path / "no" / "trajectories.csv").read_bytes()
            == (tmp_path / "with" / "trajectories.csv").read_bytes())


def test_simulate_holds_one_chunk_record_and_one_block_of_cells(tmp_path):
    # the bench's sim-q run: 2,000 Q replicas at T = 100, sessions on.  It holds
    # one 512-replica chunk's record, whose two 101-trial float64 value arrays
    # are 0.79 MiB, and one 6,400-row block of trajectories.csv's 7 columns at
    # under 60 bytes a cell: the block's arrays and the chunk's other arrays
    # (about 19 B a cell), and the cells' Python objects and the block's text
    # (about 33 B).  Coded, the q1/q2 columns (96-98% of their values are
    # distinct) would add a string per value and an expanded list, past it
    cfg = {**SIM_CFG, "ensemble": {"replicas": 2000}, "environment": {
        **SIM_CFG["environment"], "horizon": 100}}
    cfg_path = write_cfg(tmp_path, cfg)
    run_scenario(write_cfg(tmp_path, SIM_CFG, "warm.json"), out_dir=str(tmp_path / "warm"))
    bound = 2 * 101 * 512 * 8 + BLOCK_ROWS * 7 * 60
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_scenario(cfg_path, out_dir=str(tmp_path / "o"))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak / 2**20:.2f} MiB over {bound / 2**20:.2f} MiB"


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
        # every family, bayes too, is fitted by the package's own simplex, so
        # no fit reaches the wrapped scipy optimizers
        fit_cfg = dict(CONFIGS["fit"], sessions=str(tmp_path / "o" / "sessions.csv"))
        run_scenario(write_cfg(tmp_path, fit_cfg, "f.json"), out_dir=str(tmp_path / "f"))
    finally:
        tracer.uninstall()
    assert (cli.write_sessions, cli.run_trajectory, mc.iter_value_chunks) == originals
    metrics = tracing.layer_metrics(tracer)
    assert metrics["mc.replica_steps"] == 3 * 12
    assert metrics["agents.run_trajectory.calls"] == 0
    assert metrics["sessions.rows_written"] == 3 * 12
    assert metrics["fitting.minimize.calls"] == 0


def test_digest_tool_cases_write_their_artifacts(tmp_path, monkeypatch):
    # tools/digest_outputs.py diffs these artifacts between commits, so its
    # cases must stay valid configs whose runs write the files they list
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    import digest_outputs
    kinds, switch_replicas, switch_chunks, q_passes = set(), [], [], []
    float_paths = set()  # per float column of over one row: coded or in place
    chunks = banditlab.switching.iter_value_chunks
    fitting = banditlab.fitting
    evaluate, evaluate_pass = fitting._evaluate, fitting._evaluate_pass
    column = banditlab.sessions._column

    def spy(*args, **kwargs):
        switch_chunks.append(0)
        for chunk in chunks(*args, **kwargs):
            switch_chunks[-1] += 1
            yield chunk

    def spy_evaluate(tab, family, sess, params):
        q_passes.append(0)
        return evaluate(tab, family, sess, params)

    def spy_pass(tab, family, sess, params):
        if family != "bayes" and kind == "fit":
            q_passes[-1] += 1
        return evaluate_pass(tab, family, sess, params)

    def spy_column(col, lone):
        conv, cells, codes = column(col, lone)
        if np.asarray(col).dtype.kind == "f" and len(col) > 1:
            float_paths.add("in place" if codes is None else "coded")
        return conv, cells, codes

    monkeypatch.setattr(banditlab.switching, "iter_value_chunks", spy)
    monkeypatch.setattr(banditlab.sessions, "_column", spy_column)
    monkeypatch.setattr(fitting, "_evaluate", spy_evaluate)
    monkeypatch.setattr(fitting, "_evaluate_pass", spy_pass)
    for kind, case, cfg in digest_outputs.cases(tmp_path):
        out = tmp_path / kind / case
        out.mkdir(parents=True)
        manifest = run_scenario(write_cfg(out, cfg, "config.json"), out_dir=str(out))
        written = sorted(f.name for f in out.iterdir()
                         if f.name not in ("config.json", "manifest.json"))
        assert written and written == sorted(f["path"] for f in manifest.files), case
        kinds.add(kind)
        if kind == "switch-rate":
            switch_replicas.append(cfg["ensemble"]["replicas"])
    assert kinds == set(KINDS)
    # one switch-rate case spans more than a group of engine chunks, and one
    # adds its sums over at least four chunks
    assert max(switch_replicas) > banditlab.mc.DEFAULT_CHUNK
    assert max(switch_chunks) >= 4
    # and one fit case scores a Q family's points in more than one engine pass
    assert max(q_passes) > 1
    # the writer codes a float column that repeats its values and formats one
    # of mostly distinct values in place: some case writes each kind
    assert float_paths == {"coded", "in place"}


def test_digest_tool_compares_csv_cells(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    from digest_outputs import compare

    def csv_file(name, text):
        (tmp_path / name).write_text(text)
        return tmp_path / name

    old = csv_file("old.csv", "# seed=1\nt,x,name\n0,0.5,a\n1,0.25,b\n")
    assert compare(old, old) == ""
    assert compare(old, tmp_path / "none.csv") == "missing from the reference"
    new = csv_file("new.csv", "# seed=1\nt,x,name\n0,0.5000000000000001,a\n1,0.125,c\n")
    assert compare(new, old) == ("2 numeric cells differ, max |delta| 0.125; "
                                 "1 non-numeric cells differ")
    assert "rows" in compare(csv_file("short.csv", "# seed=1\nt,x,name\n"), old)
    assert compare(csv_file("x.txt", "a"), csv_file("y.txt", "b")) == (
        "differs (neither a CSV nor JSON)")


def test_digest_tool_compares_json_leaves(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    from digest_outputs import compare

    def json_file(name, doc):
        (tmp_path / name).write_text(json.dumps(doc))
        return tmp_path / name

    old = json_file("old.json", {"results": [{"nll": 1.5, "n_evals": 40, "ok": True,
                                              "beta": 3.0},
                                             {"nll": 2.0, "n_evals": 30, "ok": True,
                                              "beta": 4.0}],
                                 "best": {"S0": "bayes"}, "empty": {}})
    assert compare(old, old) == ""
    assert compare(old, tmp_path / "none.json") == "missing from the reference"
    # per field the largest rise and the largest fall, new against old: beta
    # rises in one leaf and falls in the other
    new = json_file("new.json", {"results": [{"nll": 1.25, "n_evals": 42, "ok": False,
                                              "beta": 3.5},
                                             {"nll": 2.0, "n_evals": 30, "ok": True,
                                              "beta": 3.0}],
                                 "best": {"S0": "const"}, "empty": []})
    assert compare(new, old) == ("4 numeric leaves differ, max |delta| 2; "
                                 "3 non-numeric leaves differ; "
                                 "beta: 2 differ, max rise 0.5, max fall 1; "
                                 "n_evals: 1 differ, max rise 2, max fall 0; "
                                 "nll: 1 differ, max rise 0, max fall 0.25")
    short = json_file("short.json", {"results": [{"nll": 1.5, "n_evals": 40, "ok": True,
                                                  "beta": 3.0}],
                                     "best": {"S0": "bayes"}, "empty": {}})
    assert compare(short, old) == "differs in its keys or in the length of a list"
    # a fit record names its family: its fields, nested ones too, read per family
    fits = [{"model": "bayes", "nll": 3.0, "params": {"beta": 2.0}},
            {"model": "full", "nll": 2.5, "params": {"a_plus_u": 0.5, "beta": 2.0}}]
    moved = copy.deepcopy(fits)
    moved[0]["nll"], moved[1]["params"]["a_plus_u"], moved[1]["params"]["beta"] = 2.75, 0.25, 4.0
    assert compare(json_file("moved.json", {"seed": 1, "results": moved}),
                   json_file("fits.json", {"seed": 1, "results": fits})) == (
        "3 numeric leaves differ, max |delta| 2; 0 non-numeric leaves differ; "
        "bayes.nll: 1 differ, max rise 0, max fall 0.25; "
        "full.a_plus_u: 1 differ, max rise 0, max fall 0.25; "
        "full.beta: 1 differ, max rise 2, max fall 0")


_NO_SCIPY_SCRIPT = """
import importlib.abc, json, sys
sys.path.insert(0, sys.argv[1])
refused = []
class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            refused.append(name)
            raise ImportError(f"{name} is refused")
sys.meta_path.insert(0, RefuseScipy())
def loaded():
    return refused + [m for m in sys.modules if m.partition(".")[0] == "scipy"]
import banditlab, banditlab.cli
seen = {"import": loaded()}
for path in sys.argv[2:]:
    banditlab.cli.run_scenario(path)
    with open(path) as fh:
        seen[json.load(fh)["kind"]] = loaded()
print(json.dumps(seen))
"""


def test_no_scenario_loads_scipy(tmp_path):
    # a fresh interpreter that refuses every scipy import and records the
    # attempt: this test module has imported scipy already
    sim = tmp_path / "sim"
    cfgs = [dict(SIM_CFG, ensemble={"replicas": 1})] + [
        CONFIGS[k] for k in ("switch-rate", "propagate", "sweep-delta")]
    cfgs += [dict(CONFIGS["fit"], sessions=str(sim / "sessions.csv")), CONFIGS["recover"],
             dict(CONFIGS["new-arm"], sessions=str(sim / "sessions.csv"), subject=None)]
    paths = []
    for i, cfg in enumerate(cfgs):
        out = sim if i == 0 else tmp_path / f"o{i}"
        output = {**cfg.get("output", {}), "directory": str(out)}
        paths.append(write_cfg(tmp_path, dict(cfg, output=output), f"c{i}.json"))
    src = str(Path(banditlab.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, src, *paths],
                         capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert res.returncode == 0, res.stderr
    seen = json.loads(res.stdout.splitlines()[-1])
    assert seen == {k: [] for k in ("import",) + KINDS}
    assert all((out / "manifest.json").exists()
               for out in [sim] + [tmp_path / f"o{i}" for i in range(1, 7)])


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
    from banditlab import steady_state_delta, x_curve_rates
    from banditlab.moments import _steady_state_delta_quadratic
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
    assert cells[0] == _steady_state_delta_quadratic(x_curve_rates(0.9999), 0.3, 0.5)
    assert cells[1] == pytest.approx(0.21 * 0.1 / 1.9, abs=1e-12)


def test_sweep_delta_blanks_cells_where_the_closure_leaves_the_unit_interval(tmp_path, capsys):
    # weak confirmation (x <= 0.7) at high beta: the quadratic has a root in
    # [0, 1/4], but the closure's trajectory from the point mass leaves [0, 1]
    cfg = {"kind": "sweep-delta", "p": 0.5, "x_grid": [0.0, 0.3], "beta_grid": [30.0, 50.0]}
    out = tmp_path / "o"
    assert main(["sweep-delta", write_cfg(tmp_path, cfg), "--out-dir", str(out)]) == 1
    blank = ["x=0.0/beta=30.0", "x=0.0/beta=50.0", "x=0.3/beta=50.0"]
    assert ", ".join(blank) in capsys.readouterr().err
    rows = [ln.split(",") for ln in (out / "delta_star.csv").read_text().splitlines()[2:]]
    assert [(float(r[0]), float(r[1])) for r in rows if r[3] == ""] == \
        [(0.0, 30.0), (0.0, 50.0), (0.3, 50.0)]
    assert json.loads((out / "manifest.json").read_text())["not_converged"] == blank


def test_sweep_delta_unbiased_cells_match_closed_form(tmp_path):
    # at x = 1 all four rates are 0.1 and Delta* = p(1-p) a/(2-a) at every beta
    for p in (0.1, 0.3, 0.5, 0.7):
        cfg = {"kind": "sweep-delta", "p": p, "x_grid": [0.9, 1, 1.1],
               "beta_grid": [0, 1.0, 5.0]}
        out = tmp_path / str(p)
        run_scenario(write_cfg(tmp_path, cfg), out_dir=str(out))
        rows = [ln.split(",") for ln in (out / "delta_star.csv").read_text().splitlines()[2:]]
        cells = [float(r[3]) for r in rows if float(r[0]) == 1.0]
        assert len(cells) == 3
        for d in cells:
            assert abs(d - p * (1 - p) * 0.1 / 1.9) <= 1e-15, (p, d)


def test_switch_rate_run(tmp_path):
    cfg = {"kind": "switch-rate",
           "environment": {"p1": 0.5, "p2": 0.5, "counterfactual": True,
                           "horizon": 8},
           "agent": {"type": "bayes", "beta": 6.0},
           "ensemble": {"replicas": 200}, "seed": 4}
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
               "agent": agent, "ensemble": {"replicas": 2000}, "seed": 0}
        path = write_cfg(tmp_path, cfg, f"{policy}-{kind}.json")
        assert check_config(cfg)[1] == []
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
           "ensemble": {"replicas": 200}, "seed": 4}
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
        assert banditlab.fit_families([s], restarts=3, seed=4, stream_index=4 * i) == [batch[i]]
    # one session is a batch of one; a bare session is not a batch
    with pytest.raises(TypeError):
        banditlab.fit_families(sessions[0], restarts=3, seed=4)


def test_threads_below_one_are_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CONFIGS["sweep-delta"])
    for threads in ("0", "-1"):
        out = tmp_path / f"t{threads}"
        assert main(["sweep-delta", cfg, "--out-dir", str(out), "--threads", threads]) == 2
        assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("kind", ["fit", "sweep-delta"])
def test_run_scenario_rejects_threads_below_one(tmp_path, kind):
    # a fit used to die inside np.array_split, and other kinds ignored it
    for threads in (0, -1):
        with pytest.raises(ConfigError, match=f"--threads must be at least 1, got {threads}"):
            run_scenario(CONFIGS[kind], out_dir=str(tmp_path / "o"), threads=threads)
    assert not (tmp_path / "o").exists()


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
