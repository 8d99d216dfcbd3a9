"""End-to-end acceptance checks, one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line
per criterion.  The slowest entries are the two 500-agent recovery
ensembles in criterion 2 (under a minute together) and criterion 8's
fits; everything else is seconds.
"""

import json
import math

import numpy as np
import pytest
from scipy.stats import binomtest, mannwhitneyu

from banditlab import (
    BayesAgentSpec,
    BayesSchedule,
    Environment,
    LearningRateSet,
    MomentState,
    Policy,
    QAgentSpec,
    RngStream,
    StepSchedule,
    bias_sensitivity,
    bic,
    ensemble_switch_rate,
    ensemble_value_moments,
    fit_families,
    fit_subject,
    propagate_moments,
    recover_bias,
    run_trajectory,
    steady_state_delta,
    step_moments,
    synthesize_sessions,
    x_curve_rates,
)
from banditlab.cli import run_scenario
from banditlab.fitting import BETA_MAX


def test_criterion_1_bayes_maps_onto_scheduled_q_learning():
    env = Environment(p1=0.5, p2=0.5, counterfactual=True, horizon=200)
    bayes = BayesAgentSpec(Policy(beta=10.0))
    q = QAgentSpec(BayesSchedule(), Policy(beta=10.0))
    for seed in range(100):
        tb = run_trajectory(bayes, env, RngStream(seed, 0))
        tq = run_trajectory(q, env, RngStream(seed, 0))
        np.testing.assert_array_equal(tb.actions, tq.actions)
        np.testing.assert_allclose(tb.values1, tq.values1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(tb.values2, tq.values2, rtol=0, atol=1e-12)


def _rate_gaps(report, larger, smaller):
    return np.array([f.params[larger] - f.params[smaller] for f in report.fits])


def test_criterion_2_spurious_bias_recovery():
    # Under counterfactual feedback an action does not change what is
    # observed, so the Bayes-optimal choice rule is greedy on the posterior
    # means.  At T=24 the 5-parameter refit is not null even for an
    # unbiased constant-rate learner (its fitted beta mostly sits at the
    # cap, and the rate asymmetry follows where it sits), so the matched
    # control is the estimator's null: the Bayesian ensemble's asymmetry is
    # judged against it, not against zero.
    env = Environment(p1=0.5, p2=0.5, counterfactual=True, horizon=24)
    greedy = Policy(beta=10.0, mode="greedy")
    rep = recover_bias(BayesAgentSpec(greedy), env, 500, seed=0)
    ctl = recover_bias(QAgentSpec(LearningRateSet.constant(0.3), greedy), env, 500, seed=0)
    mr = rep.mean_rates
    checks = [
        ("mean chosen-arm rates ordered a_plus_c > a_minus_c",
         mr["a_plus_c"] > mr["a_minus_c"],
         f"{mr['a_plus_c']:.4f} vs {mr['a_minus_c']:.4f}"),
        ("mean unchosen-arm rates ordered a_minus_u > a_plus_u",
         mr["a_minus_u"] > mr["a_plus_u"],
         f"{mr['a_minus_u']:.4f} vs {mr['a_plus_u']:.4f}"),
    ]
    for arm, larger, smaller in (("chosen", "a_plus_c", "a_minus_c"),
                                 ("unchosen", "a_minus_u", "a_plus_u")):
        gap = _rate_gaps(rep, larger, smaller)
        gap_ctl = _rate_gaps(ctl, larger, smaller)
        gt, lt = int((gap > 0).sum()), int((gap < 0).sum())
        p_sign = binomtest(gt, gt + lt, 0.5, alternative="greater").pvalue
        checks.append((f"{arm}-arm one-sided sign test {larger} > {smaller}, p < 0.01",
                       p_sign < 0.01, f"{gt}/{lt}, p = {p_sign:.3g}"))
        p_mw = mannwhitneyu(gap, gap_ctl, alternative="greater").pvalue
        gt_c, lt_c = int((gap_ctl > 0).sum()), int((gap_ctl < 0).sum())
        checks.append((f"{arm}-arm {larger} - {smaller} larger than the "
                       "control's (one-sided Mann-Whitney), p < 0.01",
                       p_mw < 0.01,
                       f"control {gt_c}/{lt_c}, p = {p_mw:.3g}"))
    at_cap = {name: np.mean([f.params["beta"] >= BETA_MAX for f in r.fits])
              for name, r in (("bayes", rep), ("const_q", ctl))}
    assert all(ok for _, ok, _ in checks), (
        "greedy-generated ensembles do not reproduce every clause:\n  "
        + "\n  ".join(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}"
                      for name, ok, detail in checks)
        + f"\n  fitted beta at its cap of {BETA_MAX:g}: "
          f"{at_cap['bayes']:.0%} Bayesian, {at_cap['const_q']:.0%} control"
        + "\n(see demos/spurious_bias_demo.py)")


def enumerate_outcome_tree(p, t_max):
    """Literal 4^t walk over both arms' reward sequences."""
    acc = [[0.0, 0.0, 0.0] for _ in range(t_max + 1)]

    def walk(a1, a2, t, w):
        q1 = (a1 + 1.0) / (t + 2.0)
        q2 = (a2 + 1.0) / (t + 2.0)
        acc[t][0] += w * q1
        acc[t][1] += w * q1 * q1
        acc[t][2] += w * q1 * q2
        if t == t_max:
            return
        for r1 in (0, 1):
            for r2 in (0, 1):
                pw = (p if r1 else 1.0 - p) * (p if r2 else 1.0 - p)
                walk(a1 + r1, a2 + r2, t + 1, w * pw)

    walk(0, 0, 0, 1.0)
    return acc


def test_criterion_3_moment_recursions_match_oracles():
    # exact posterior-mean recursions vs brute-force outcome enumeration
    for p in (0.3, 0.5):
        series = propagate_moments(MomentState.point_mass(0.5), BayesSchedule(), p, 0.0, 8)
        acc = enumerate_outcome_tree(p, 8)
        for t, m in enumerate(series):
            assert m.m1 == pytest.approx(acc[t][0], abs=1e-12)
            assert m.m11 == pytest.approx(acc[t][1], abs=1e-12)
            assert m.m12 == pytest.approx(acc[t][2], abs=1e-12)

    # closed constant-rate system vs a large simulated ensemble at beta=0
    env = Environment(p1=0.5, p2=0.5, counterfactual=True, horizon=100)
    agent = QAgentSpec(LearningRateSet.constant(0.1), Policy(beta=0.0))
    mom = ensemble_value_moments(agent, env, 100_000, seed=2024)
    closed = propagate_moments(MomentState.point_mass(0.5),
                               LearningRateSet.constant(0.1), 0.5, 0.0, 100)
    for t in range(1, 101):
        assert abs(closed[t].m1 - mom.mean1[t]) <= 3 * mom.se1[t]
        assert abs(closed[t].m11 - mom.mean11[t]) <= 3 * mom.se11[t]
        assert abs(closed[t].m12 - mom.mean12[t]) <= 3 * mom.se12[t]


def test_criterion_4_constant_rate_steady_state_formula():
    for alpha in (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9):
        rates = LearningRateSet.constant(alpha)
        for p in np.arange(0.1, 0.95, 0.1):
            p = float(p)
            want = p * (1.0 - p) * alpha / (2.0 - alpha)
            m = MomentState.point_mass(0.5)
            for _ in range(100_000):
                m = step_moments(m, rates, p, 0.0)
                if abs(m.delta - want) < 1e-10:
                    break
            assert abs(m.delta - want) < 1e-10, (alpha, p)
            for beta in (0.0, 1.0, 5.0, 50.0):
                assert abs(steady_state_delta(rates, p, beta) - want) < 1e-10, (alpha, p, beta)


def test_criterion_5_confirmation_raises_value_splitting():
    for p in (0.3, 0.5, 0.7):
        for beta in (1.0, 3.0, 5.0):
            s = bias_sensitivity(1.2, p, beta)
            assert s.d_delta_dbias > 0, (p, beta)
            assert s.d2_delta_dbeta_dbias > 0, (p, beta)
        # without bias the split is temperature-independent
        stars = [steady_state_delta(x_curve_rates(1.0), p, beta)
                 for beta in (1.0, 3.0, 5.0)]
        assert max(stars) - min(stars) < 1e-10


def test_criterion_6_switching_rate_phenomenology():
    env = Environment(p1=0.5, p2=0.5, counterfactual=True, horizon=100)
    unbiased = ensemble_switch_rate(
        QAgentSpec(x_curve_rates(1.0), Policy(beta=5.0)), env, 10_000, seed=7)
    confirm = ensemble_switch_rate(
        QAgentSpec(x_curve_rates(1.5), Policy(beta=5.0)), env, 10_000, seed=7)
    assert np.all(confirm.analytic_mean[50:] < unbiased.analytic_mean[50:])

    sched = StepSchedule(0.1, 0.01, 25)
    stepped = ensemble_switch_rate(
        QAgentSpec(sched, Policy(beta=5.0)), env, 10_000, seed=7)
    k = stepped.analytic_mean
    assert k[25] < k[24] - 0.003          # sudden drop at the rate cut
    assert int(np.argmin(k)) >= 25        # minimum sits after the cut
    assert k[-1] > k[25]                  # then a slow rise

    for series in (unbiased, confirm, stepped):
        se = np.sqrt(series.analytic_se**2 + series.empirical_se**2)
        assert np.all(np.abs(series.analytic_mean - series.empirical_mean)
                      <= 4 * se)


def test_criterion_7_bic_convention_matches_reported_table():
    assert bic(9.48, 1, 24) == pytest.approx(22.14, abs=0.02)
    assert bic(6.14, 5, 24) == pytest.approx(28.17, abs=0.02)


def test_criterion_8_nesting_and_parameter_recovery():
    env24 = Environment(p1=0.5, p2=0.5, counterfactual=True, horizon=24)
    bayes_sessions = synthesize_sessions(BayesAgentSpec(Policy(beta=10.0)),
                                         env24, 100, seed=51)
    const_agent = QAgentSpec(LearningRateSet.constant(0.3), Policy(beta=5.0))
    const_sessions = synthesize_sessions(const_agent, env24, 100, seed=52)
    for sessions in (bayes_sessions, const_sessions):
        # session i fits from restart streams 4 i + k, as when fitted alone
        for fits in fit_families(sessions, families=("const", "conf", "full"),
                                 restarts=12, seed=0):
            assert fits["full"].nll <= fits["conf"].nll + 1e-6
            assert fits["conf"].nll <= fits["const"].nll + 1e-6
            assert fits["full"].nll <= fits["const"].nll + 1e-6

    env500 = Environment(p1=0.5, p2=0.5, counterfactual=True, horizon=500)
    sessions = synthesize_sessions(const_agent, env500, 100, seed=53)
    alphas, betas = [], []
    for i, s in enumerate(sessions):
        f = fit_subject("const", s, restarts=8, seed=0, stream_index=i)
        alphas.append(f.params["alpha"])
        betas.append(f.params["beta"])
    assert abs(float(np.median(alphas)) - 0.3) <= 0.05
    assert abs(float(np.median(betas)) - 5.0) <= 0.2 * 5.0


def test_criterion_9_reruns_are_byte_identical(tmp_path):
    sim_cfg = {
        "kind": "simulate",
        "environment": {"p1": 0.6, "p2": 0.4, "counterfactual": True,
                        "horizon": 20},
        "agent": {"type": "bayes", "beta": 8.0},
        "ensemble": {"replicas": 5, "seed": 99},
        "output": {"sessions": True},
    }
    data_dir = tmp_path / "data"
    (tmp_path / "sim.json").write_text(json.dumps(sim_cfg))
    run_scenario(tmp_path / "sim.json", out_dir=str(data_dir))
    prop_cfg = {"kind": "propagate", "p": 0.5, "beta": 3.0, "n_steps": 50,
                "rates": {"a_plus_c": 0.15, "a_minus_c": 0.05,
                          "a_plus_u": 0.05, "a_minus_u": 0.15}, "seed": 99}
    fit_cfg = {"kind": "fit", "sessions": str(data_dir / "sessions.csv"),
               "families": ["bayes", "const"], "restarts": 3, "seed": 99}
    for name, cfg in (("sim", sim_cfg), ("prop", prop_cfg), ("fit", fit_cfg)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        first, second = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        run_scenario(path, out_dir=str(first))
        run_scenario(path, out_dir=str(second))
        data_files = [p.name for p in first.iterdir() if p.name != "manifest.json"]
        assert data_files
        for fname in data_files:
            assert (first / fname).read_bytes() == (second / fname).read_bytes(), \
                (name, fname)
