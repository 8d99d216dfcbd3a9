"""Likelihoods, model fits, and the recovery experiments."""

import functools
import hashlib
import itertools
import math
import tracemalloc
import warnings
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize, minimize_scalar
from scipy.special import logit
from scipy.stats import binomtest, qmc

from banditlab import fitting
from banditlab import (
    BayesAgentSpec,
    Environment,
    FitResult,
    LearningRateSet,
    Policy,
    QAgentSpec,
    SessionData,
    best_model,
    bic,
    count_step,
    count_values,
    fit_families,
    fit_subject,
    new_arm_curve,
    nll,
    recover_bias,
    q_step,
    synthesize_sessions,
    x_curve_rates,
)
from banditlab.fitting import (_FATOL, _FIT_STREAM_BASE, _XATOL, BETA_MAX, MAX_RESTARTS,
                               MODEL_FAMILIES, P_MIN, _embed, _evaluate, _nelder_mead,
                               _sign_test, _sobol, _start_points, _Tables, _unpack)

ENV24 = Environment(p1=0.5, p2=0.5, counterfactual=True, horizon=24)

FULL_GEN = {"a_plus_c": 0.3, "a_minus_c": 0.1, "a_plus_u": 0.1,
            "a_minus_u": 0.3, "beta": 5.0}


def one_session(agent, env, seed):
    return synthesize_sessions(agent, env, 1, seed=seed)[0]


def test_indifferent_temperature_gives_coin_flip_likelihood():
    s = one_session(BayesAgentSpec(Policy(beta=10.0)), ENV24, seed=1)
    want = 24 * math.log(2)
    assert nll("bayes", {"beta": 0.0}, s) == pytest.approx(want, abs=1e-12)
    assert nll("const", {"alpha": 0.4, "beta": 0.0}, s) == pytest.approx(want, abs=1e-12)
    assert nll("conf", {"alpha_confirm": 0.2, "alpha_disconfirm": 0.6, "beta": 0.0},
               s) == pytest.approx(want, abs=1e-12)
    assert nll("full", dict(FULL_GEN, beta=0.0), s) == pytest.approx(want, abs=1e-12)


def test_frozen_rates_collapse_full_onto_const():
    s = one_session(BayesAgentSpec(Policy(beta=10.0)), ENV24, seed=2)
    for beta in (0.5, 3.0, 12.0):
        a = nll("full", {"a_plus_c": 0.0, "a_minus_c": 0.0, "a_plus_u": 0.0,
                         "a_minus_u": 0.0, "beta": beta}, s)
        b = nll("const", {"alpha": 0.0, "beta": beta}, s)
        assert a == pytest.approx(b, abs=1e-14)


def test_tied_full_rates_collapse_onto_conf():
    s = one_session(BayesAgentSpec(Policy(beta=10.0)), ENV24, seed=3)
    a = nll("full", {"a_plus_c": 0.25, "a_minus_c": 0.1, "a_plus_u": 0.1,
                     "a_minus_u": 0.25, "beta": 4.0}, s)
    b = nll("conf", {"alpha_confirm": 0.25, "alpha_disconfirm": 0.1, "beta": 4.0}, s)
    assert a == pytest.approx(b, abs=1e-14)


def test_nll_validates_inputs():
    s = one_session(BayesAgentSpec(Policy(beta=10.0)), ENV24, seed=4)
    with pytest.raises(ValueError):
        nll("nope", {"beta": 1.0}, s)
    for beta in (-1.0, float("nan"), math.inf):
        with pytest.raises(ValueError, match="beta"):
            nll("bayes", {"beta": beta}, s)
        with pytest.raises(ValueError, match="beta"):
            nll("const", {"alpha": 0.3, "beta": beta}, s)
    with pytest.raises(ValueError):
        nll("const", {"alpha": 1.2, "beta": 1.0}, s)


def test_restarts_beyond_the_sobol_sequence_are_refused():
    # restart points are Sobol' points, and the 30-bit sequence has 2**30
    s = one_session(BayesAgentSpec(Policy(beta=10.0)), ENV24, seed=4)
    for restarts in (MAX_RESTARTS + 1, 2**31):
        for family in ("bayes", "conf", "full"):
            with pytest.raises(ValueError, match=r"restarts must be from 1 to 2\*\*30"):
                fit_subject(family, s, restarts=restarts)
        with pytest.raises(ValueError, match="restarts"):
            fit_families([s, s], ["conf"], restarts=restarts)
        with pytest.raises(ValueError, match="restarts"):
            recover_bias(BayesAgentSpec(Policy(beta=5.0)), ENV24, 2, restarts=restarts)
        # the generator refuses before it draws or allocates anything
        gen = np.random.Generator(np.random.Philox(1))
        with pytest.raises(ValueError, match=r"at most 2\*\*30 points"):
            _sobol(5, restarts, gen)
        assert gen.random() == np.random.Generator(np.random.Philox(1)).random()


def test_restarts_below_one_are_refused():
    s = one_session(BayesAgentSpec(Policy(beta=10.0)), ENV24, seed=4)
    for restarts in (0, -1):
        for family in ("bayes", "conf", "full"):
            with pytest.raises(ValueError, match="restarts"):
                fit_subject(family, s, restarts=restarts)
        with pytest.raises(ValueError, match="restarts"):
            fit_families([s], restarts=restarts)
        with pytest.raises(ValueError, match="restarts"):
            fit_families([s, s], ["conf"], restarts=restarts)
        with pytest.raises(ValueError, match="restarts"):
            recover_bias(BayesAgentSpec(Policy(beta=5.0)), ENV24, 2, restarts=restarts)


def test_vanishing_probabilities_are_clamped():
    # one trial against a near-certain policy hits the likelihood floor
    s = SessionData("X", np.array([1, 2], dtype=np.int8),
                    np.array([1, 1], dtype=np.int8),
                    np.array([1, 1], dtype=np.int8), True)
    params = {"a_plus_c": 1.0, "a_minus_c": 0.0, "a_plus_u": 0.0,
              "a_minus_u": 0.0, "beta": 50.0}
    # trial 0 at equal values costs ln 2; trial 1 is floored at 1e-10
    want = math.log(2.0) - math.log(1e-10)
    assert nll("full", params, s) == pytest.approx(want, abs=1e-9)


def test_generating_parameters_beat_perturbed_ones_on_long_sessions():
    env = Environment(p1=0.5, p2=0.5, counterfactual=True, horizon=500)
    agent = QAgentSpec(LearningRateSet(0.3, 0.1, 0.1, 0.3), Policy(beta=5.0))
    sessions = synthesize_sessions(agent, env, 200, seed=13)
    rng = np.random.default_rng(99)
    wins = 0
    for s in sessions:
        pert = dict(FULL_GEN)
        for name, d in zip(("a_plus_c", "a_minus_c", "a_plus_u", "a_minus_u"),
                           rng.choice([-0.1, 0.1], size=4)):
            pert[name] = float(np.clip(FULL_GEN[name] + d, 0.0, 1.0))
        if nll("full", FULL_GEN, s) <= nll("full", pert, s):
            wins += 1
    assert wins >= 190  # >= 95% of 200


def test_bic_table_arithmetic():
    assert bic(9.48, 1, 24) == pytest.approx(22.14, abs=0.02)
    assert bic(6.14, 5, 24) == pytest.approx(28.17, abs=0.02)
    assert bic(0.0, 0, 7) == 0.0
    # linear in nll with slope 2
    for df, n in ((1, 24), (5, 500)):
        assert bic(3.0, df, n) - bic(1.0, df, n) == pytest.approx(4.0, abs=1e-12)


def fr(model, b, df_n=24):
    from banditlab import MODEL_FAMILIES
    return FitResult("S", model, {}, 0.0, b, True, 1)


def test_best_model_rules():
    assert best_model([fr("bayes", 22.0), fr("full", 28.0),
                       fr("const", 25.0), fr("conf", 23.0)]) == "bayes"
    # exact tie goes to the smaller family
    assert best_model([fr("bayes", 22.0), fr("const", 22.0)]) == "bayes"
    assert best_model([fr("conf", 22.0), fr("const", 22.0)]) == "const"
    with pytest.raises(ValueError):
        best_model([fr("bayes", 22.0)])


def test_fit_is_deterministic():
    s = one_session(BayesAgentSpec(Policy(beta=10.0)), ENV24, seed=5)
    a = fit_subject("const", s, restarts=6, seed=3, stream_index=2)
    b = fit_subject("const", s, restarts=6, seed=3, stream_index=2)
    assert a.params == b.params and a.nll == b.nll
    assert a.bic == pytest.approx(2 * math.log(24) + 2 * a.nll, abs=1e-12)


def test_bayes_fit_ignores_restart_stream():
    s = one_session(BayesAgentSpec(Policy(beta=10.0)), ENV24, seed=6)
    a = fit_subject("bayes", s, restarts=5, seed=0, stream_index=0)
    b = fit_subject("bayes", s, restarts=50, seed=9, stream_index=77)
    assert a.params == b.params and a.nll == b.nll


def test_nested_families_never_fit_worse():
    sessions = synthesize_sessions(BayesAgentSpec(Policy(beta=10.0)), ENV24,
                                   5, seed=101)
    for i, s in enumerate(sessions):
        fits = fit_families([s], restarts=8, seed=0, stream_index=i * 4)[0]
        assert fits["full"].nll <= fits["conf"].nll + 1e-12
        assert fits["conf"].nll <= fits["const"].nll + 1e-12
        assert fits["full"].nll <= fits["const"].nll + 1e-12


def test_constant_rate_parameters_recover_from_long_sessions():
    env = Environment(p1=0.5, p2=0.5, counterfactual=True, horizon=500)
    agent = QAgentSpec(LearningRateSet.constant(0.3), Policy(beta=5.0))
    sessions = synthesize_sessions(agent, env, 10, seed=17)
    alphas, betas = [], []
    for i, s in enumerate(sessions):
        f = fit_subject("const", s, restarts=8, seed=0, stream_index=i)
        alphas.append(f.params["alpha"])
        betas.append(f.params["beta"])
    assert abs(float(np.median(alphas)) - 0.3) <= 0.05
    assert abs(float(np.median(betas)) - 5.0) <= 1.0


def test_noise_sessions_fit_with_low_temperature():
    # a beta=0 generator carries no reward-choice coupling to exploit
    agent = QAgentSpec(LearningRateSet.constant(0.3), Policy(beta=0.0))
    sessions = synthesize_sessions(agent, ENV24, 100, seed=21)
    b_bayes = [fit_subject("bayes", s).params["beta"] for s in sessions]
    assert float(np.median(b_bayes)) <= 0.2
    # the const family can also bend alpha toward the noise, which lifts
    # its fitted temperature, but nowhere near a real learner's value
    b_const = [fit_subject("const", s, restarts=6, seed=0, stream_index=i).params["beta"]
               for i, s in enumerate(sessions[:40])]
    assert float(np.median(b_const)) < 1.5


def test_bayes_generated_population_prefers_bayes_or_conf():
    sessions = synthesize_sessions(BayesAgentSpec(Policy(beta=10.0)), ENV24,
                                   12, seed=33)
    winners = []
    for i, s in enumerate(sessions):
        fits = fit_families([s], restarts=6, seed=0, stream_index=i * 4)[0]
        winners.append(best_model(list(fits.values())))
    modal = max(set(winners), key=winners.count)
    assert modal in ("bayes", "conf")


def test_greedy_bayes_agents_are_diagnosed_as_confirmation_biased():
    env = Environment(p1=0.5, p2=0.5, counterfactual=True, horizon=24)
    report = recover_bias(BayesAgentSpec(Policy(beta=10.0, mode="greedy")), env, 10,
                          seed=0, restarts=8)
    assert report.mean_rates["a_plus_c"] > report.mean_rates["a_minus_c"]
    assert report.mean_rates["a_minus_u"] > report.mean_rates["a_plus_u"]
    assert report.frac_positivity >= 0.7


def test_recovery_report_counts_signs_and_capped_betas():
    env = Environment(p1=0.5, p2=0.5, counterfactual=True, horizon=24)
    report = recover_bias(BayesAgentSpec(Policy(beta=10.0, mode="greedy")), env, 6,
                          seed=0, restarts=4)
    params = [f.params for f in report.fits]
    signs = report.sign_counts
    for arm, hi, lo, p in (("c", "a_plus_c", "a_minus_c", report.p_value_chosen),
                           ("u", "a_minus_u", "a_plus_u", report.p_value_unchosen)):
        gt = sum(q[hi] > q[lo] for q in params)
        lt = sum(q[hi] < q[lo] for q in params)
        assert (signs[f"{hi}>{lo}"], signs[f"{hi}<{lo}"]) == (gt, lt)
        assert p == float(_exact_sign_p(gt, gt + lt))  # two-sided
    assert signs["a_plus_c>a_minus_c"] / 6 == report.frac_positivity
    assert report.frac_beta_at_cap == np.mean([q["beta"] == BETA_MAX for q in params])
    assert report.frac_not_converged == np.mean([not f.converged for f in report.fits])
    rates = np.array([[q[k] for k in ("a_plus_c", "a_minus_c", "a_plus_u", "a_minus_u")]
                      for q in params])
    assert report.frac_rate_at_edge == np.mean((rates < 1e-6) | (rates > 1 - 1e-6))
    d = asdict(report)
    assert d["sign_counts"] == signs and d["frac_beta_at_cap"] == report.frac_beta_at_cap
    assert (d["frac_not_converged"], d["frac_rate_at_edge"]) == (
        report.frac_not_converged, report.frac_rate_at_edge)


def test_recovery_refits_any_agent_spec():
    # a confirmation-biased Q-learner, a generator named by no config key
    agent = QAgentSpec(x_curve_rates(1.5), Policy(10.0))
    report = recover_bias(agent, ENV24, 4, seed=3, restarts=3)
    sessions = synthesize_sessions(agent, ENV24, 4, 3, prefix="agent")
    assert [f.subject_id for f in report.fits] == [s.subject_id for s in sessions]
    for f, s in zip(report.fits, sessions):
        assert f.model == "full" and f.nll == nll("full", f.params, s)


def test_single_agent_recovery_has_no_significance():
    env = Environment(p1=0.5, p2=0.5, counterfactual=True, horizon=24)
    report = recover_bias(BayesAgentSpec(Policy(beta=10.0)), env, 1, seed=0, restarts=4)
    assert report.p_value_chosen is None
    assert report.p_value_unchosen is None
    assert report.n_agents == 1
    d = asdict(report)
    assert d["p_value_chosen"] is None


def test_new_arm_preference_rises_with_its_reward_rate():
    s = one_session(BayesAgentSpec(Policy(beta=10.0)), ENV24, seed=8)
    fits = fit_families([s], families=("bayes", "full"), restarts=8, seed=0)[0]
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    pts = new_arm_curve(fits["bayes"], fits["full"], s, grid, reps=4000, seed=5)
    assert len(pts) == 2 * len(grid)
    for model in ("bayes", "full"):
        curve = [p for p in pts if p.model == model]
        assert [p.p3 for p in curve] == grid
        for lo, hi in zip(curve, curve[1:]):
            assert hi.choice_prob >= lo.choice_prob - 2 * (lo.stderr + hi.stderr)
        assert all(0.0 <= p.choice_prob <= 1.0 for p in curve)


def test_new_arm_with_flat_temperature_is_indifferent():
    s = one_session(BayesAgentSpec(Policy(beta=10.0)), ENV24, seed=9)
    flat_b = FitResult(s.subject_id, "bayes", {"beta": 0.0}, 0.0, 0.0, True, 0)
    flat_q = FitResult(s.subject_id, "full", dict(FULL_GEN, beta=0.0),
                       0.0, 0.0, True, 0)
    pts = new_arm_curve(flat_b, flat_q, s, [0.2, 0.8], reps=500, seed=1)
    for p in pts:
        assert p.choice_prob == pytest.approx(0.5, abs=1e-12)


def test_new_arm_rejects_mismatched_subject():
    s1 = synthesize_sessions(BayesAgentSpec(Policy(beta=10.0)), ENV24, 1,
                             seed=10, prefix="A")[0]
    s2 = synthesize_sessions(BayesAgentSpec(Policy(beta=10.0)), ENV24, 1,
                             seed=11, prefix="B")[0]
    fits = fit_families([s1], families=("bayes", "full"), restarts=4, seed=0)[0]
    with pytest.raises(ValueError):
        new_arm_curve(fits["bayes"], fits["full"], s2, [0.5], reps=10)
    # a Q-family fit in the bayes slot is refused too
    with pytest.raises(ValueError):
        new_arm_curve(fits["full"], fits["full"], s1, [0.5], reps=10)
    # as are draws too few for a standard error, and no pulls of the new arm
    with pytest.raises(ValueError, match="reps"):
        new_arm_curve(fits["bayes"], fits["full"], s1, [0.5], reps=1)
    with pytest.raises(ValueError, match="n3"):
        new_arm_curve(fits["bayes"], fits["full"], s1, [0.5], n3=0, reps=10)


def test_lockstep_simplex_takes_scipys_steps():
    # lanes that converge, lanes that run out of budget (noise at every
    # scale makes the simplex shrink often, so some run out inside a
    # shrink), a plateau full of ties, and the fit objective on a greedy
    # session
    def rosen(y):
        return float(np.sum(100.0 * (y[1:] - y[:-1] ** 2) ** 2 + (1.0 - y[:-1]) ** 2))

    def steps(y):
        return float(np.sum(np.floor(4.0 * np.abs(y))))

    def noise(y):
        digest = hashlib.blake2b(y.tobytes(), digest_size=8).digest()
        return int.from_bytes(digest, "little") / 2.0**64

    session = synthesize_sessions(BayesAgentSpec(Policy(mode="greedy")), ENV24, 1, seed=4)[0]
    tab = _Tables([session])

    def fit_nll(y):
        return float(_evaluate(tab, "full", [0], _unpack(y[None]))[0][0])

    rng = np.random.default_rng(7)
    cases = [(rosen, rng.normal(size=(4, 5))), (rosen, rng.normal(size=(3, 2))),
             (steps, rng.normal(size=(3, 3))), (noise, rng.normal(size=(8, 5))),
             (fit_nll, _start_points("full", 4, 0, 0))]
    outcomes = set()
    for fn, x0 in cases:
        x, fun, f0, nfev, ok = _nelder_mead(lambda pts, ix: np.array([fn(p) for p in pts]), x0)
        for i in range(len(x0)):
            res = minimize(fn, x0[i], method="Nelder-Mead",
                           options={"fatol": _FATOL, "xatol": _XATOL})
            assert np.array_equal(res.x, x[i]) and res.fun == fun[i], (fn.__name__, i)
            assert (res.nfev, res.success) == (nfev[i], ok[i]), (fn.__name__, i)
            assert f0[i] == fn(x0[i])
            outcomes.add(bool(ok[i]))
    assert outcomes == {True, False}


def _brent_bayes_fit(session):
    """(beta, NLL) of a bayes fit by the 201-point grid scan and a bounded
    Brent search between the grid minimum's neighbours, keeping the grid
    point where Brent does worse: the reference the simplex refinement is
    held to."""
    tab = _Tables([session])
    grid = np.linspace(0.0, BETA_MAX, 201)
    vals = _evaluate(tab, "bayes", np.zeros(grid.size, dtype=int), grid[:, None])[0]
    j = int(np.argmin(vals))
    res = minimize_scalar(lambda b: _evaluate(tab, "bayes", [0], np.array([[b]]))[0][0],
                          bounds=(grid[max(j - 1, 0)], grid[min(j + 1, grid.size - 1)]),
                          method="bounded", options={"xatol": 1e-10})
    return (res.x, res.fun) if res.fun <= vals[j] else (grid[j], vals[j])


def test_bayes_fit_is_as_good_as_a_bounded_brent_search():
    # both feedback modes and choice rules, Bayesian and Q generators; noise
    # agents fit at beta = 0 and greedy ones at BETA_MAX
    greedy = Policy(mode="greedy")
    generators = [
        (BayesAgentSpec(Policy(0.0)), True, 24), (BayesAgentSpec(Policy(0.0)), False, 60),
        (BayesAgentSpec(Policy(4.0)), False, 24), (BayesAgentSpec(Policy(10.0)), True, 60),
        (BayesAgentSpec(greedy), True, 24), (BayesAgentSpec(greedy), False, 60),
        (QAgentSpec(LearningRateSet(0.3, 0.1, 0.1, 0.3), Policy(5.0)), True, 24),
        (QAgentSpec(LearningRateSet(0.3, 0.1, 0.0, 0.0), greedy), False, 60)]
    sessions = []
    for k, (agent, cf, horizon) in enumerate(generators):
        env = Environment(p1=0.7, p2=0.4, counterfactual=cf, horizon=horizon)
        sessions += synthesize_sessions(agent, env, 25, seed=k, prefix=f"G{k}-")
    # a trial at the P_MIN floor, where the NLL stops being convex in beta:
    # arm 1 pays and is chosen for 20 trials, arm 2 is chosen once against a
    # posterior gap of 10/11, the arms swap until arm 1 leads by one success,
    # then both pay for 100 trials while arm 1 is chosen
    a = np.array([1] * 20 + [2] + [1] * 119, dtype=np.int8)
    r1 = np.array([1] * 21 + [0] * 19 + [1] * 100, dtype=np.int8)
    r2 = np.array([0] * 21 + [1] * 19 + [1] * 100, dtype=np.int8)
    sessions.append(SessionData("floor", a, np.where(a == 1, r1, r2), np.where(a == 1, r2, r1),
                                True))
    fits = [f["bayes"] for f in fit_families(sessions, families=("bayes",))]
    refs = [_brent_bayes_fit(s) for s in sessions]
    for fit, (beta, value) in zip(fits, refs):
        assert fit.converged and fit.restarts_used == 0, fit.subject_id
        assert fit.nll <= value + 1e-9, fit.subject_id
        # an edge fit lands exactly on the edge, as the reference's does
        for edge in (0.0, BETA_MAX):
            assert (fit.params["beta"] == edge) == (beta == edge), fit.subject_id
    edges = [sum(f.params["beta"] == edge for f in fits) for edge in (0.0, BETA_MAX)]
    assert min(edges) > 0 and fits[-1].clamped


def test_fit_subject_without_a_converged_restart_returns_its_best_point():
    # a subject known to fail: 40 softmax (beta 8) Bayesian sessions, T=30,
    # seed 5, subject 35, full family, 6 restarts from fit seed 2
    env = Environment(p1=0.6, p2=0.4, counterfactual=True, horizon=30)
    sessions = synthesize_sessions(BayesAgentSpec(Policy(beta=8.0)), env, 40, seed=5)
    best = fit_subject("full", sessions[35], restarts=6, seed=2, stream_index=35 * 4 + 3)
    assert not best.converged and best.restarts_used == 6
    assert best.nll == nll("full", best.params, sessions[35])
    # its best point, pinned bit for bit
    assert best == FitResult(
        "S0035", "full", {"a_plus_c": 0.21086924635508833, "a_minus_c": 2.2830765709719556e-07,
                          "a_plus_u": 0.2988803491081183, "a_minus_u": 0.003578930644341411,
                          "beta": 50.0},
        8.881688200728721, 34.769363309768224, False, 6, False, 6000)
    # the batch path keeps the same point
    batch = fit_families(sessions[34:36], families=("full",), restarts=6, seed=2,
                         stream_index=34 * 4)
    assert batch[1]["full"] == best and batch[0]["full"].converged


def fold_session(trials, cf, rates, beta, bayes):
    """Terminal values and NLL of a session by folding the learning steps
    one trial at a time, with the log-sigmoid choice cost and P_MIN cap."""
    apc, amc, apu, amu = rates
    counts = (0, 0, 0, 0)
    q = (0.5, 0.5)
    total = 0.0
    for a, rc, ru in trials:
        v1, v2 = count_values(*counts) if bayes else q
        x = (-beta if a == 1 else beta) * (v1 - v2)
        total += min(max(x, 0.0) + math.log1p(math.exp(-abs(x))), -math.log(P_MIN))
        chose1 = a == 1
        r1, r2 = (rc, ru) if chose1 else (ru, rc)
        counts = count_step(*counts, chose1, r1, r2, cf)
        q = q_step(*q, chose1, r1, r2, apc, amc, apu * cf, amu * cf)
    return (count_values(*counts) if bayes else q), total


trial = st.tuples(st.sampled_from((1, 2)), st.integers(0, 1), st.integers(0, 1))
unit = st.floats(0.0, 1.0)
drawn_session = st.tuples(st.lists(trial, min_size=1, max_size=60), st.booleans(),
                          st.tuples(unit, unit, unit, unit), st.floats(0.0, 50.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(drawn_session, min_size=1, max_size=4), st.booleans())
def test_engine_equals_folded_learning_steps(drawn, bayes):
    # a batch of sessions of mixed lengths and feedback, padded together
    sessions, params = [], []
    for i, (trials, cf, rates, beta) in enumerate(drawn):
        a, rc, ru = (np.array(c, dtype=np.int8) for c in zip(*trials))
        sessions.append(SessionData(f"S{i}", a, rc, ru if cf else None, cf))
        params.append([beta] if bayes else [*rates, beta])
    got = _evaluate(_Tables(sessions), "bayes" if bayes else "full",
                    np.arange(len(drawn)), np.array(params))
    for i, (trials, cf, rates, beta) in enumerate(drawn):
        (v1, v2), total = fold_session(trials, cf, rates, beta, bayes)
        assert abs(got[2][i] - v1) <= 1e-12 and abs(got[3][i] - v2) <= 1e-12
        assert abs(got[0][i] - total) <= 1e-9


@pytest.mark.parametrize("cf", [True, False])
@pytest.mark.parametrize("mode", ["greedy", "softmax"])
def test_bayes_scan_rounds_like_counts_on_long_sessions(mode, cf):
    # the bayes family's values come from the Q scan at rates 1/(n + 3), not
    # from the counts; on long Bayesian sessions at p1 = p2, where the counts
    # tie often (both arms' counts equal t under complete feedback), its end
    # values stay within 2e-15 of the posterior means and its NLL within
    # 1e-12 (relative) of the sum the counts give
    betas = np.array([0.0, 10.0, 50.0])
    agent = BayesAgentSpec(Policy(beta=10.0, mode=mode))
    for T in (24, 100, 1000):
        env = Environment(p1=0.5, p2=0.5, counterfactual=cf, horizon=T)
        sessions = synthesize_sessions(agent, env, 50, seed=T)
        S = len(sessions)
        got = _evaluate(_Tables(sessions), "bayes", np.repeat(np.arange(S), betas.size),
                        np.tile(betas, S)[:, None])
        chose1 = np.array([s.actions == 1 for s in sessions]).T
        rc = np.array([s.r_chosen for s in sessions]).T
        ru = np.array([s.r_unchosen if cf else np.zeros(T) for s in sessions]).T
        counts = (np.zeros(S, dtype=np.int64),) * 4
        cost = np.empty((T, S, betas.size))
        for t in range(T):
            v1, v2 = count_values(*counts)
            x = np.where(chose1[t], -1.0, 1.0)[:, None] * betas * (v1 - v2)[:, None]
            cost[t] = np.minimum(np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))),
                                 -math.log(P_MIN))
            r1, r2 = np.where(chose1[t], rc[t], ru[t]), np.where(chose1[t], ru[t], rc[t])
            counts = count_step(*counts, chose1[t], r1, r2, cf)
        v1, v2 = count_values(*counts)
        assert np.abs(got[2] - np.repeat(v1, betas.size)).max() <= 2e-15, T
        assert np.abs(got[3] - np.repeat(v2, betas.size)).max() <= 2e-15, T
        want = np.array([math.fsum(c) for c in cost.reshape(T, -1).T])
        assert (np.abs(got[0] - want) <= 1e-12 * want).all(), T


Q_FAMILIES =[name for name, fam in MODEL_FAMILIES.items() if fam.rate_columns is not None]


@settings(max_examples=100, deadline=None)
@given(drawn_session)
def test_embedding_keeps_the_likelihood_of_every_earlier_family(drawn):
    trials, cf, rates, beta = drawn
    a, rc, ru = (np.array(c, dtype=np.int8) for c in zip(*trials))
    s = SessionData("S", a, rc, ru if cf else None, cf)
    for k, earlier in enumerate(Q_FAMILIES):
        names = MODEL_FAMILIES[earlier].param_names
        p = {**dict(zip(names[:-1], rates)), "beta": beta}
        for later in Q_FAMILIES[k + 1:]:
            assert nll(later, _embed(later, earlier, p), s) == nll(earlier, p, s)



def mixed_batch():
    """Four sessions of 24, 24, 100 and 110 trials under both feedback
    modes, so that all but the longest are padded."""
    sessions = []
    for i, (horizon, cf) in enumerate(((24, True), (24, False), (100, True), (110, False))):
        env = Environment(p1=0.7, p2=0.4, counterfactual=cf, horizon=horizon)
        sessions += synthesize_sessions(BayesAgentSpec(Policy(5.0)), env, 1, seed=i,
                                        prefix=f"T{horizon}-")
    return _Tables(sessions)


def test_engine_values_do_not_depend_on_its_passes(monkeypatch):
    # the engine scores points in passes of at most _MAX_CELLS (point, trial)
    # cells; every output must be the same bit for bit whether a point is
    # scored alone, in a few passes or in one, and for the empty point set
    # that the lockstep's budget-limited shrink sends
    tab = mixed_batch()
    rng = np.random.default_rng(3)
    caps = (1, 7, 64, 500, fitting._MAX_CELLS, 1 << 30)
    for family, fam in MODEL_FAMILIES.items():
        for n in (0, 1, 400):
            sess = rng.integers(0, len(tab.ids), n)
            params = rng.uniform(0.0, 1.0, (n, fam.df))
            params[:, -1] *= BETA_MAX
            params[:n // 2, -1] *= 1e3  # betas past BETA_MAX: some trials hit P_MIN
            outs = []
            for cap in caps:
                monkeypatch.setattr(fitting, "_MAX_CELLS", cap)
                outs.append(_evaluate(tab, family, sess, params))
            for out in outs:
                assert [(a.dtype, a.shape, a.tobytes()) for a in out] == [
                    (a.dtype, a.shape, a.tobytes()) for a in outs[-1]], family
            assert outs[0][0].shape == (n,)
            if n > 1:
                assert outs[0][1].any() and not outs[0][1].all(), family


@pytest.mark.parametrize("family", ["full", "bayes"])
def test_an_engine_call_holds_one_small_pass_at_a_time(family):
    # 600 points at T = 110 span five passes of at most 2**14 cells; a pass of
    # any family holds its signs and three (T, P, 2) float buffers, 56 bytes
    # a cell, and lets them go before the next
    tab = mixed_batch()
    rng = np.random.default_rng(4)
    sess = rng.integers(0, len(tab.ids), 600)
    params = rng.uniform(0.0, 1.0, (600, MODEL_FAMILIES[family].df))
    bound = 1.6 * 2**20
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _evaluate(tab, family, sess, params)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak / 2**20:.2f} MiB over {bound / 2**20:.2f} MiB"


def _scipy_sobol(d, n, seed, stream):
    gen = np.random.Generator(np.random.Philox(
        np.random.SeedSequence([seed % 2**64, _FIT_STREAM_BASE + stream])))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # n that is not a power of two
        return qmc.Sobol(d, scramble=True, seed=gen).random(n)


def _spawned(seed, stream):
    # the child generator scipy's engine spawns from the one it is given
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(
        [seed % 2**64, _FIT_STREAM_BASE + stream]).spawn(1)[0]))


SOBOL_STREAMS = [(seed, stream) for seed in (0, 1, 7, 2**63 + 5, -3)
                 for stream in (0, 1, 35, 2_001)]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_sobol_points_are_scipys_bit_for_bit(d):
    for seed, stream in SOBOL_STREAMS:
        for n in (1, 2, 3, 4, 32, 64):
            ours = _sobol(d, n, _spawned(seed, stream))
            ref = _scipy_sobol(d, n, seed, stream)
            assert ours.dtype == ref.dtype and ours.shape == ref.shape == (n, d)
            assert np.array_equal(ours, ref), (d, n, seed, stream)


@pytest.mark.parametrize("family", ["const", "conf", "full"])
def test_start_points_are_scipy_sobol_points(family):
    d = MODEL_FAMILIES[family].df
    for restarts in (1, 3, 20, 33):
        for seed, stream in SOBOL_STREAMS[:6]:
            n = 1 << max(int(np.ceil(np.log2(restarts))), 0)
            u = _scipy_sobol(d, n, seed, stream)[:restarts]
            ref = np.empty_like(u)
            ref[:, :-1] = logit(0.02 + 0.96 * u[:, :-1])
            ref[:, -1] = math.log(0.1) + u[:, -1] * (math.log(BETA_MAX) - math.log(0.1))
            assert np.array_equal(_start_points(family, restarts, seed, stream), ref)


@functools.cache
def _binomial_row(n):
    """C(n, 0), ..., C(n, n), each exactly from the one before."""
    row = list(itertools.accumulate(range(1, n + 1), lambda c, j: c * (n + 1 - j) // j,
                                    initial=1))
    assert sum(row) == 2**n and row[n // 2] == math.comb(n, n // 2)
    return row


def _exact_sign_p(k, n):
    """The two-sided sign test's p-value for k of n at 1/2, as a fraction:
    P(K <= m) + P(K >= n - m) with m = min(k, n - k), or 1 for an even split."""
    m = min(k, n - k)
    return Fraction(1) if 2 * m == n else Fraction(2 * sum(_binomial_row(n)[:m + 1]), 2**n)


def test_sign_test_is_the_exact_tail_rounded_once():
    # every split of n untied pairs for n <= 129, around criterion 2's 500
    # agents and a few at n = 10,000; one tied pair keeps the n = 1 case testable
    splits = [(k, n) for n in [*range(1, 130), 499, 500, 501, 1000] for k in range(n + 1)]
    splits += [(k, 10_000) for k in (0, 1, 4_800, 4_900, 4_999, 5_000, 5_001, 9_999)]
    for i, (k, n) in enumerate(splits):
        x, y = [1] * k + [0] * (n - k) + [0], [0] * k + [1] * (n - k) + [0]
        gt, lt, p = _sign_test(x, y)
        assert (gt, lt) == (k, n - k)
        assert type(p) is float and p == float(_exact_sign_p(k, n)), (k, n)
        # scipy sums Boost's tails in floating point, off by at most 1.0e-13;
        # the exact oracle above checks every split, scipy a fixed sample
        if n == 10_000 or i % 10 == 0:
            assert p == pytest.approx(binomtest(k, n, 0.5).pvalue, rel=1e-12, abs=0), (k, n)
    # exactly 3882 / 2**15, where binomtest gives 0.11846923828124999
    assert _sign_test([1] * 4 + [0] * 11, [0] * 4 + [1] * 11)[2] == 0.11846923828125
    # undecidable: fewer than two pairs, or no untied pair
    assert _sign_test([], []) == (0, 0, None)
    assert _sign_test([0.4], [0.2]) == (1, 0, None)
    assert _sign_test([0.3, 0.3, 0.1], [0.3, 0.3, 0.1]) == (0, 0, None)
