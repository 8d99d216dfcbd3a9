"""Switch-rate predictor vs direct simulation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from banditlab import (
    BayesAgentSpec,
    count_values,
    Environment,
    LearningRateSet,
    Policy,
    QAgentSpec,
    StepSchedule,
    ensemble_switch_rate,
)
from banditlab.switching import _count_after, _k_mixture, _q_after


def k_at(q1, q2, rates, p1, p2, beta, t=0, counterfactual=True, mode="softmax"):
    """The exact one-step switching probability of a Q-agent at values (q1, q2)."""
    return _k_mixture(q1, q2, _q_after(q1, q2, rates, t, counterfactual), p1, p2,
                      Policy(beta, mode))


def mc_one_step(q1, q2, apc, amc, apu, amu, p1, p2, beta, n, seed):
    """Simulate one trial + re-decision for n independent agents."""
    rng = np.random.default_rng(seed)
    pi1 = expit(beta * (q1 - q2))
    a0 = np.where(rng.random(n) < pi1, 1, 2)
    r1 = rng.random(n) < p1
    r2 = rng.random(n) < p2
    c1 = a0 == 1
    rc = np.where(c1, r1, r2)
    ru = np.where(c1, r2, r1)
    gain_c = np.where(rc, apc, 0.0)
    loss_c = np.where(rc, 0.0, amc)
    gain_u = np.where(ru, apu, 0.0)
    loss_u = np.where(ru, 0.0, amu)
    nq1 = np.where(c1, q1 + gain_c * (1 - q1) - loss_c * q1,
                   q1 + gain_u * (1 - q1) - loss_u * q1)
    nq2 = np.where(c1, q2 + gain_u * (1 - q2) - loss_u * q2,
                   q2 + gain_c * (1 - q2) - loss_c * q2)
    a1 = np.where(rng.random(n) < expit(beta * (nq1 - nq2)), 1, 2)
    return float(np.mean(a0 != a1))


def test_indifferent_policy_switches_half_the_time():
    rates = LearningRateSet(0.3, 0.1, 0.05, 0.2)
    for q in ((0.5, 0.5), (0.9, 0.1), (0.2, 0.7)):
        assert k_at(*q, rates, 0.8, 0.3, beta=0.0) == pytest.approx(0.5)


def test_frozen_values_switch_like_two_coin_flips():
    rates = LearningRateSet(0.0, 0.0, 0.0, 0.0)
    for beta in (0.5, 3.0, 10.0):
        for q1, q2 in ((0.6, 0.4), (0.5, 0.5), (0.1, 0.8)):
            pi1 = expit(beta * (q1 - q2))
            want = 2.0 * pi1 * (1.0 - pi1)
            assert k_at(q1, q2, rates, 0.5, 0.5, beta) == pytest.approx(want, abs=1e-14)


def test_k_mixture_matches_monte_carlo():
    q1, q2, beta = 0.6, 0.4, 5.0
    rates = LearningRateSet(0.1, 0.1, 0.1, 0.1)
    k = k_at(q1, q2, rates, 0.5, 0.5, beta)
    n = 1_000_000
    k_hat = mc_one_step(q1, q2, 0.1, 0.1, 0.1, 0.1, 0.5, 0.5, beta, n, seed=7)
    se = np.sqrt(k * (1 - k) / n)
    assert abs(k - k_hat) < 4 * se


def test_no_feedback_on_unchosen_equals_zero_rates():
    q = (0.55, 0.35)
    full = LearningRateSet(0.2, 0.1, 0.15, 0.25)
    zeroed = LearningRateSet(0.2, 0.1, 0.0, 0.0)
    a = k_at(*q, full, 0.7, 0.4, beta=4.0, counterfactual=False)
    b = k_at(*q, zeroed, 0.7, 0.4, beta=4.0, counterfactual=True)
    assert a == pytest.approx(b, abs=1e-15)


def test_k_mixture_monotone_in_each_rate():
    # stabilising rates push K down, destabilising rates push it up
    rng = np.random.default_rng(42)
    base = (0.2, 0.2, 0.2, 0.2)
    for _ in range(50):
        q = (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        p1, p2 = rng.uniform(0.1, 0.9, size=2)
        beta = rng.uniform(0.5, 8.0)
        k0 = k_at(*q, LearningRateSet(*base), p1, p2, beta)
        for i, sign in enumerate([-1, +1, +1, -1]):  # apc, amc, apu, amu
            bumped = list(base)
            bumped[i] += 0.15
            k1 = k_at(*q, LearningRateSet(*bumped), p1, p2, beta)
            assert sign * (k1 - k0) >= -1e-12


def test_greedy_k_mixture_enumerates_reward_pairs():
    # greedy choice is deterministic, so K is the probability of the reward
    # pairs after which the other arm's value is strictly higher
    apc, amc, apu, amu = 0.3, 0.1, 0.1, 0.3
    rates = LearningRateSet(apc, amc, apu, amu)
    p1, p2 = 0.7, 0.4

    def moved(q, r, a_plus, a_minus):
        return q + (a_plus if r else a_minus) * (r - q)

    for q1, q2 in ((0.55, 0.45), (0.45, 0.55), (0.5, 0.5), (0.9, 0.1), (0.3, 0.32)):
        arm1 = q1 >= q2
        want = 0.0
        for r1 in (0, 1):
            for r2 in (0, 1):
                w = (p1 if r1 else 1 - p1) * (p2 if r2 else 1 - p2)
                if arm1:
                    n1, n2 = moved(q1, r1, apc, amc), moved(q2, r2, apu, amu)
                else:
                    n1, n2 = moved(q1, r1, apu, amu), moved(q2, r2, apc, amc)
                want += w * ((n1 >= n2) != arm1)
        k = k_at(q1, q2, rates, p1, p2, beta=5.0, mode="greedy")
        assert k == pytest.approx(want, abs=1e-15)
    # (0.55, 0.45) keeps arm 1 unless arm 1 fails and arm 2 pays: 0.3 * 0.4
    assert k_at(0.55, 0.45, rates, p1, p2, 5.0, mode="greedy") == pytest.approx(0.12)


def assert_analytic_tracks_realized(series):
    resid = series.analytic_mean - series.empirical_mean
    se = np.sqrt(series.analytic_se**2 + series.empirical_se**2)
    assert np.all(np.abs(resid) <= 5 * se)


def test_ensemble_analytic_tracks_realized_switches():
    env = Environment(p1=0.5, p2=0.5, counterfactual=True, horizon=30)
    agent = QAgentSpec(LearningRateSet.constant(0.15), Policy(beta=5.0))
    series = ensemble_switch_rate(agent, env, n_replicas=4000, seed=11)
    assert series.t.shape == (30,)
    assert_analytic_tracks_realized(series)
    # learning suppresses switching relative to the first trials
    assert series.analytic_mean[-1] < series.analytic_mean[0]


@pytest.mark.parametrize("counterfactual", [True, False])
def test_ensemble_supports_bayes_agents(counterfactual):
    env = Environment(p1=0.5, p2=0.5, counterfactual=counterfactual, horizon=25)
    series = ensemble_switch_rate(BayesAgentSpec(Policy(beta=8.0)), env,
                                  n_replicas=4000, seed=3)
    assert_analytic_tracks_realized(series)


GREEDY = Policy(beta=5.0, mode="greedy")


@pytest.mark.parametrize("rates", [LearningRateSet.constant(0.15),
                                   StepSchedule(0.3, 0.02, 20)],
                         ids=["constant", "step"])
def test_greedy_q_ensembles_track_realized_switches(rates):
    env = Environment(p1=0.5, p2=0.5, counterfactual=True, horizon=40)
    series = ensemble_switch_rate(QAgentSpec(rates, GREEDY), env, n_replicas=4000, seed=11)
    assert_analytic_tracks_realized(series)
    # the first trial's state is shared, so its K is exact: arm 1 is kept
    # unless it fails while arm 2 pays
    assert series.analytic_mean[0] == pytest.approx(0.25)


@pytest.mark.parametrize("counterfactual", [True, False])
def test_greedy_bayes_ensembles_track_realized_switches(counterfactual):
    env = Environment(p1=0.5, p2=0.5, counterfactual=counterfactual, horizon=25)
    series = ensemble_switch_rate(BayesAgentSpec(GREEDY), env, n_replicas=4000, seed=3)
    assert_analytic_tracks_realized(series)


def test_rate_drop_schedule_suppresses_late_switching():
    env = Environment(p1=0.5, p2=0.5, counterfactual=True, horizon=40)
    tau = 20
    sched = StepSchedule(0.3, 0.02, tau)
    slow = QAgentSpec(sched, Policy(beta=5.0))
    flat = QAgentSpec(LearningRateSet.constant(0.3), Policy(beta=5.0))
    s_slow = ensemble_switch_rate(slow, env, n_replicas=3000, seed=5)
    s_flat = ensemble_switch_rate(flat, env, n_replicas=3000, seed=5)
    # identical streams before the cut, then an immediate dip in switching
    np.testing.assert_allclose(s_slow.analytic_mean[:tau], s_flat.analytic_mean[:tau],
                               rtol=0, atol=1e-12)
    assert s_slow.analytic_mean[tau] < s_flat.analytic_mean[tau] - 0.02
    assert int(np.argmin(s_slow.analytic_mean)) >= tau
    # with the rate frozen low, value spreads wash out and switching creeps up
    assert s_slow.analytic_mean[-1] > s_slow.analytic_mean[tau]



def k_reference(v1, v2, after, p1, p2, policy):
    """The eight-outcome sum with one ``after`` call per outcome."""
    pi1 = policy.choice_prob(v1, v2)
    k = 0.0
    for chose1 in (1, 0):
        pc, pu = (p1, p2) if chose1 else (p2, p1)
        for rc in (0, 1):
            for ru in (0, 1):
                w = (pc if rc else 1.0 - pc) * (pu if ru else 1.0 - pu)
                n1, n2 = after(chose1, rc, ru) if chose1 else after(chose1, ru, rc)
                stay1 = policy.choice_prob(n1, n2)
                if chose1:
                    k = k + pi1 * w * (1.0 - stay1)
                else:
                    k = k + (1.0 - pi1) * w * stay1
    return k


unit = st.floats(0.0, 1.0)
counts = st.tuples(st.integers(0, 30), st.integers(0, 30)).map(sorted)  # (s, n), s <= n


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(unit, unit, counts, counts), min_size=1, max_size=12),
       st.tuples(unit, unit, unit, unit), unit, unit, st.floats(0.0, 60.0),
       st.sampled_from(["softmax", "greedy"]), st.booleans(), st.booleans())
def test_k_mixture_equals_per_outcome_sum(states, rates, p1, p2, beta, mode, cf, bayes):
    policy = Policy(beta, mode)
    if bayes:
        s1, n1, s2, n2 = np.array([x[2] + x[3] for x in states], dtype=np.int64).T
        v1, v2 = count_values(s1, n1, s2, n2)
        after = _count_after(s1, n1, s2, n2, cf)
    else:
        v1, v2 = (np.array(v) for v in zip(*(x[:2] for x in states)))
        after = _q_after(v1, v2, LearningRateSet(*rates), 0, cf)
    got = _k_mixture(v1, v2, after, p1, p2, policy)
    assert got.tobytes() == k_reference(v1, v2, after, p1, p2, policy).tobytes()
    # and on the first state as Python scalars
    if bayes:
        one = [int(c[0]) for c in (s1, n1, s2, n2)]
        w1, w2 = count_values(*one)
        after = _count_after(*one, cf)
    else:
        w1, w2 = float(v1[0]), float(v2[0])
        after = _q_after(w1, w2, LearningRateSet(*rates), 0, cf)
    got = _k_mixture(w1, w2, after, p1, p2, policy)
    assert type(got) is float and got == k_reference(w1, w2, after, p1, p2, policy)
