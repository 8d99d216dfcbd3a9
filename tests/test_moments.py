"""Moment-propagation oracles: exact enumerations, closed forms, symmetry checks."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from banditlab import (
    BayesSchedule,
    ConvergenceError,
    LearningRateSet,
    MomentState,
    StepSchedule,
    bias_sensitivity,
    confirmation_index,
    propagate_moments,
    q_step,
    steady_state_delta,
    step_moments,
    x_curve_rates,
)
from banditlab.moments import _arm_factors, _steady_state_delta_quadratic, _steady_state_moments


def step_moments_bayes(m, alpha_t, p):
    """Reference exact moment step for unbiased agents at a common rate
    alpha_t: equal rates decouple the moments from action selection."""
    a = alpha_t
    k = 1.0 - a
    m1n = k * m.m1 + p * a
    m12n = k * k * m.m12 + 2 * p * a * k * m.m1 + p * p * a * a
    m11n = k * k * m.m11 + 2 * p * a * k * m.m1 + p * a * a
    return MomentState(m1n, m11n, m12n)


def symmetric_pair_moments(a, b):
    # ensemble {(a,b),(b,a)} with equal weight satisfies the m1=m2 reduction
    return MomentState((a + b) / 2.0, (a * a + b * b) / 2.0, a * b)


def exact_step_symmetric_pair(a, b, rates, p):
    """One exact master-equation step at beta=0 from the two-atom ensemble
    {(a,b),(b,a)}, by enumerating action x reward-pair outcomes."""
    m1 = m11 = m12 = 0.0
    for qa, qb in ((a, b), (b, a)):
        for chosen in (1, 2):
            for r1, r2 in product((0, 1), repeat=2):
                w = 0.5 * 0.5 * (p if r1 else 1 - p) * (p if r2 else 1 - p)
                q1, q2 = q_step(qa, qb, chosen == 1, r1, r2, *rates.at(0))
                m1 += w * q1
                m11 += w * q1 * q1
                m12 += w * q1 * q2
    return MomentState(m1, m11, m12)


@pytest.mark.parametrize("rates", [
    LearningRateSet(0.15, 0.05, 0.05, 0.15),
    LearningRateSet(0.3, 0.1, 0.2, 0.4),
    LearningRateSet(0.12, 0.0, 0.0, 0.5),
    LearningRateSet.constant(0.1),
])
@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_step_matches_exact_enumeration_at_beta_zero(rates, p):
    for a, b in ((0.5, 0.5), (0.6, 0.4), (0.9, 0.2)):
        m = symmetric_pair_moments(a, b)
        got = step_moments(m, rates, p, 0.0)
        want = exact_step_symmetric_pair(a, b, rates, p)
        np.testing.assert_allclose(
            [got.m1, got.m11, got.m12], [want.m1, want.m11, want.m12],
            rtol=0, atol=1e-12)


def test_arm_factors_match_reward_enumeration():
    # each role's one-step factors, rebuilt in exact arithmetic by summing
    # over the arm's own reward
    apc, amc, apu, amu = Fraction(3, 20), Fraction(1, 20), Fraction(1, 10), Fraction(2, 5)
    p = Fraction(3, 10)
    for a_pos, a_neg in ((apc, amc), (apu, amu)):
        want = [Fraction(0)] * 5
        for r, w in ((1, p), (0, 1 - p)):
            a = a_pos if r else a_neg
            for i, v in enumerate((1 - a, a * r, (1 - a) ** 2, 2 * a * (1 - a) * r, a * a * r)):
                want[i] += w * v
        assert list(_arm_factors(a_pos, a_neg, p)) == want


@pytest.mark.parametrize("rates", [LearningRateSet.constant(0.1),
                                   LearningRateSet.constant(0.37),
                                   BayesSchedule()])
def test_policy_coupled_terms_vanish_at_equal_rates(rates):
    # step_moments multiplies every beta-dependent expectation by a
    # chosen-minus-unchosen difference; at equal rates each is exactly 0.0,
    # so the step does not depend on beta at all
    m = MomentState(0.41, 0.2, 0.15)
    for t in (0, 1, 7, 40):
        for p in (0.2, 0.5, 0.9):
            apc, amc, apu, amu = rates.at(t)
            kc, gc, sc, hc, ec = _arm_factors(apc, amc, p)
            ku, gu, su, hu, eu = _arm_factors(apu, amu, p)
            assert (kc - ku, gc - gu, sc - su, hc - hu, ec - eu) == (0.0,) * 5
            assert gu * kc - gc * ku == 0.0
            assert step_moments(m, rates, p, 7.0, t) == step_moments(m, rates, p, 0.0, t)


def enumerate_bayes_moments(p, horizon):
    """Brute-force moments of the decaying-rate unbiased learner by walking
    all 4^t reward sequences."""
    q1 = np.array([0.5])
    q2 = np.array([0.5])
    w = np.array([1.0])
    out = [MomentState(0.5, 0.25, 0.25)]
    for t in range(horizon):
        a = 1.0 / (t + 3)
        nq1, nq2, nw = [], [], []
        for r1, r2 in product((0, 1), repeat=2):
            pw = (p if r1 else 1 - p) * (p if r2 else 1 - p)
            nq1.append(q1 + a * (r1 - q1))
            nq2.append(q2 + a * (r2 - q2))
            nw.append(w * pw)
        q1 = np.concatenate(nq1)
        q2 = np.concatenate(nq2)
        w = np.concatenate(nw)
        out.append(MomentState(float(np.sum(w * q1)),
                               float(np.sum(w * q1 * q1)),
                               float(np.sum(w * q1 * q2))))
    return out


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_bayes_recursion_matches_enumeration(p):
    horizon = 6
    series = propagate_moments(MomentState.point_mass(0.5), BayesSchedule(), p, 0.0, horizon)
    oracle = enumerate_bayes_moments(p, horizon)
    for got, want in zip(series, oracle):
        np.testing.assert_allclose(
            [got.m1, got.m11, got.m12], [want.m1, want.m11, want.m12],
            rtol=0, atol=1e-12)


def test_unbiased_closure_reduces_to_bayes_recursion():
    # with equal rates the policy-coupled terms must cancel identically
    for alpha, p, beta in product((0.05, 0.3, 0.7), (0.2, 0.5), (0.0, 2.0, 7.0)):
        rates = LearningRateSet.constant(alpha)
        m = MomentState(0.41, 0.2, 0.15)
        got = step_moments(m, rates, p, beta)
        want = step_moments_bayes(m, alpha, p)
        np.testing.assert_allclose(
            [got.m1, got.m11, got.m12], [want.m1, want.m11, want.m12],
            rtol=0, atol=1e-12)


def test_propagate_with_decaying_schedule_matches_bayes_propagation():
    series_q = propagate_moments(MomentState.point_mass(0.5),
                                 BayesSchedule(), 0.6, 5.0, 30)
    series_b = [MomentState.point_mass(0.5)]
    for t in range(30):
        series_b.append(step_moments_bayes(series_b[-1], 1.0 / (t + 3), 0.6))
    for mq, mb in zip(series_q, series_b):
        np.testing.assert_allclose([mq.m1, mq.m11, mq.m12],
                                   [mb.m1, mb.m11, mb.m12], rtol=0, atol=1e-12)


def test_steady_state_iteration_agrees_with_quadratic():
    for x in (0.6, 1.0, 1.3):
        for beta in (1.0, 3.0):
            rates = x_curve_rates(x)
            it = _steady_state_moments(rates, 0.5, beta)[0].delta
            quad = _steady_state_delta_quadratic(rates, 0.5, beta)
            assert it == pytest.approx(quad, abs=1e-8)
    # near unbiased rates off p = 1/2 the quadratic term vanishes; its roots
    # must not lose digits to cancellation
    for p, dx, sign, beta in product((0.3, 0.6), (1e-3, 1e-4, 1e-5), (-1, 1),
                                     (0.1, 0.5, 3.0)):
        rates = x_curve_rates(1.0 + sign * dx)
        it = _steady_state_moments(rates, p, beta)[0].delta
        quad = _steady_state_delta_quadratic(rates, p, beta)
        assert it == pytest.approx(quad, abs=1e-10)


def test_steady_state_is_where_propagation_settles():
    # an accepted cell's moments are the closure trajectory's, bit for bit,
    # at the step where the map settled
    accepted = 0
    for x, p, beta in product((0.0, 0.5, 1.0, 1.3, 2.0), (0.1, 0.5, 0.8), (0.5, 5.0, 50.0)):
        rates = x_curve_rates(x)
        try:
            steady_state_delta(rates, p, beta)
        except ConvergenceError:
            continue
        m, n = _steady_state_moments(rates, p, beta)
        assert m == propagate_moments(MomentState.point_mass(0.5), rates, p, beta, n)[-1]
        accepted += 1
    assert accepted == 32


@pytest.mark.parametrize("x, beta, leaves_at", [(0.0, 30.0, 10), (0.3, 50.0, 8)])
def test_no_steady_state_where_propagation_leaves_the_unit_interval(x, beta, leaves_at):
    # the quadratic has an admissible root here, but the closure's trajectory
    # from the point mass leaves [0, 1], so the root is no steady state
    rates = x_curve_rates(x)
    assert 0.0 <= _steady_state_delta_quadratic(rates, 0.5, beta) <= 0.25
    series = propagate_moments(MomentState.point_mass(0.5), rates, 0.5, beta, leaves_at)
    assert all(0.0 <= v <= 1.0 for m in series[:-1] for v in m)
    assert not all(0.0 <= v <= 1.0 for v in series[-1])
    with pytest.raises(ConvergenceError):
        steady_state_delta(rates, 0.5, beta)


def test_steady_state_unbiased_is_beta_independent():
    rates = LearningRateSet.constant(0.1)
    ds = [steady_state_delta(rates, 0.5, b) for b in (0.0, 1.0, 5.0, 20.0)]
    assert max(ds) - min(ds) < 1e-10
    assert ds[0] == pytest.approx(0.25 * 0.1 / 1.9, abs=1e-10)


def test_confirmation_bias_raises_steady_state_gap():
    d_unbiased = steady_state_delta(x_curve_rates(1.0), 0.5, 3.0)
    d_biased = steady_state_delta(x_curve_rates(1.4), 0.5, 3.0)
    assert d_biased > d_unbiased
    # and the effect grows with the inverse temperature
    d_hot = steady_state_delta(x_curve_rates(1.4), 0.5, 1.0)
    assert d_biased > d_hot


def test_steady_state_diverges_cleanly_when_feedback_too_strong():
    with pytest.raises(ConvergenceError):
        steady_state_delta(x_curve_rates(1.5), 0.5, 5.0)
    # the iteration settles, but on a gap outside [0, 1/4] (<Q1Q2> < 0 here)
    m, _ = _steady_state_moments(x_curve_rates(1.22), 0.5, 10.0)
    assert m.delta > 0.25 and m.m12 < 0
    for p in (0.4, 0.5):
        with pytest.raises(ConvergenceError):
            steady_state_delta(x_curve_rates(1.22), p, 10.0)


def test_steady_state_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        _steady_state_moments(LearningRateSet(0, 0, 0, 0), 0.5, 1.0)
    with pytest.raises(ValueError):
        _steady_state_moments(BayesSchedule(), 0.5, 1.0)


@pytest.mark.parametrize("rates", [BayesSchedule(), StepSchedule(0.5, 0.5, 3),
                                   LearningRateSet(0, 0, 0, 0)],
                         ids=["bayes", "step", "zero"])
@pytest.mark.parametrize("solve", [_steady_state_moments, _steady_state_delta_quadratic],
                         ids=["steady_state_moments", "steady_state_delta_quadratic"])
def test_steady_state_needs_constant_positive_rates(solve, rates):
    # a schedule has no steady state and all-zero rates never move; the
    # quadratic used to return a gap for the schedules and divide by zero
    with pytest.raises(ValueError, match="steady state"):
        solve(rates, 0.5, 1.0)


@pytest.mark.parametrize("beta", [0.0, 0.049, float("nan")])
def test_bias_sensitivity_needs_beta_of_at_least_its_step(beta):
    # the mixed derivative steps beta by 0.05 each way, and the closure has
    # no negative inverse temperature
    with pytest.raises(ValueError, match="beta"):
        bias_sensitivity(1.2, 0.5, beta)
    assert bias_sensitivity(1.2, 0.5, 0.05).d_delta_dbias > 0


def test_bias_sensitivity_signs():
    s = bias_sensitivity(1.2, 0.5, 3.0)
    assert s.d_delta_dbias > 0
    assert s.d2_delta_dbeta_dbias > 0
    with pytest.raises(ValueError):
        bias_sensitivity(1.2, 1.0, 3.0)


def test_x_curve_and_confirmation_index():
    r = x_curve_rates(1.0)
    assert (r.a_plus_c, r.a_minus_c, r.a_plus_u, r.a_minus_u) == (0.1,) * 4
    for x in (0.2, 0.9, 1.0, 1.7):
        assert confirmation_index(x_curve_rates(x)) == pytest.approx(x - 1,
                                                                     abs=1e-12)
    assert confirmation_index(LearningRateSet(0.3, 0.1, 0.1, 0.3)) == \
        pytest.approx(0.5, abs=1e-15)
    assert confirmation_index(LearningRateSet.constant(0.4)) == 0.0
    with pytest.raises(ValueError):
        confirmation_index(LearningRateSet(0, 0, 0, 0))


def test_confirmation_index_of_a_schedule_is_zero():
    # a schedule gives all four rates one value at every trial: it is unbiased
    for rates in (BayesSchedule(), StepSchedule(0.2, 0.2, 5), StepSchedule(0.3, 0.01, 0)):
        assert confirmation_index(rates) == 0.0


def test_moment_state_helpers():
    m = MomentState.point_mass(0.3)
    assert (m.m1, m.m11, m.m12) == (0.3, 0.09, 0.09)
    assert m.delta == 0.0
    assert MomentState(0.5, 0.30, 0.21).delta == pytest.approx(0.09)


def test_propagation_series_shape():
    series = propagate_moments(MomentState.point_mass(0.5),
                               LearningRateSet.constant(0.2), 0.5, 2.0, 10)
    assert len(series) == 11
    assert series[0] == MomentState.point_mass(0.5)
