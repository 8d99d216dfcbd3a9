"""Agent update rules, policies, schedules, and the decaying-rate equivalence."""

import warnings

import numpy as np
import pytest
from scipy.special import expit

from banditlab import (
    BayesAgentSpec,
    BayesSchedule,
    Environment,
    LearningRateSet,
    Policy,
    QAgentSpec,
    RngStream,
    StepSchedule,
    count_step,
    count_values,
    effective_rate,
    q_step,
    run_trajectory,
)

RATES = LearningRateSet(0.2, 0.1, 0.1, 0.3)


def test_q_update_worked_example():
    q1, q2 = q_step(0.5, 0.5, True, 1, 0, *RATES.at(0))
    assert q1 == pytest.approx(0.6, abs=1e-15)
    assert q2 == pytest.approx(0.35, abs=1e-15)


def test_q_update_zero_error_is_identity():
    assert q_step(1.0, 0.0, True, 1, 0, *RATES.at(0)) == (1.0, 0.0)


def test_q_update_zero_rates_is_identity():
    assert q_step(0.37, 0.81, False, 0, 1, 0.0, 0.0, 0.0, 0.0) == (0.37, 0.81)


def test_q_update_without_counterfactual_leaves_unchosen():
    q1, q2 = q_step(0.5, 0.5, True, 0, 1, 0.2, 0.1, 0.0, 0.0)
    assert q2 == 0.5
    assert q1 == pytest.approx(0.45, abs=1e-15)


def test_q_values_stay_in_unit_interval():
    rates = LearningRateSet(0.9, 0.8, 0.7, 1.0)
    rng = np.random.default_rng(0)
    q = (0.5, 0.5)
    for _ in range(500):
        chose1, r1, r2 = (bool(x) for x in rng.integers(2, size=3))
        q = q_step(*q, chose1, r1, r2, *rates.at(0))
        assert 0.0 <= q[0] <= 1.0 and 0.0 <= q[1] <= 1.0


def test_steps_on_arrays_equal_scalar_steps():
    # every mask combination, elementwise against the Python-scalar call
    rng = np.random.default_rng(1)
    n = 64
    chose1, r1, r2, cf = (rng.integers(2, size=n).astype(bool) for _ in range(4))
    v1, v2 = rng.random(n), rng.random(n)
    rates = rng.random((n, 4))
    counts = rng.integers(0, 5, size=(4, n))
    counts[1] += counts[0]
    counts[3] += counts[2]
    for i in range(n):
        apc, amc, apu, amu = rates[i]
        rates_i = (apc, amc, apu * cf[i], amu * cf[i])
        got = q_step(v1, v2, chose1, r1, r2, *rates_i)
        want = q_step(float(v1[i]), float(v2[i]), bool(chose1[i]), bool(r1[i]),
                      bool(r2[i]), *(float(a) for a in rates_i))
        assert (got[0][i], got[1][i]) == want
        got = count_step(*counts, chose1, r1, r2, bool(cf[i]))
        want = count_step(*(int(c) for c in counts[:, i]), bool(chose1[i]),
                          bool(r1[i]), bool(r2[i]), bool(cf[i]))
        assert tuple(int(g[i]) for g in got) == want
        assert tuple(float(v[i]) for v in count_values(*got)) == count_values(*want)


def test_indifferent_softmax_chooses_arm_one_below_half():
    # at beta = 0 arm 1 is chosen exactly when the trial's action draw is below 1/2
    env = Environment(0.7, 0.2, counterfactual=True, horizon=200)
    agents = (QAgentSpec(RATES, Policy(beta=0.0)), BayesAgentSpec(Policy(beta=0.0)))
    for agent in agents:
        traj = run_trajectory(agent, env, RngStream(8, 2))
        u = RngStream(8, 2).uniform_block((200, 3))
        assert traj.values1[-1] != traj.values2[-1]
        np.testing.assert_array_equal(traj.actions, np.where(u[:, 0] < 0.5, 1, 2))


def test_greedy_policy_ties_to_arm_one():
    # equal starting values choose arm 1; after that the larger value wins
    env = Environment(0.5, 0.5, counterfactual=True, horizon=60)
    rates = LearningRateSet.constant(0.3)
    agents = (QAgentSpec(rates, Policy(mode="greedy")), BayesAgentSpec(Policy(mode="greedy")))
    for agent in agents:
        traj = run_trajectory(agent, env, RngStream(4, 0))
        v1, v2 = traj.values1[:-1], traj.values2[:-1]
        np.testing.assert_array_equal(traj.actions, np.where(v1 >= v2, 1, 2))
        assert traj.actions[0] == 1
        assert np.any(v1 < v2) and np.any(v1 > v2)
    # the last agent, Bayesian, ties again whenever both arms share counts
    tied = v1 == v2
    assert tied[1:].any() and np.all(traj.actions[tied] == 1)


def ulps(a, b):
    """Units in the last place between arrays of nonnegative doubles."""
    return np.abs(np.asarray(a).view(np.int64) - np.asarray(b).view(np.int64))


# beta * |v1 - v2| from 0 up to 1e3, past where exp overflows
CHOICE_GRID = [(beta, *np.meshgrid(np.linspace(0.0, 1.0, 41), np.linspace(0.0, 1.0, 41)))
               for beta in (0.0, 0.3, 1.0, 5.0, 37.0, 710.0, 1e3)]


def test_choice_prob_keeps_scalars_and_arrays():
    soft, greedy = Policy(beta=2.0), Policy(beta=2.0, mode="greedy")
    p = soft.choice_prob(0.7, 0.2)
    assert type(p) is float and p == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), abs=1e-15)
    assert soft.choice_prob(0.2, 0.7) == pytest.approx(1.0 - p, abs=1e-15)
    assert [greedy.choice_prob(*v) for v in ((0.7, 0.2), (0.5, 0.5), (0.2, 0.7))] == [1.0, 1.0, 0.0]
    assert type(greedy.choice_prob(0.2, 0.7)) is float
    v1, v2 = np.array([0.7, 0.5, 0.2]), np.array([0.2, 0.5, 0.7])
    np.testing.assert_array_equal(greedy.choice_prob(v1, v2), [1.0, 1.0, 0.0])
    np.testing.assert_array_equal(soft.choice_prob(v1, v2),
                                  [soft.choice_prob(a, b) for a, b in zip(v1, v2)])
    # a Python-float call is its array element, bit for bit, across the grid
    for beta, v1, v2 in CHOICE_GRID:
        soft = Policy(beta)
        p = soft.choice_prob(v1, v2).ravel()
        for i, (a, b) in enumerate(zip(v1.ravel().tolist(), v2.ravel().tolist())):
            q = soft.choice_prob(a, b)
            assert type(q) is float and ulps(q, p[i]) == 0


def test_softmax_choice_prob_is_expit_within_four_ulps():
    # numpy's vectorized exp is accurate to about 2.5 ulp, libm's to under 1;
    # where numpy uses libm the two agree bit for bit
    for beta, v1, v2 in CHOICE_GRID:
        p = Policy(beta).choice_prob(v1, v2)
        assert ulps(p, expit(beta * (v1 - v2))).max() <= 4, beta
    v1, v2 = np.random.default_rng(5).uniform(0.0, 1.0, size=(2, 200_000))
    assert ulps(Policy(80.0).choice_prob(v1, v2), expit(80.0 * (v1 - v2))).max() <= 4
    assert Policy(0.0).choice_prob(0.9, 0.1) == 0.5


def test_softmax_choice_prob_saturates_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in (710.0, 1e3, 1e20):
            soft = Policy(beta)
            assert soft.choice_prob(1.0, 0.0) == 1.0 and soft.choice_prob(0.0, 1.0) == 0.0
            np.testing.assert_array_equal(
                soft.choice_prob(np.array([1.0, 0.0]), np.array([0.0, 1.0])), [1.0, 0.0])



def test_scalar_softmax_skips_the_error_state_bit_for_bit():
    # a pair of floats returns 0.0 above _EXP_MAX, the largest float whose exp
    # is finite, instead of switching numpy's error state; its array element
    # must agree bit for bit at the threshold, its neighbours and random pairs
    from banditlab.agents import _EXP_MAX
    up, down = np.nextafter(_EXP_MAX, np.inf), np.nextafter(_EXP_MAX, -np.inf)
    assert np.isfinite(np.exp(_EXP_MAX))
    with np.errstate(over="ignore"):
        assert np.exp(up) == np.inf
    edges = [_EXP_MAX, up, down, np.nextafter(up, np.inf), np.nextafter(down, -np.inf),
             0.0, -_EXP_MAX, 800.0, -800.0, np.inf, -np.inf, np.nan]
    rng = np.random.default_rng(11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta, v1, v2 in [(1.0, np.zeros(len(edges)), np.array(edges)),
                             (1.0, np.array(edges), np.zeros(len(edges))),
                             *[(beta, *rng.uniform(-1.0, 1.0, (2, 2000)))
                               for beta in (0.3, 5.0, 354.9, 710.0, 1e3, 1e20)]]:
            soft = Policy(beta)
            p = soft.choice_prob(v1, v2)
            q = np.array([soft.choice_prob(a, b) for a, b in zip(v1.tolist(), v2.tolist())])
            assert np.array_equal(np.isnan(p), np.isnan(q))
            assert np.array_equal(p[~np.isnan(p)].view(np.int64), q[~np.isnan(q)].view(np.int64))


def test_policy_validation():
    # a NaN beta would make every softmax draw pick arm 2
    for beta in (-1.0, float("nan"), float("inf"), -float("inf")):
        for mode in ("softmax", "greedy"):
            with pytest.raises(ValueError, match="beta"):
                Policy(beta=beta, mode=mode)
    with pytest.raises(ValueError):
        Policy(beta=1.0, mode="thompson")


def test_belief_update_examples():
    # (s1, n1, s2, n2): successes and observed outcomes per arm
    assert count_step(0, 0, 0, 0, True, 1, 0, False) == (1, 1, 0, 0)
    assert count_step(0, 0, 0, 0, True, 0, 1, True) == (0, 1, 1, 1)
    assert count_step(3, 5, 1, 2, False, 1, 0, False) == (3, 5, 1, 3)
    assert count_values(2, 3, 9, 9) == (3 / 5, 10 / 11)


def test_effective_rates():
    assert effective_rate(0) == pytest.approx(1 / 3)
    assert effective_rate(7) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        effective_rate(-1)


def test_rate_set_validation_and_constructors():
    with pytest.raises(ValueError):
        LearningRateSet(1.3, 0.1, 0.1, 0.1)
    with pytest.raises(ValueError):
        LearningRateSet(0.1, -0.2, 0.1, 0.1)
    c = LearningRateSet.constant(0.25)
    assert c.at(0) == (0.25,) * 4


def test_schedules_override_all_rates():
    rs = StepSchedule(0.1, 0.01, 25)
    assert rs.at(0) == (0.1,) * 4
    assert rs.at(24) == (0.1,) * 4
    assert rs.at(25) == (0.01,) * 4
    bs = BayesSchedule()
    assert bs.at(0) == (1 / 3,) * 4
    assert bs.at(7) == (0.1,) * 4


@pytest.mark.parametrize("args, name", [
    ((0.5, 1.5, 3), "alpha2"), ((-0.1, 0.5, 3), "alpha1"), ((float("nan"), 0.5, 3), "alpha1"),
    ((0.5, 0.1, -1), "tau_c"), ((0.5, 0.1, 2.0), "tau_c"), ((0.5, 0.1, True), "tau_c"),
])
def test_step_schedule_is_checked_when_built(args, name):
    # an out-of-range rate used to pass until the schedule reached it
    with pytest.raises(ValueError, match=name):
        StepSchedule(*args)
    assert StepSchedule(0.0, 1.0, np.int64(0)).at(0) == (1.0,) * 4


def test_unchosen_zero_property():
    assert LearningRateSet(0.2, 0.1, 0.0, 0.0).unchosen_zero
    assert not RATES.unchosen_zero


def test_trajectory_shapes_and_records():
    env = Environment(0.6, 0.4, counterfactual=True, horizon=30)
    traj = run_trajectory(QAgentSpec(RATES, Policy(beta=3.0)), env,
                          RngStream(11, 0))
    assert traj.n_trials == 30
    assert traj.actions.shape == (30,)
    assert traj.values1.shape == (31,)
    assert traj.values1[0] == 0.5
    assert set(np.unique(traj.actions)) <= {1, 2}


def test_bayes_trajectory_counts_both_arms():
    env = Environment(0.5, 0.5, counterfactual=True, horizon=20)
    traj = run_trajectory(BayesAgentSpec(Policy(beta=2.0)), env, RngStream(3, 1))
    # with counterfactual feedback each arm has t outcomes before trial t,
    # its rewards so far, whichever arm was chosen
    n = np.arange(21)
    s1, s2 = (np.concatenate([[0], np.cumsum(r)]) for r in (traj.rewards1, traj.rewards2))
    np.testing.assert_array_equal(traj.values1, (s1 + 1.0) / (n + 2.0))
    np.testing.assert_array_equal(traj.values2, (s2 + 1.0) / (n + 2.0))
    # a record keeps values, actions and rewards; the counts stay in the trial states
    assert not hasattr(traj, "counts")


def test_no_counterfactual_requires_zero_unchosen_rates():
    env = Environment(0.5, 0.5, counterfactual=False, horizon=5)
    with pytest.raises(ValueError):
        run_trajectory(QAgentSpec(RATES, Policy(beta=1.0)), env, RngStream(0, 0))
    ok = QAgentSpec(LearningRateSet(0.2, 0.1, 0.0, 0.0), Policy(beta=1.0))
    traj = run_trajectory(ok, env, RngStream(0, 0))
    assert traj.n_trials == 5


@pytest.mark.parametrize("rates", [StepSchedule(0.3, 0.05, 10), BayesSchedule()],
                         ids=["step", "bayes"])
def test_schedules_learn_only_the_chosen_arm_without_counterfactual_feedback(rates):
    # a schedule has no constant unchosen rates to reject; its own are
    # multiplied by the feedback flag, so the unchosen value never moves
    env = Environment(0.6, 0.4, counterfactual=False, horizon=30)
    traj = run_trajectory(QAgentSpec(rates, Policy(beta=3.0)), env, RngStream(2, 0))
    moved1 = np.diff(traj.values1) != 0.0
    moved2 = np.diff(traj.values2) != 0.0
    assert not np.any(np.where(traj.actions == 1, moved2, moved1))
    assert np.any(moved1) and np.any(moved2)


def test_bayes_agent_matches_decaying_rate_q_agent():
    # posterior means evolve exactly like the 1/(t+3)-schedule value learner
    env = Environment(0.5, 0.5, counterfactual=True, horizon=100)
    beta = 8.0
    for seed in range(20):
        tb = run_trajectory(BayesAgentSpec(Policy(beta=beta)), env,
                            RngStream(seed, 0))
        tq = run_trajectory(QAgentSpec(BayesSchedule(), Policy(beta=beta)),
                            env, RngStream(seed, 0))
        np.testing.assert_array_equal(tb.actions, tq.actions)
        np.testing.assert_allclose(tb.values1, tq.values1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(tb.values2, tq.values2, rtol=0, atol=1e-12)
