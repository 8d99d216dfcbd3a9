"""Vectorized ensemble engine vs the scalar trajectory runner."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from banditlab import (
    BayesAgentSpec,
    Environment,
    LearningRateSet,
    Policy,
    QAgentSpec,
    RngStream,
    StepSchedule,
    Trajectory,
    ensemble_switch_rate,
    ensemble_value_moments,
    iter_value_chunks,
    run_trajectory,
)
from banditlab import agents, mc, sessions, switching


def collect(agent, env, n, seed, chunk_size):
    q1_parts, q2_parts, a_parts = [], [], []
    for chunk in iter_value_chunks(agent, env, n, seed, chunk_size=chunk_size):
        chunk = chunk.record()
        q1_parts.append(chunk.values1)
        q2_parts.append(chunk.values2)
        a_parts.append(chunk.actions)
    return (np.concatenate(q1_parts), np.concatenate(q2_parts),
            np.concatenate(a_parts))


def test_q_agent_chunks_match_scalar_runs_exactly():
    env = Environment(p1=0.6, p2=0.4, counterfactual=True, horizon=40)
    agent = QAgentSpec(LearningRateSet(0.3, 0.1, 0.1, 0.3), Policy(beta=5.0))
    q1, q2, actions = collect(agent, env, 10, seed=123, chunk_size=4)
    assert q1.shape == (10, 41) and actions.shape == (10, 40)
    for i in range(10):
        traj = run_trajectory(agent, env, RngStream(123, i))
        np.testing.assert_array_equal(q1[i], traj.values1)
        np.testing.assert_array_equal(q2[i], traj.values2)
        np.testing.assert_array_equal(actions[i], traj.actions)


@pytest.mark.parametrize("counterfactual", [True, False])
@pytest.mark.parametrize("mode", ["softmax", "greedy"])
def test_bayes_agent_chunks_match_posterior_means(mode, counterfactual):
    # criterion 2's setting, where a value recursion breaks greedy ties
    # differently from the counts for many agents
    env = Environment(p1=0.5, p2=0.5, counterfactual=counterfactual, horizon=24)
    agent = BayesAgentSpec(Policy(beta=10.0, mode=mode))
    n = 500
    q1, q2, actions = collect(agent, env, n, seed=0, chunk_size=128)
    for i in range(n):
        traj = run_trajectory(agent, env, RngStream(0, i))
        np.testing.assert_array_equal(actions[i], traj.actions)
        np.testing.assert_array_equal(q1[i], traj.values1)
        np.testing.assert_array_equal(q2[i], traj.values2)


def test_chunk_size_does_not_change_results():
    env = Environment(p1=0.7, p2=0.3, counterfactual=True, horizon=15)
    agent = QAgentSpec(LearningRateSet.constant(0.2), Policy(beta=3.0))
    a = collect(agent, env, 23, seed=5, chunk_size=23)
    b = collect(agent, env, 23, seed=5, chunk_size=3)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_ensemble_moments_equal_direct_averages(monkeypatch):
    env = Environment(p1=0.5, p2=0.5, counterfactual=True, horizon=20)
    agent = QAgentSpec(LearningRateSet(0.12, 0.08, 0.08, 0.12), Policy(beta=4.0))
    n = 500
    monkeypatch.setattr(mc, "DEFAULT_CHUNK", 64)  # eight chunks, the last one partial
    mom = ensemble_value_moments(agent, env, n, seed=9)
    q1, q2, _ = collect(agent, env, n, seed=9, chunk_size=64)
    assert mom.t.shape == (21,)
    np.testing.assert_allclose(mom.mean1, q1.mean(axis=0), rtol=0, atol=1e-12)
    np.testing.assert_allclose(mom.mean11, (q1**2).mean(axis=0), rtol=0, atol=1e-12)
    np.testing.assert_allclose(mom.mean12, (q1 * q2).mean(axis=0), rtol=0, atol=1e-12)
    np.testing.assert_allclose(mom.se1, q1.std(axis=0, ddof=1) / np.sqrt(n),
                               rtol=1e-10, atol=1e-15)
    # empirical second moment dominates the squared mean
    assert np.all(mom.mean11 >= mom.mean1**2 - 1e-12)


def test_bayes_chunk_counts_match_scalar_counts(monkeypatch):
    # under partial feedback only the chosen arm's counts grow
    env = Environment(p1=0.6, p2=0.4, counterfactual=False, horizon=10)
    agent = BayesAgentSpec(Policy(beta=5.0))
    states = next(iter_value_chunks(agent, env, 4, seed=0)).steps()
    counts = np.array([c for *_, c in states])  # (T + 1, s1 n1 s2 n2, replica)
    s1, n1, s2, n2 = counts.transpose(1, 2, 0)
    np.testing.assert_array_equal(n1 + n2, np.broadcast_to(np.arange(11), (4, 11)))
    scalar_trials, scalar_states = agents._trials, []

    def recorded(*args):
        for state in scalar_trials(*args):
            scalar_states.append(state)
            yield state

    monkeypatch.setattr(agents, "_trials", recorded)
    for i in range(4):
        scalar_states.clear()
        run_trajectory(agent, env, RngStream(0, i))
        np.testing.assert_array_equal([c for *_, c in scalar_states], counts[:, :, i])
    q_agent = QAgentSpec(LearningRateSet(0.1, 0.1, 0, 0), Policy())
    assert all(c is None for *_, c in next(iter_value_chunks(q_agent, env, 4, seed=0)).steps())


def test_a_chunk_steps_once_and_fills_its_actions():
    env = Environment(p1=0.6, p2=0.4, counterfactual=False, horizon=12)
    agent = BayesAgentSpec(Policy(beta=5.0))
    (streamed,) = iter_value_chunks(agent, env, 5, seed=3)
    states = list(streamed.steps())
    assert len(states) == env.horizon + 1
    (chunk,) = iter_value_chunks(agent, env, 5, seed=3)
    rec = chunk.record()
    np.testing.assert_array_equal(streamed.actions, rec.actions)
    np.testing.assert_array_equal(states[-1][0], rec.values1[:, -1])
    for used in (streamed, chunk):
        with pytest.raises(RuntimeError, match="once"):
            used.record()


def test_unchosen_rates_refused_without_counterfactual():
    env = Environment(p1=0.5, p2=0.5, counterfactual=False, horizon=10)
    agent = QAgentSpec(LearningRateSet(0.3, 0.1, 0.1, 0.3), Policy(beta=5.0))
    with pytest.raises(ValueError):
        next(iter_value_chunks(agent, env, 4, seed=0))


def test_no_counterfactual_chunks_match_scalar_runs():
    env = Environment(p1=0.6, p2=0.4, counterfactual=False, horizon=25)
    agent = QAgentSpec(LearningRateSet(0.3, 0.1, 0.0, 0.0), Policy(beta=5.0))
    q1, q2, actions = collect(agent, env, 6, seed=31, chunk_size=2)
    for i in range(6):
        traj = run_trajectory(agent, env, RngStream(31, i))
        np.testing.assert_array_equal(q1[i], traj.values1)
        np.testing.assert_array_equal(q2[i], traj.values2)
        np.testing.assert_array_equal(actions[i], traj.actions)


def test_chunks_match_scalar_runs_at_a_negative_seed():
    # the seed wraps mod 2**64 in the stream key; 7 replicas fill chunks of 3 unevenly
    env = Environment(p1=0.7, p2=0.2, counterfactual=True, horizon=30)
    agent = QAgentSpec(LearningRateSet(0.25, 0.05, 0.1, 0.2), Policy(beta=4.0))
    q1, q2, actions = collect(agent, env, 7, seed=-17, chunk_size=3)
    for i in range(7):
        traj = run_trajectory(agent, env, RngStream(-17, i))
        np.testing.assert_array_equal(q1[i], traj.values1)
        np.testing.assert_array_equal(q2[i], traj.values2)
        np.testing.assert_array_equal(actions[i], traj.actions)


@pytest.mark.parametrize("agent, env", [
    (QAgentSpec(LearningRateSet(0.3, 0.1, 0.1, 0.3), Policy(beta=5.0)),
     Environment(p1=0.6, p2=0.4, counterfactual=True, horizon=15)),
    (BayesAgentSpec(Policy(mode="greedy")),
     Environment(p1=0.6, p2=0.4, counterfactual=False, horizon=15)),
], ids=["q-counterfactual", "bayes-greedy-partial"])
def test_trial_major_chunk_matches_scalar_runs(agent, env):
    # one chunk of 1,100 replicas spans several draw sub-blocks, the last partial
    n = 1100
    (chunk,) = [c.record() for c in iter_value_chunks(agent, env, n, seed=8)]
    for t in range(env.horizon):
        assert chunk.values1[:, t].flags.c_contiguous
        assert chunk.actions[:, t].flags.c_contiguous
    assert isinstance(chunk, Trajectory)
    assert chunk.n_trials == env.horizon
    rc, ru = chunk.reward_chosen(), chunk.reward_unchosen()
    for i in range(n):
        traj = run_trajectory(agent, env, RngStream(8, i))
        assert isinstance(traj, Trajectory)
        assert traj.counterfactual == chunk.counterfactual == env.counterfactual
        np.testing.assert_array_equal(chunk.values1[i], traj.values1)
        np.testing.assert_array_equal(chunk.values2[i], traj.values2)
        np.testing.assert_array_equal(chunk.actions[i], traj.actions)
        np.testing.assert_array_equal(chunk.rewards1[i], traj.rewards1)
        np.testing.assert_array_equal(chunk.rewards2[i], traj.rewards2)
        np.testing.assert_array_equal(rc[i], traj.reward_chosen())
        np.testing.assert_array_equal(ru[i], traj.reward_unchosen())


@pytest.mark.parametrize("n_replicas, chunk_size, name", [
    (10, -3, "chunk_size"), (10, 0, "chunk_size"), (0, 4, "n_replicas"), (-1, 4, "n_replicas"),
])
def test_empty_ensembles_and_chunks_are_refused(monkeypatch, n_replicas, chunk_size, name):
    env = Environment(p1=0.5, p2=0.5, counterfactual=True, horizon=5)
    agent = QAgentSpec(LearningRateSet.constant(0.2), Policy(beta=3.0))
    with pytest.raises(ValueError, match=name):
        next(iter_value_chunks(agent, env, n_replicas, seed=0, chunk_size=chunk_size))
    monkeypatch.setattr(mc, "DEFAULT_CHUNK", chunk_size)
    with pytest.raises(ValueError, match=name):
        ensemble_value_moments(agent, env, n_replicas, seed=0)
    with pytest.raises(ValueError, match=name):
        ensemble_switch_rate(agent, env, n_replicas, seed=0)


def test_long_horizons_cap_a_chunk_at_a_million_replica_trials(monkeypatch):
    # 4,096 trials leave room for 256 replicas a group, whatever chunk_size asks
    env = Environment(p1=0.6, p2=0.4, counterfactual=True, horizon=4096)
    agent = QAgentSpec(LearningRateSet(0.3, 0.1, 0.1, 0.3), Policy(beta=5.0))
    capped = [c.record() for c in iter_value_chunks(agent, env, 300, seed=2)]
    # the 256-replica group holds the whole cap, so a chunk holds half of it
    assert [c.actions.shape for c in capped] == [(128, 4096), (128, 4096), (44, 4096)]
    monkeypatch.setattr(mc, "_CHUNK_TRIALS", 1 << 40)
    (whole,) = [c.record() for c in iter_value_chunks(agent, env, 300, seed=2)]
    for field in ("values1", "values2", "actions", "rewards1", "rewards2"):
        np.testing.assert_array_equal(
            np.concatenate([getattr(c, field) for c in capped]), getattr(whole, field))


@pytest.mark.parametrize("horizon, size", [
    (24, 8192), (64, 8192), (65, 4096), (100, 4096), (101, 4096), (128, 4096),
    (129, 4064), (300, 1747)])
def test_a_chunk_holds_a_capped_group_halved_past_half_the_cap(monkeypatch, horizon, size):
    # a group is DEFAULT_CHUNK replicas or as many as 2**20 replica-trials hold;
    # over 2**19 it is halved.  Every chunk but the last has the same size
    env = Environment(p1=0.6, p2=0.4, counterfactual=True, horizon=horizon)
    agent = QAgentSpec(LearningRateSet(0.3, 0.1, 0.1, 0.3), Policy(beta=5.0))
    monkeypatch.setattr(mc, "Chunk", lambda agent, env, seed, start, count: (start, count))
    assert list(iter_value_chunks(agent, env, 2 * size + 5, seed=0)) == [
        (0, size), (size, size), (2 * size, 5)]
    assert size * horizon <= 1 << 19


@pytest.mark.parametrize("horizon", [24, 200, 1000])
def test_session_blocks_are_never_halved(monkeypatch, horizon):
    # a session block holds at most 512 replicas and 2**16 replica-trials,
    # well under the 2**19 past which a group is halved
    env = Environment(p1=0.6, p2=0.4, counterfactual=True, horizon=horizon)
    agent = QAgentSpec(LearningRateSet(0.3, 0.1, 0.1, 0.3), Policy(beta=5.0))
    chunk, sizes = mc.Chunk, []

    def spy(agent, env, seed, start, count):
        sizes.append(count)
        return chunk(agent, env, seed, start, count)

    monkeypatch.setattr(mc, "Chunk", spy)
    block = min(mc._DRAW_BLOCK, sessions._CHUNK_ROWS // horizon)
    for _ in sessions.iter_session_blocks(agent, env, 2 * block + 1, seed=0):
        pass
    assert sizes == [block, block, 1]


def _record_moments(agent, env, n, seed):
    """ensemble_value_moments' sums taken, as before streaming, from each
    chunk's whole record along its replica axis, added in the same order."""
    sums = np.zeros((5, env.horizon + 1))
    for chunk in iter_value_chunks(agent, env, n, seed):
        rec = chunk.record()
        v1 = rec.values1
        prod = np.empty_like(v1)
        sums[0] += v1.sum(axis=0)
        sums[1] += np.multiply(v1, v1, out=prod).sum(axis=0)
        sums[2] += np.multiply(prod, prod, out=prod).sum(axis=0)
        sums[3] += np.multiply(v1, rec.values2, out=prod).sum(axis=0)
        sums[4] += np.multiply(prod, prod, out=prod).sum(axis=0)
    s1, s11, s11_sq, s12, s12_sq = sums
    return (*mc._mean_se(s1, s11, n), *mc._mean_se(s11, s11_sq, n),
            *mc._mean_se(s12, s12_sq, n))


def _record_counts(rec):
    """A Bayesian agent's counts (s1, n1, s2, n2) before each trial and after
    the last, summed from a record: an arm's outcome is observed when the arm
    is chosen, and every trial under counterfactual feedback."""
    seen1 = (rec.actions == 1) | rec.counterfactual
    seen2 = (rec.actions == 2) | rec.counterfactual
    out = np.zeros((4, rec.actions.shape[0], rec.n_trials + 1), dtype=np.int64)
    for c, x in zip(out, (seen1 * rec.rewards1, seen1, seen2 * rec.rewards2, seen2)):
        np.cumsum(x, axis=1, out=c[:, 1:])
    return out


def _record_switch_rate(agent, env, n, seed):
    """ensemble_switch_rate's sums taken, as before streaming, from each
    chunk's whole record, added in the same order."""
    horizon, cf = env.horizon, env.counterfactual
    k_sum, k_sqsum, switches = np.zeros((3, horizon))
    for chunk in iter_value_chunks(agent, replace(env, horizon=horizon + 1), n, seed):
        rec = chunk.record()
        counts = _record_counts(rec) if isinstance(agent, BayesAgentSpec) else None
        for t in range(horizon):
            v1, v2 = rec.values1[:, t], rec.values2[:, t]
            if counts is None:
                after = switching._q_after(v1, v2, agent.rates, t, cf)
            else:
                after = switching._count_after(*counts[:, :, t], cf)
            k = switching._k_mixture(v1, v2, after, env.p1, env.p2, agent.policy)
            k_sum[t] += k.sum()
            k_sqsum[t] += (k * k).sum()
        switches += (rec.actions[:, 1:] != rec.actions[:, :-1]).sum(axis=0)
    e_mean = switches / n
    return (*mc._mean_se(k_sum, k_sqsum, n), e_mean, np.sqrt(e_mean * (1.0 - e_mean) / n))


@pytest.mark.parametrize("agent, counterfactual", [
    (QAgentSpec(LearningRateSet(0.3, 0.1, 0.1, 0.3), Policy(beta=5.0)), True),
    (QAgentSpec(StepSchedule(0.3, 0.05, 8), Policy(beta=5.0)), False),
    (BayesAgentSpec(Policy(beta=8.0)), True),
    (BayesAgentSpec(Policy(beta=8.0)), False),
    (BayesAgentSpec(Policy(mode="greedy")), True),
    (BayesAgentSpec(Policy(mode="greedy")), False),
], ids=["q-asymmetric-counterfactual", "q-step-partial", "bayes-softmax-counterfactual",
        "bayes-softmax-partial", "bayes-greedy-counterfactual", "bayes-greedy-partial"])
def test_streamed_statistics_equal_record_reductions(monkeypatch, agent, counterfactual):
    # 513 replicas at T = 30 in groups of 200: three chunks, the last one
    # partial; 8,193 at T = 100: a group of 8,192 holds over half the trial
    # cap, so a chunk holds half of it; 450 at T = 30 in groups of 200 under a
    # cap of 2**13 replica-trials: two halved groups, then the rest
    shapes = [(513, 30, 200, 1 << 20, [200, 200, 113]),
              (8193, 100, mc.DEFAULT_CHUNK, 1 << 20, [4096, 4096, 1]),
              (450, 30, 200, 1 << 13, [100, 100, 100, 100, 50])]
    seed = 4
    for n, horizon, group, cap, chunks in shapes:
        monkeypatch.setattr(mc, "DEFAULT_CHUNK", group)
        monkeypatch.setattr(mc, "_CHUNK_TRIALS", cap)
        env = Environment(p1=0.6, p2=0.4, counterfactual=counterfactual, horizon=horizon)
        assert [len(c.actions) for c in iter_value_chunks(agent, env, n, seed)] == chunks
        mom = ensemble_value_moments(agent, env, n, seed)
        got = (mom.mean1, mom.se1, mom.mean11, mom.se11, mom.mean12, mom.se12)
        for a, b in zip(got, _record_moments(agent, env, n, seed), strict=True):
            assert np.array_equal(a, b)
        sw = ensemble_switch_rate(agent, env, n, seed)
        got = (sw.analytic_mean, sw.analytic_se, sw.empirical_mean, sw.empirical_se)
        for a, b in zip(got, _record_switch_rate(agent, env, n, seed), strict=True):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["moments", "switch-rate"])
def test_an_ensemble_holds_one_chunk_at_a_time(kind):
    # the Bayesian moments' and criterion 6's ensembles span five and three
    # chunks of 4,096 replicas at T = 100, each reduced trial by trial as it
    # steps.  At most one chunk's action uniforms, reward bits and actions
    # (11 bytes a replica-trial) may be alive at once, plus 64 float64 vectors
    # of its replicas for the trial state, a step's temporaries and the draw blocks
    n = mc.DEFAULT_CHUNK // 2
    if kind == "moments":
        agent = BayesAgentSpec(Policy(beta=5.0))
        env = Environment(p1=0.7, p2=0.7, counterfactual=True, horizon=100)
        horizon = env.horizon

        def run():
            ensemble_value_moments(agent, env, 20_000, seed=0)
    else:
        x = 1.5
        rates = LearningRateSet(0.1 * x, 0.2 - 0.1 * x, 0.2 - 0.1 * x, 0.1 * x)
        agent = QAgentSpec(rates, Policy(beta=5.0))
        env = Environment(p1=0.5, p2=0.5, counterfactual=True, horizon=100)
        horizon = env.horizon + 1  # the switching ensemble simulates one trial more

        def run():
            ensemble_switch_rate(agent, env, 10_000, seed=0)
    bound = 11 * horizon * n + 64 * 8 * n
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak / 2**20:.1f} MiB over {bound / 2**20:.1f} MiB"


def test_a_chunk_draws_within_the_memory_it_steps_in():
    # each replica_uniforms block (512 replicas x T x 3 float64, 1.2 MiB at
    # T = 100) is let go before the next is drawn, so drawing an 8,192-replica
    # chunk peaks below stepping it, which holds the chunk and a trial's state
    env = Environment(p1=0.7, p2=0.7, counterfactual=True, horizon=100)
    agent = BayesAgentSpec(Policy(beta=5.0))
    for _ in mc.Chunk(agent, env, 0, 0, 2).steps():  # first-call allocations
        pass
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        chunk = mc.Chunk(agent, env, 0, 0, mc.DEFAULT_CHUNK)
        draw_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        for _ in chunk.steps():
            pass
        step_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert draw_peak < step_peak, f"drawing {draw_peak / 2**20:.2f} MiB, " \
                                  f"stepping {step_peak / 2**20:.2f} MiB"
