"""Chunked vectorized Monte-Carlo ensembles of bandit learners.

Each replica owns the counter-based stream (seed, replica_index) and
consumes exactly three uniforms per trial in the order (action draw,
arm-1 reward, arm-2 reward) — the same contract as the scalar
trajectory runner, whose loop (``agents._simulate``, with ``q_step``
for Q-agents and ``count_step`` for Bayesian agents) runs here on
arrays, so replica r of an ensemble reproduces the single-trajectory
simulation bit for bit for both agent kinds, both choice rules and both
feedback modes.  A chunk draws its uniforms through
``env.replica_uniforms``, which re-keys one Philox per replica rather
than constructing each replica's ``RngStream``; the draws equal the
constructed streams' bit for bit.  Replicas are simulated in chunks to
bound memory; chunking affects only the floating-point summation order
of the accumulated statistics, never the trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .agents import _simulate
from .env import Environment, replica_uniforms

DEFAULT_CHUNK = 8192


@dataclass
class ChunkTrajectories:
    """Trajectories of one replica chunk: values before each trial plus the
    terminal state (n, horizon+1), the actions taken and both arms' 0/1
    rewards (n, horizon, int8).

    For Bayesian agents ``counts`` stacks (s1, n1, s2, n2), the arms'
    success and outcome counts at the same times, shape (4, n, horizon+1),
    in the smallest unsigned dtype that holds the horizon; it is None for
    Q-agents.
    """

    q1: np.ndarray
    q2: np.ndarray
    actions: np.ndarray
    rewards1: np.ndarray
    rewards2: np.ndarray
    counts: Optional[np.ndarray] = None


def iter_value_chunks(agent, env: Environment, n_replicas: int, seed: int,
                      horizon: Optional[int] = None,
                      chunk_size: int = DEFAULT_CHUNK) -> Iterator[ChunkTrajectories]:
    """Yield per-chunk value trajectories and actions for the whole ensemble.

    Both agent kinds run fully vectorized under either feedback mode: a
    Q-agent carries its values, a Bayesian agent its per-arm counts, whose
    posterior means are the values.
    """
    horizon = env.horizon if horizon is None else horizon
    for start in range(0, n_replicas, chunk_size):
        count = min(chunk_size, n_replicas - start)
        u = replica_uniforms(seed, start, count, (horizon, 3))
        # trial-major draws: each trial yields (action, r1, r2) rows over replicas
        yield ChunkTrajectories(*_simulate(agent, env, u.transpose(1, 2, 0), (count,)))


@dataclass
class EnsembleMoments:
    """Per-trial ensemble moments of the value pair with standard errors."""

    t: np.ndarray
    mean1: np.ndarray
    se1: np.ndarray
    mean11: np.ndarray
    se11: np.ndarray
    mean12: np.ndarray
    se12: np.ndarray
    n_replicas: int


def _mean_se(total: np.ndarray, total_sq: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    mean = total / n
    if n < 2:
        return mean, np.zeros_like(mean)
    var = np.maximum(total_sq - total * total / n, 0.0) / (n - 1)
    return mean, np.sqrt(var / n)


def ensemble_value_moments(agent, env: Environment, n_replicas: int, seed: int,
                           chunk_size: int = DEFAULT_CHUNK) -> EnsembleMoments:
    """Monte-Carlo estimates of <Q1>, <Q1**2> and <Q1Q2> before each trial
    (terminal state included)."""
    shape = env.horizon + 1
    s1 = np.zeros(shape)
    # s11 sums Q1**2: the mean <Q1**2>, and the second moment behind <Q1>'s SE
    s11 = np.zeros(shape)
    s11_sq = np.zeros(shape)
    s12 = np.zeros(shape)
    s12_sq = np.zeros(shape)
    for chunk in iter_value_chunks(agent, env, n_replicas, seed, chunk_size=chunk_size):
        q1, q2 = chunk.q1, chunk.q2
        sq = q1 * q1
        cross = q1 * q2
        s1 += q1.sum(axis=0)
        s11 += sq.sum(axis=0)
        s11_sq += (sq * sq).sum(axis=0)
        s12 += cross.sum(axis=0)
        s12_sq += (cross * cross).sum(axis=0)
    mean1, se1 = _mean_se(s1, s11, n_replicas)
    mean11, se11 = _mean_se(s11, s11_sq, n_replicas)
    mean12, se12 = _mean_se(s12, s12_sq, n_replicas)
    return EnsembleMoments(np.arange(shape), mean1, se1, mean11, se11,
                           mean12, se12, n_replicas)
