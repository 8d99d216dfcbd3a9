"""Chunked vectorized Monte-Carlo ensembles of bandit learners.

Each replica owns the counter-based stream (seed, replica_index) and
consumes exactly three uniforms per trial in the order (action draw,
arm-1 reward, arm-2 reward) — the same contract as the scalar
trajectory runner, whose loop (``agents._trials``, with ``q_step``
for Q-agents and ``count_step`` for Bayesian agents) runs here on
arrays, so replica r of an ensemble reproduces the single-trajectory
simulation bit for bit for both agent kinds, both choice rules and both
feedback modes.  A chunk draws its uniforms through
``env.replica_uniforms``, which re-keys one Philox per replica rather
than constructing each replica's ``RngStream``; the draws equal the
constructed streams' bit for bit.  A :class:`Chunk` comes out drawn and
its consumer steps it: the ensemble statistics here and in
``switching`` reduce each trial's state as it is simulated, so their
working set is one chunk's action uniforms, int8 reward bits and int8
actions, 11 bytes per replica-trial, plus one trial's state, never a
full record; a large group of replicas is stepped in two halves, so
that is about 5.5 MiB at the trial cap (see :func:`iter_value_chunks`).
``Chunk.record`` collects the :class:`agents.Trajectory` (values,
actions and rewards, with a leading replica axis over trial-major
storage) for consumers that need one; a Bayesian agent's counts are in
the trial states of ``Chunk.steps`` only.  Every consumer here lets go
of a chunk before the next one is drawn.  Grouping changes only the
summation order of the statistics, never the trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .agents import Trajectory, _record, _trials
from .env import Environment, replica_uniforms

DEFAULT_CHUNK = 8192
# a chunk holds at most this many replica-trials, whatever chunk_size asks:
# their action uniforms take 8 MiB, and T <= 127 keeps DEFAULT_CHUNK replicas
_CHUNK_TRIALS = 1 << 20
_DRAW_BLOCK = 512  # replicas per replica_uniforms call, few enough to transpose in cache


class Chunk:
    """Replicas ``start, ..., start + count - 1`` of an ensemble, drawn and
    ready to be simulated.

    Each ``replica_uniforms`` block of ``_DRAW_BLOCK`` replicas fills the
    chunk's trial-major action uniforms (T, count) float64 and both arms'
    reward bits (2, T, count) int8, each arm's ``u < p`` compared straight
    into them, so the reward uniforms never take a chunk-sized array; a
    block is let go before the next one is drawn.  ``actions`` (count, T)
    int8, over trial-major storage, is filled as the chunk is stepped,
    once, by :meth:`steps` or :meth:`record`; the action uniforms are
    freed when the stepping ends.
    """

    left_half = False  # True for a split group's left half: its right half comes next

    def __init__(self, agent, env: Environment, seed: int, start: int, count: int):
        horizon = env.horizon
        action_u = np.empty((horizon, count))
        reward_bits = np.empty((2, horizon, count), dtype=np.int8)
        for lo in range(0, count, _DRAW_BLOCK):
            hi = min(lo + _DRAW_BLOCK, count)
            # (action, arm 1, arm 2) x trial x replica
            u = replica_uniforms(seed, start + lo, hi - lo, (horizon, 3)).transpose(2, 1, 0)
            action_u[:, lo:hi] = u[0]
            np.less(u[1], env.p1, out=reward_bits[0, :, lo:hi])
            np.less(u[2], env.p2, out=reward_bits[1, :, lo:hi])
            del u  # else two blocks are alive while the next one is drawn
        actions = np.empty((horizon, count), dtype=np.int8)
        self.actions = np.moveaxis(actions, 0, -1)
        self._env, self._reward_bits = env, reward_bits
        self._trials = _trials(agent, env, action_u, reward_bits, actions)

    def steps(self) -> Iterator[tuple]:
        """Simulate the chunk, yielding (count,) states (v1, v2, counts) as
        ``agents._trials`` does."""
        if self._trials is None:
            raise RuntimeError("a chunk can be stepped only once")
        trials, self._trials = self._trials, None
        return trials

    def record(self) -> Trajectory:
        """Simulate the chunk into its full :class:`agents.Trajectory` record."""
        return _record(self._env, self.steps(), self.actions, self._reward_bits)


def iter_value_chunks(agent, env: Environment, n_replicas: int, seed: int,
                      chunk_size: int = DEFAULT_CHUNK) -> Iterator[Chunk]:
    """Yield the whole ensemble, one :class:`Chunk` of replicas at a time.

    Both agent kinds run fully vectorized under either feedback mode: a
    Q-agent carries its values, a Bayesian agent its per-arm counts, whose
    posterior means are the values.  A group holds at most ``chunk_size``
    replicas and ``_CHUNK_TRIALS`` replica-trials, but at least one replica.
    A group over half that cap and 128 replicas comes as two chunks, split
    where numpy's pairwise summation splits a contiguous vector, so a
    trial's sum over the group is its halves' sums added, bit for bit.
    A chunk comes out drawn, not simulated: 8 bytes per replica-trial of
    action uniforms until it is stepped, 2 of reward bits and 1 of actions
    (half a group at the cap: about 5.5 MiB).  Stepping adds one trial's
    state, and a record if one is collected.  The generator holds no chunk
    while its consumer runs, so a consumer that lets go of each chunk
    before asking for the next keeps at most one alive: a right half is
    drawn only after its left half is reduced.
    """
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be at least 1, got {n_replicas}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    chunk_size = min(chunk_size, max(1, _CHUNK_TRIALS // env.horizon))
    for start in range(0, n_replicas, chunk_size):
        n = min(chunk_size, n_replicas - start)
        split = n > 128 and n * env.horizon > _CHUNK_TRIALS // 2
        half = n // 2 - (n // 2) % 8 if split else n  # numpy's pairwise_sum split
        first = Chunk(agent, env, seed, start, half)
        first.left_half = split
        yield first
        del first  # let the left half go before the right one is drawn
        if split:
            yield Chunk(agent, env, seed, start + half, n - half)


def _group_sums(chunks: Iterator[Chunk], reduce) -> np.ndarray:
    """Sum ``reduce(chunk)``, a chunk's (k, T) per-trial replica sums, over the
    groups, a split group's halves added first: bit for bit as if unsplit."""
    total, left = 0.0, None
    for chunk in chunks:
        sums, left_half = reduce(chunk), chunk.left_half
        del chunk  # let the chunk go before the next one is drawn
        if left_half:
            left = sums
        else:
            total, left = total + (sums if left is None else left + sums), None
    return total


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


def ensemble_value_moments(agent, env: Environment, n_replicas: int,
                           seed: int) -> EnsembleMoments:
    """Monte-Carlo estimates of <Q1>, <Q1**2> and <Q1Q2> before each trial
    (terminal state included), reduced trial by trial as each chunk steps.
    Each trial's replica sum runs over a contiguous vector, where numpy
    sums pairwise, not in sequence as over a strided one."""
    shape = env.horizon + 1

    def reduce(chunk):
        sums = np.empty((5, shape))
        prod = np.empty(len(chunk.actions))  # the four products' buffer
        for t, (v1, v2, _) in enumerate(chunk.steps()):
            sums[0, t] = v1.sum()
            sums[1, t] = np.multiply(v1, v1, out=prod).sum()
            sums[2, t] = np.multiply(prod, prod, out=prod).sum()
            sums[3, t] = np.multiply(v1, v2, out=prod).sum()
            sums[4, t] = np.multiply(prod, prod, out=prod).sum()
        return sums

    # s11 sums Q1**2: the mean <Q1**2>, and the second moment behind <Q1>'s SE
    s1, s11, s11_sq, s12, s12_sq = _group_sums(
        iter_value_chunks(agent, env, n_replicas, seed, chunk_size=DEFAULT_CHUNK), reduce)
    mean1, se1 = _mean_se(s1, s11, n_replicas)
    mean11, se11 = _mean_se(s11, s11_sq, n_replicas)
    mean12, se12 = _mean_se(s12, s12_sq, n_replicas)
    return EnsembleMoments(np.arange(shape), mean1, se1, mean11, se11,
                           mean12, se12, n_replicas)
