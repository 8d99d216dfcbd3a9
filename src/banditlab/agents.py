"""Learning agents for the two-armed bandit: asymmetric Q-learners and Bayesian agents.

A :class:`QAgentSpec` updates each arm's value by a prediction-error
rule with the four rates of a :class:`LearningRateSet` (positive and
negative errors, chosen and unchosen arm), which a :class:`StepSchedule`
or :class:`BayesSchedule` may replace by one time-dependent rate.  A
:class:`BayesAgentSpec` keeps each arm's success and outcome counts and
acts on their posterior means, :func:`count_values`.  Both act through a
:class:`Policy`, softmax or greedy, whose :meth:`Policy.choice_prob` is
the one choice rule of the package.  With full feedback the posterior
means follow exactly a symmetric Q-update with the decaying rate
:func:`effective_rate`, 1/(t+3), the rate the Bayesian schedule uses.

The two learning rules are written once, in :func:`q_step` and
:func:`count_step`.  One loop, run on Python scalars for a single
replica (:func:`run_trajectory`) and on arrays for an ensemble chunk,
simulates both agent kinds, and the switching kernel calls the same
steps.  The likelihood engine in ``fitting`` scores whole sessions at
once: it counts through :func:`count_values` and composes the Q rule
over trials as a prefix scan, pinned to folds of both steps by property
tests.  Bayesian agents always learn through their counts, never through
the 1/(t+3) recursion, whose rounding would break greedy value ties
differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.special import expit

from .env import Environment, RngStream


def effective_rate(t: int) -> float:
    """Learning rate at which posterior-mean updating matches a Q-update.

    Valid when both arms observe one outcome per trial, so each arm's count
    total equals t.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    return 1.0 / (t + 3.0)


@dataclass(frozen=True)
class StepSchedule:
    """Replace all four learning rates by ``alpha1`` before ``tau_c`` and ``alpha2`` after."""

    alpha1: float
    alpha2: float
    tau_c: int

    def rate(self, t: int) -> float:
        return self.alpha1 if t < self.tau_c else self.alpha2


@dataclass(frozen=True)
class BayesSchedule:
    """Replace all four learning rates by the posterior-mean rate 1/(t+3)."""

    def rate(self, t: int) -> float:
        return effective_rate(t)


Schedule = Optional[Union[StepSchedule, BayesSchedule]]


@dataclass(frozen=True)
class LearningRateSet:
    """The four prediction-error rates plus an optional time schedule.

    ``a_plus_c``/``a_minus_c`` apply to positive/negative errors on the
    chosen arm, ``a_plus_u``/``a_minus_u`` to the unchosen arm.  A schedule,
    when present, replaces all four rates by a single time-dependent value.
    """

    a_plus_c: float
    a_minus_c: float
    a_plus_u: float
    a_minus_u: float
    schedule: Schedule = None

    def __post_init__(self):
        for name in ("a_plus_c", "a_minus_c", "a_plus_u", "a_minus_u"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v}")

    @classmethod
    def constant(cls, alpha: float, schedule: Schedule = None) -> "LearningRateSet":
        """Unbiased set with all four rates equal."""
        return cls(alpha, alpha, alpha, alpha, schedule=schedule)

    @classmethod
    def bayes(cls) -> "LearningRateSet":
        """Unbiased set following the posterior-mean rate 1/(t+3)."""
        a0 = effective_rate(0)
        return cls(a0, a0, a0, a0, schedule=BayesSchedule())

    def at(self, t: int) -> tuple[float, float, float, float]:
        """Effective (a_plus_c, a_minus_c, a_plus_u, a_minus_u) at trial t."""
        if self.schedule is None:
            return (self.a_plus_c, self.a_minus_c, self.a_plus_u, self.a_minus_u)
        a = self.schedule.rate(t)
        if not (0.0 <= a <= 1.0):
            raise ValueError(f"schedule produced out-of-range rate {a} at t={t}")
        return (a, a, a, a)

    @property
    def unchosen_zero(self) -> bool:
        return self.a_plus_u == 0.0 and self.a_minus_u == 0.0


@dataclass(frozen=True)
class Policy:
    """Action-selection rule: softmax with inverse temperature beta, or greedy argmax."""

    beta: float = 1.0
    mode: str = "softmax"

    def __post_init__(self):
        # NaN fails every comparison, so test for the valid range
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and nonnegative, got {self.beta}")
        if self.mode not in ("softmax", "greedy"):
            raise ValueError(f"unknown policy mode {self.mode!r}")

    def choice_prob(self, v1, v2):
        """Probability of choosing arm 1 at values (v1, v2): expit(beta *
        (v1 - v2)) for softmax, 1.0 where v1 >= v2 (ties to arm 1) and 0.0
        elsewhere for greedy.  Arrays give an array; Python floats give a
        Python float, so a single replica stays in Python scalars."""
        if self.mode == "greedy":
            return (v1 >= v2) * 1.0
        p = expit(self.beta * (v1 - v2))
        return p if isinstance(p, np.ndarray) else float(p)


def q_step(v1, v2, chose1, r1, r2, apc, amc, apu, amu):
    """One Q-learning update of both values; returns the new (v1, v2).

    ``chose1``, ``r1`` and ``r2`` are 0/1 masks (bools or numbers), so the
    same arithmetic runs on Python floats and on numpy arrays.  Each arm
    moves toward its reward, with the positive-error rate when the reward
    is 1 and the negative-error rate when it is 0: (apc, amc) on the
    chosen arm, (apu, amu) on the other; for values in [0, 1] that is the
    sign of the prediction error.  Pass apu = amu = 0 when feedback hides
    the unchosen arm.  Multiplying rates by exact 0/1 masks selects them
    without rounding, so the result equals the branching update bit for bit.
    """
    c = chose1 * 1.0
    u = 1.0 - c
    a1 = r1 * (c * apc + u * apu) + (1.0 - r1) * (c * amc + u * amu)
    a2 = r2 * (u * apc + c * apu) + (1.0 - r2) * (u * amc + c * amu)
    return v1 + a1 * (r1 - v1), v2 + a2 * (r2 - v2)


def count_step(s1, n1, s2, n2, chose1, r1, r2, counterfactual):
    """One Bayesian update of both arms' counts; returns the new (s1, n1, s2, n2).

    ``s`` counts an arm's observed successes and ``n`` its observed
    outcomes.  The chosen arm is always observed, the other only with
    counterfactual feedback.  Like :func:`q_step`, the masks make it run
    unchanged on Python numbers and numpy arrays.
    """
    c = chose1 * 1
    o1 = c + (1 - c) * counterfactual
    o2 = (1 - c) + c * counterfactual
    return s1 + o1 * r1, n1 + o1, s2 + o2 * r2, n2 + o2


def count_values(s1, n1, s2, n2):
    """Posterior means (s + 1) / (n + 2) of both arms under uniform priors."""
    return (s1 + 1.0) / (n1 + 2.0), (s2 + 1.0) / (n2 + 2.0)


@dataclass(frozen=True)
class QAgentSpec:
    """A Q-learning agent: rate set and decision policy; both Q-values
    start at 1/2, the value the likelihood and the moment dynamics assume."""

    rates: LearningRateSet
    policy: Policy


@dataclass(frozen=True)
class BayesAgentSpec:
    """A Bayesian agent acting on posterior means through the given policy."""

    policy: Policy


AgentSpec = Union[QAgentSpec, BayesAgentSpec]


@dataclass
class Trajectory:
    """One agent's full pass through a bandit task.

    ``values1``/``values2`` hold the agent's value estimates before each
    trial plus the terminal state (length T+1): Q-values for a Q-agent,
    posterior means for a Bayesian agent.  A Bayesian agent's ``counts``
    stack its arms' success and outcome counts (s1, n1, s2, n2) at the same
    times, shape (4, T+1), in the layout and dtype of the ensemble chunks'
    counts; None for a Q-agent.
    """

    actions: np.ndarray
    rewards1: np.ndarray
    rewards2: np.ndarray
    counterfactual: bool
    values1: np.ndarray
    values2: np.ndarray
    counts: Optional[np.ndarray] = None

    @property
    def n_trials(self) -> int:
        return len(self.actions)

    def reward_chosen(self) -> np.ndarray:
        return np.where(self.actions == 1, self.rewards1, self.rewards2)

    def reward_unchosen(self) -> np.ndarray:
        return np.where(self.actions == 1, self.rewards2, self.rewards1)


def _simulate(agent: AgentSpec, env: Environment, draws, shape: tuple = ()):
    """The simulation loop behind run_trajectory and the vectorized ensembles.

    ``draws`` holds each trial's three uniforms (action, arm-1 reward,
    arm-2 reward): Python floats for one replica (``shape`` ()), or arrays
    of ``shape`` for a chunk of replicas.  Both go through the same masked
    learning steps, so a chunk reproduces single runs bit for bit.
    Returns the values before each trial plus the terminal state (shape +
    (T+1,) each), the actions and both arms' 0/1 rewards (shape + (T,)
    each, int8) and, for Bayesian agents, the counts (s1, n1, s2, n2)
    stacked as (4,) + shape + (T+1,); None for Q-agents.  All are views
    over trial-major storage, so each trial's slice over a chunk is
    contiguous.
    """
    bayes = isinstance(agent, BayesAgentSpec)
    if not bayes and not isinstance(agent, QAgentSpec):
        raise TypeError(f"unknown agent spec {type(agent).__name__}")
    cf = env.counterfactual
    if not bayes and not cf and not agent.rates.unchosen_zero and agent.rates.schedule is None:
        raise ValueError("unchosen-arm rates must be zero without counterfactual feedback")
    T = len(draws)
    # trial-major, so that each trial's writes (and later reads) are contiguous
    values1 = np.empty((T + 1,) + shape)
    values2 = np.empty((T + 1,) + shape)
    actions = np.empty((T,) + shape, dtype=np.int8)
    rewards = np.empty((2, T) + shape, dtype=np.int8)
    # counts never exceed the horizon, so the smallest fitting dtype holds them
    counts = np.empty((T + 1, 4) + shape, dtype=np.min_scalar_type(T)) if bayes else None
    zero = np.zeros(shape, dtype=np.int64) if shape else 0
    s1 = n1 = s2 = n2 = zero
    v1, v2 = count_values(s1, n1, s2, n2) if bayes else (zero + 0.5, zero + 0.5)
    policy = agent.policy
    for t, (ua, u1, u2) in enumerate(draws):
        values1[t], values2[t] = v1, v2
        if bayes:
            counts[t] = s1, n1, s2, n2
        # uniforms lie in [0, 1), so a greedy probability of 1 or 0 decides alone
        chose1 = ua < policy.choice_prob(v1, v2)
        r1 = u1 < env.p1
        r2 = u2 < env.p2
        if bayes:
            s1, n1, s2, n2 = count_step(s1, n1, s2, n2, chose1, r1, r2, cf)
            v1, v2 = count_values(s1, n1, s2, n2)
        else:
            apc, amc, apu, amu = agent.rates.at(t)
            v1, v2 = q_step(v1, v2, chose1, r1, r2, apc, amc, apu * cf, amu * cf)
        actions[t] = 2 - chose1
        rewards[0, t], rewards[1, t] = r1, r2
    values1[T], values2[T] = v1, v2
    if bayes:
        counts[T] = s1, n1, s2, n2
        counts = np.moveaxis(counts, 0, -1)
    rewards1, rewards2 = np.moveaxis(rewards, 1, -1)
    return (np.moveaxis(values1, 0, -1), np.moveaxis(values2, 0, -1),
            np.moveaxis(actions, 0, -1), rewards1, rewards2, counts)


def run_trajectory(agent: AgentSpec, env: Environment, rng: RngStream) -> Trajectory:
    """Simulate one full episode, deterministic given the stream.

    Each trial consumes exactly three uniforms (action, arm-1 reward,
    arm-2 reward) whether or not the policy is stochastic, so trajectories
    are comparable across agents and feedback conditions under shared
    randomness.
    """
    v1, v2, actions, r1, r2, counts = _simulate(
        agent, env, rng.uniform_block((env.horizon, 3)).tolist())
    return Trajectory(actions, r1, r2, env.counterfactual, v1, v2, counts)
