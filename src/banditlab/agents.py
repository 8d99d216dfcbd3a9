"""Learning agents for the two-armed bandit: asymmetric Q-learners and Bayesian agents.

A :class:`QAgentSpec` updates each arm's value by a prediction-error
rule with four rates (positive and negative errors, chosen and unchosen
arm), constant in a :class:`LearningRateSet` or equal and time-dependent
in a :class:`StepSchedule` or :class:`BayesSchedule`.  A
:class:`BayesAgentSpec` keeps each arm's success and outcome counts and
acts on their posterior means, :func:`count_values`.  Both act through a
:class:`Policy`, softmax or greedy, whose :meth:`Policy.choice_prob` is
the one choice rule of the package.  With full feedback the posterior
means follow exactly a symmetric Q-update with the decaying rate
:func:`effective_rate`, 1/(t+3), the rate the Bayesian schedule uses.

The two learning rules are written once, in :func:`q_step` and
:func:`count_step`.  One loop, ``_trials``, simulates both agent kinds
on Python scalars for a single replica (:func:`run_trajectory`) and on
arrays for an ensemble chunk.  It is a generator of trial states, which
``_record`` collects into one :class:`Trajectory` record and the
ensemble statistics reduce trial by trial without one; the switching
kernel calls the same steps.  The likelihood engine in
``fitting`` scores whole sessions at once: it composes the Q rule over
trials as a prefix scan, and scores Bayesian sessions by the same scan
at the rates 1/(n + 3) of an arm seen n times, pinned to folds of both
steps by property tests.  Simulated Bayesian agents always learn through
their counts, never through that recursion, whose rounding would break
greedy value ties differently; a fitted softmax is continuous in the
value gap, so there the rounding moves an NLL only at the ulp level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .env import Environment, RngStream, is_integer

# the largest float whose np.exp is finite: exp of the next one overflows
_EXP_MAX = 709.782712893384


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
    """All four learning rates at ``alpha1`` before trial ``tau_c`` and ``alpha2`` from it on."""

    alpha1: float
    alpha2: float
    tau_c: int

    def __post_init__(self):
        for name in ("alpha1", "alpha2"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if not is_integer(self.tau_c) or self.tau_c < 0:
            raise ValueError(f"tau_c must be a nonnegative integer, got {self.tau_c!r}")

    def at(self, t: int) -> tuple[float, float, float, float]:
        a = self.alpha1 if t < self.tau_c else self.alpha2
        return (a, a, a, a)


@dataclass(frozen=True)
class BayesSchedule:
    """All four learning rates at the posterior-mean rate 1/(t+3)."""

    def at(self, t: int) -> tuple[float, float, float, float]:
        a = effective_rate(t)
        return (a, a, a, a)


# the four prediction-error rates, in the order every rate tuple lists them
RATE_NAMES = ("a_plus_c", "a_minus_c", "a_plus_u", "a_minus_u")


@dataclass(frozen=True)
class LearningRateSet:
    """The four constant prediction-error rates.

    ``a_plus_c``/``a_minus_c`` apply to positive/negative errors on the
    chosen arm, ``a_plus_u``/``a_minus_u`` to the unchosen arm.
    """

    a_plus_c: float
    a_minus_c: float
    a_plus_u: float
    a_minus_u: float

    def __post_init__(self):
        for name in RATE_NAMES:
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v}")

    @classmethod
    def constant(cls, alpha: float) -> "LearningRateSet":
        """Unbiased set with all four rates equal."""
        return cls(alpha, alpha, alpha, alpha)

    def at(self, t: int) -> tuple[float, float, float, float]:
        """(a_plus_c, a_minus_c, a_plus_u, a_minus_u), the same at every trial t."""
        return (self.a_plus_c, self.a_minus_c, self.a_plus_u, self.a_minus_u)

    @property
    def unchosen_zero(self) -> bool:
        return self.a_plus_u == 0.0 and self.a_minus_u == 0.0


# what a Q-agent learns at: each answers at(t) with the four rates of trial t
Rates = Union[LearningRateSet, StepSchedule, BayesSchedule]


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
        """Probability of choosing arm 1 at values (v1, v2): 1 / (1 +
        exp(beta * (v2 - v1))) for softmax, 1.0 where v1 >= v2 (ties to arm
        1) and 0.0 elsewhere for greedy.  Arrays give an array; Python floats
        give a Python float, so a single replica stays in Python scalars.

        Both go through numpy's ``exp``, so a chunk reproduces single runs
        bit for bit.  Where beta * |v1 - v2| overflows ``exp`` the result is
        exactly 0.0 or 1.0, without a warning; floats skip numpy's costly
        error-state switch by returning 0.0 above ``_EXP_MAX``."""
        if self.mode == "greedy":
            return (v1 >= v2) * 1.0
        if isinstance(v1, float) and isinstance(v2, float):
            x = float(self.beta) * (float(v2) - float(v1))
            return 0.0 if x > _EXP_MAX else float(1.0 / (1.0 + np.exp(x)))
        with np.errstate(over="ignore"):
            p = 1.0 / (1.0 + np.exp(self.beta * (v2 - v1)))
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
    """A Q-learning agent: its rates, constant or scheduled, and decision
    policy; both Q-values start at 1/2, the value the likelihood and the
    moment dynamics assume."""

    rates: Rates
    policy: Policy


@dataclass(frozen=True)
class BayesAgentSpec:
    """A Bayesian agent acting on posterior means through the given policy."""

    policy: Policy


AgentSpec = Union[QAgentSpec, BayesAgentSpec]


@dataclass
class Trajectory:
    """Simulated passes through a bandit task: one replica's, or a chunk's
    with a leading replica axis.

    ``values1``/``values2`` hold the agents' value estimates before each
    trial plus the terminal state (shape + (T+1,)): Q-values for a
    Q-agent, posterior means for a Bayesian agent.  ``actions`` and both
    arms' 0/1 rewards have shape + (T,), int8.  All are views over
    trial-major storage: for a chunk, ``values1[:, t]`` and
    ``actions[:, t]`` are contiguous, ``values1[i]`` is not.  A Bayesian
    agent's counts are not kept: the trial states of ``_trials`` carry them.
    """

    values1: np.ndarray
    values2: np.ndarray
    actions: np.ndarray
    rewards1: np.ndarray
    rewards2: np.ndarray
    counterfactual: bool

    @property
    def n_trials(self) -> int:
        return self.actions.shape[-1]

    def reward_chosen(self) -> np.ndarray:
        return np.where(self.actions == 1, self.rewards1, self.rewards2)

    def reward_unchosen(self) -> np.ndarray:
        return np.where(self.actions == 1, self.rewards2, self.rewards1)


def _trials(agent: AgentSpec, env: Environment, action_u, reward_bits: np.ndarray,
            actions: np.ndarray) -> Iterator[tuple]:
    """The simulation loop behind every simulator, as a generator of trial states.

    ``action_u`` holds each trial's action uniform and ``reward_bits`` both
    arms' 0/1 rewards, int8 of shape (2, T) + ``shape``, drawn beforehand as
    ``u < p`` from each trial's arm-1 and arm-2 uniforms.  The generator
    yields (v1, v2, counts) before each trial and at the end: the values
    and a Bayesian agent's int64 counts (s1, n1, s2, n2), None for a
    Q-agent; it writes each action into ``actions``, int8 (T,) + ``shape``.
    One replica (``shape`` ()) steps on Python numbers, a chunk on arrays
    of ``shape``, through the same masked learning steps, so a chunk
    reproduces single runs bit for bit.  The agent is checked at the call.
    """
    bayes = isinstance(agent, BayesAgentSpec)
    if not bayes and not isinstance(agent, QAgentSpec):
        raise TypeError(f"unknown agent spec {type(agent).__name__}")
    cf = env.counterfactual
    if not (bayes or cf) and isinstance(agent.rates, LearningRateSet) \
            and not agent.rates.unchosen_zero:
        raise ValueError("unchosen-arm rates must be zero without counterfactual feedback")
    shape = actions.shape[1:]

    def steps():
        zero = np.zeros(shape, dtype=np.int64) if shape else 0
        s1 = n1 = s2 = n2 = zero
        v1, v2 = count_values(s1, n1, s2, n2) if bayes else (zero + 0.5, zero + 0.5)
        policy = agent.policy
        trials = zip(action_u, *reward_bits) if shape else zip(action_u, *reward_bits.tolist())
        for t, (ua, r1, r2) in enumerate(trials):
            yield v1, v2, (s1, n1, s2, n2) if bayes else None
            # uniforms lie in [0, 1), so a greedy probability of 1 or 0 decides alone
            chose1 = ua < policy.choice_prob(v1, v2)
            if bayes:
                s1, n1, s2, n2 = count_step(s1, n1, s2, n2, chose1, r1, r2, cf)
                v1, v2 = count_values(s1, n1, s2, n2)
            else:
                apc, amc, apu, amu = agent.rates.at(t)
                v1, v2 = q_step(v1, v2, chose1, r1, r2, apc, amc, apu * cf, amu * cf)
            actions[t] = 2 - chose1
        yield v1, v2, (s1, n1, s2, n2) if bayes else None

    return steps()


def _record(env: Environment, trials: Iterator[tuple], actions: np.ndarray,
            reward_bits: np.ndarray) -> Trajectory:
    """Collect the values of a :func:`_trials` generator's states into its
    trial-major :class:`Trajectory`; ``actions`` is the array it fills,
    viewed with the trial axis last, and ``reward_bits`` its rewards."""
    shape, T = actions.shape[:-1], actions.shape[-1]
    values = np.empty((2, T + 1) + shape)
    for t, (v1, v2, _) in enumerate(trials):
        values[0, t], values[1, t] = v1, v2
    return Trajectory(*np.moveaxis(values, 1, -1), actions, *np.moveaxis(reward_bits, 1, -1),
                      env.counterfactual)


def run_trajectory(agent: AgentSpec, env: Environment, rng: RngStream) -> Trajectory:
    """Simulate one full episode, deterministic given the stream.

    Each trial consumes exactly three uniforms (action, arm-1 reward,
    arm-2 reward) whether or not the policy is stochastic, so trajectories
    are comparable across agents and feedback conditions under shared
    randomness.  The rewards are drawn from the whole (T, 3) block before
    the loop runs, as the chunk engine draws them.
    """
    u = rng.uniform_block((env.horizon, 3))
    bits = np.ascontiguousarray(u[:, 1:].T < [[env.p1], [env.p2]], dtype=np.int8)
    actions = np.empty(env.horizon, dtype=np.int8)
    return _record(env, _trials(agent, env, u[:, 0].tolist(), bits, actions), actions, bits)
