"""One-step action-switching probabilities and their ensemble averages.

Because rewards are binary and the value update is deterministic given
the rewards, the one-step transition from a value state is a mixture
over at most eight outcomes (two actions times four reward pairs), so
the switching probability K is an exact finite sum; no integration is
involved.  Each outcome's next values come from the agents' own
learning steps: ``q_step`` for Q-agents and ``count_step`` on the
per-arm counts for Bayesian agents, so Bayesian ensembles work under
partial feedback too.  Ensemble averages <K>_t pair this analytic
per-state value with the realized switch frequency of the same
simulated replicas.  The per-state K uses the agent's own
``Policy.choice_prob``, so it holds for softmax and greedy choice alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .agents import LearningRateSet, Policy, count_step, count_values, q_step
from .env import Environment
from .mc import _mean_se, iter_value_chunks


def _k_mixture(v1, v2, after, p1, p2, policy: Policy):
    """K for scalar or array value states; exact eight-outcome sum.

    ``after(chose1, r1, r2)`` returns the values after one trial with that
    action and those rewards.  Each arm's new value depends only on its own
    role and reward, so four calls, each with the same reward on both arms,
    give the new values of all eight outcomes.
    """
    pi1 = policy.choice_prob(v1, v2)
    pi2 = 1.0 - pi1
    k = 0.0
    for chose1 in (1, 0):
        # new[r]: both arms' values after reward r on each
        new = [after(chose1, r, r) for r in (0, 1)]
        pc, pu = (p1, p2) if chose1 else (p2, p1)
        for rc in (0, 1):
            for ru in (0, 1):
                w = (pc if rc else 1.0 - pc) * (pu if ru else 1.0 - pu)
                if chose1:
                    stay1 = policy.choice_prob(new[rc][0], new[ru][1])
                    k = k + pi1 * w * (1.0 - stay1)
                else:
                    stay1 = policy.choice_prob(new[ru][0], new[rc][1])
                    k = k + pi2 * w * stay1
    return k


def _q_after(v1, v2, rates: LearningRateSet, t: int, counterfactual: bool):
    apc, amc, apu, amu = rates.at(t)
    apu, amu = apu * counterfactual, amu * counterfactual
    return lambda c, r1, r2: q_step(v1, v2, c, r1, r2, apc, amc, apu, amu)


def _count_after(s1, n1, s2, n2, counterfactual: bool):
    return lambda c, r1, r2: count_values(*count_step(s1, n1, s2, n2, c, r1, r2,
                                                      counterfactual))


@dataclass
class SwitchRateSeries:
    """Ensemble-average switching per trial, by two estimators.

    ``analytic`` averages the exact per-state K over replicas (lower
    variance); ``empirical`` counts realized switches between
    consecutive actions of the same replicas.
    """

    t: np.ndarray
    analytic_mean: np.ndarray
    analytic_se: np.ndarray
    empirical_mean: np.ndarray
    empirical_se: np.ndarray
    n_replicas: int


def ensemble_switch_rate(agent, env: Environment, n_replicas: int,
                         seed: int) -> SwitchRateSeries:
    """<K>_t for t = 0..horizon-1 from n_replicas simulated trajectories.

    Simulates one extra trial so the realized-switch estimator covers the
    same trials as the analytic one.  Each trial's K is summed over the
    chunk's replicas as the chunk steps, and switches are counted from its
    actions, so no chunk record is built; the chunks' sums add in replica
    order, and the integer switch counts add exactly.
    """
    horizon = env.horizon
    cf = env.counterfactual

    def reduce(chunk):
        sums = np.empty((3, horizon))
        # the two last states are stepped only to fill the actions
        for t, (v1, v2, counts) in enumerate(chunk.steps()):
            if t < horizon:
                after = (_q_after(v1, v2, agent.rates, t, cf) if counts is None
                         else _count_after(*counts, cf))
                k = _k_mixture(v1, v2, after, env.p1, env.p2, agent.policy)
                sums[0, t] = k.sum()
                sums[1, t] = (k * k).sum()
        sums[2] = (chunk.actions[:, 1:] != chunk.actions[:, :-1]).sum(axis=0)
        return sums

    chunks = iter_value_chunks(agent, replace(env, horizon=horizon + 1), n_replicas, seed)
    k_sum, k_sqsum, switches = sum(map(reduce, chunks))
    n = n_replicas
    a_mean, a_se = _mean_se(k_sum, k_sqsum, n)
    e_mean = switches / n
    e_se = np.sqrt(e_mean * (1.0 - e_mean) / n)
    return SwitchRateSeries(np.arange(horizon), a_mean, a_se, e_mean, e_se, n)

