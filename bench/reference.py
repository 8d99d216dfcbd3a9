"""Reference computations for the benchmark's correctness checks.

Nothing here imports banditlab: each function recomputes a quantity from
the model's definition, so a check built on it can catch an error in the
package rather than repeat it.

- `nll_replay`: the negative log-likelihood of a session, replayed with a
  log-sigmoid choice probability instead of the package's 1 - pi.
- `greedy_session`: a greedy agent's session regenerated from the
  documented stream contract: Philox keyed by (seed, agent), three
  uniforms per trial, in the order action draw, arm-1 reward, arm-2
  reward.
- `bayes_value_moments`: closed-form moments of the posterior means of a
  Bayesian agent that sees both arms' rewards.
- `replay_q_values` and `replay_count_values`: the values a logged
  trajectory must carry, recomputed from its actions and rewards.
"""

from __future__ import annotations

import math

import numpy as np

# The package's documented likelihood floor (banditlab.fitting.P_MIN): a
# trial contributes at most -log(P_MIN) to the NLL.  It is part of the
# model's definition, so the replay applies it too.
P_MIN = 1e-10
_MAX_TRIAL_NLL = -math.log(P_MIN)

# Parameter names and degrees of freedom of the four model families.
FAMILY_DF = {"bayes": 1, "const": 2, "conf": 3, "full": 5}


def family_rates(family: str, params) -> tuple[float, float, float, float]:
    """(a_plus_c, a_minus_c, a_plus_u, a_minus_u) of a Q family's parameters."""
    if family == "const":
        a = params["alpha"]
        return a, a, a, a
    if family == "conf":
        c, d = params["alpha_confirm"], params["alpha_disconfirm"]
        return c, d, d, c
    if family == "full":
        return (params["a_plus_c"], params["a_minus_c"],
                params["a_plus_u"], params["a_minus_u"])
    raise ValueError(f"family {family!r} has no learning rates")


def _softplus(x: float) -> float:
    """log(1 + exp(x)) without overflow or cancellation."""
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def nll_replay(family: str, params, actions, r_chosen, r_unchosen) -> float:
    """NLL of one session under a family, with log pi = -softplus(-d).

    `r_unchosen` is None under partial feedback.  Values start at 1/2
    (Q families) or at empty beta-posterior counts (bayes).
    """
    beta = float(params["beta"])
    cf = r_unchosen is not None
    bayes = family == "bayes"
    if not bayes:
        apc, amc, apu, amu = family_rates(family, params)
    succ = [0, 0]
    pulls = [0, 0]
    q = [0.5, 0.5]
    total = 0.0
    for t in range(len(actions)):
        if bayes:
            v1 = (succ[0] + 1.0) / (pulls[0] + 2.0)
            v2 = (succ[1] + 1.0) / (pulls[1] + 2.0)
        else:
            v1, v2 = q
        d = beta * (v1 - v2)
        c = int(actions[t]) - 1
        total += min(_softplus(-d if c == 0 else d), _MAX_TRIAL_NLL)
        observed = [(c, int(r_chosen[t]))]
        if cf:
            observed.append((1 - c, int(r_unchosen[t])))
        for arm, r in observed:
            if bayes:
                succ[arm] += r
                pulls[arm] += 1
            else:
                up, down = (apc, amc) if arm == c else (apu, amu)
                e = r - q[arm]
                q[arm] += (up if e > 0.0 else down) * e
    return total


def philox_uniforms(seed: int, stream: int, horizon: int) -> np.ndarray:
    """The (horizon, 3) uniforms of stream (seed, stream)."""
    key = np.array([seed % (1 << 64), stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random((horizon, 3))


def greedy_session(generator: str, seed: int, agent: int, horizon: int,
                   p1: float, p2: float, alpha: float = 0.3):
    """(actions, r_chosen, r_unchosen) of one greedy agent under counterfactual
    feedback; `generator` is "bayes" (posterior means) or "const_q" (a
    constant-rate Q-learner).  Ties go to arm 1; the action uniform is drawn
    and unused."""
    u = philox_uniforms(seed, agent, horizon)
    succ = [0, 0]
    n = 0
    q1 = q2 = 0.5
    actions = np.empty(horizon, dtype=np.int64)
    rc = np.empty(horizon, dtype=np.int64)
    ru = np.empty(horizon, dtype=np.int64)
    for t in range(horizon):
        if generator == "bayes":
            v1 = (succ[0] + 1.0) / (n + 2.0)
            v2 = (succ[1] + 1.0) / (n + 2.0)
        else:
            v1, v2 = q1, q2
        chose1 = v1 >= v2
        r1 = 1 if u[t, 1] < p1 else 0
        r2 = 1 if u[t, 2] < p2 else 0
        actions[t] = 1 if chose1 else 2
        rc[t], ru[t] = (r1, r2) if chose1 else (r2, r1)
        succ[0] += r1
        succ[1] += r2
        n += 1
        q1 += alpha * (r1 - q1)
        q2 += alpha * (r2 - q2)
    return actions, rc, ru


def bayes_value_moments(p: float, horizon: int):
    """E[Q1], E[Q1**2] and E[Q1 Q2] at t = 0..horizon for posterior means
    (S+1)/(t+2), S ~ Binomial(t, p), with both arms at reward rate p."""
    t = np.arange(horizon + 1, dtype=float)
    m1 = (t * p + 1.0) / (t + 2.0)
    m11 = (t * p * (1.0 - p) + (t * p + 1.0) ** 2) / (t + 2.0) ** 2
    return m1, m11, m1 * m1


def replay_q_values(actions, rewards1, rewards2, q1, q2, rates, counterfactual):
    """Values after each logged trial, from the logged values before it.

    Arrays are (replicas, T).  Returns the (replicas, T-1) values the rows
    t = 1..T-1 must carry.
    """
    apc, amc, apu, amu = rates
    if not counterfactual:
        apu = amu = 0.0
    chose1 = actions[:, :-1] == 1
    out = []
    for q, r, mine in ((q1, rewards1, chose1), (q2, rewards2, ~chose1)):
        e = r[:, :-1] - q[:, :-1]
        up = np.where(mine, apc, apu)
        down = np.where(mine, amc, amu)
        out.append(q[:, :-1] + np.where(e > 0.0, up, down) * e)
    return out


def replay_count_values(actions, rewards1, rewards2, counterfactual):
    """Posterior means (successes+1)/(pulls+2) before each trial, from the
    outcomes each arm was seen to produce.  Arrays are (replicas, T)."""
    values = []
    for arm, r in ((1, rewards1), (2, rewards2)):
        seen = np.ones_like(actions, dtype=bool) if counterfactual else actions == arm
        succ = np.cumsum(np.where(seen, r, 0), axis=1)
        pulls = np.cumsum(seen, axis=1)
        # shift by one trial: the value before trial t counts trials < t
        succ = np.concatenate([np.zeros_like(succ[:, :1]), succ[:, :-1]], axis=1)
        pulls = np.concatenate([np.zeros_like(pulls[:, :1]), pulls[:, :-1]], axis=1)
        values.append((succ + 1.0) / (pulls + 2.0))
    return values
