"""Moment dynamics of the Q-value distribution in symmetric environments.

The stochastic update rule induces a recursion for the distribution of
(Q1, Q2) across an ensemble of agents.  In a symmetric environment
(p1 = p2 = p) the first two moments obey exact linear recursions whose
coefficients are polynomials in the four learning rates and p, except
for three expectations involving the softmax choice probability.  A
second-order Taylor closure around the mean gives

    <pi>       = 1/2
    <pi Q1>    = <Q1>/2   + (beta/4) * Delta
    <pi Q1**2> = <Q1**2>/2 + (beta/2) * <Q1> * Delta

with Delta = <Q1**2> - <Q1Q2> = <(Q1-Q2)**2>/2, closing the system.
For equal (unbiased) rates every beta-dependent coefficient is exactly
zero and the closure is the exact recursion; :func:`propagate_moments_bayes`
runs it at the Bayesian agent's rates.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .agents import LearningRateSet

# damped fixed-point iteration of the steady state: residual bound, budget, step
_TOL = 1e-12
_MAX_ITER = 10**6
_DAMPING = 0.5


class MomentState(NamedTuple):
    """First two moments (m1, m11, m12) = (<Q1>, <Q1**2>, <Q1Q2>)."""

    m1: float
    m11: float
    m12: float

    @property
    def delta(self) -> float:
        """Half the mean squared value gap, <(Q1-Q2)**2>/2."""
        return self.m11 - self.m12

    @classmethod
    def point_mass(cls, q: float = 0.5) -> "MomentState":
        """Moments of an ensemble concentrated at Q1 = Q2 = q."""
        return cls(q, q * q, q * q)


class MomentCoefficients(NamedTuple):
    """Coefficients of the exact moment recursions.

    The mean evolves as

        m1' = mean_keep*m1 + mean_pi_q*<pi Q1> + mean_pi*<pi> + mean_const,

    the cross moment as

        m12' = cross_keep*m12 + (cross_gain_chosen + cross_gain_unchosen)*m1
               + cross_const
               + (cross_gain_unchosen - cross_gain_chosen)*(2*<pi Q1> - m1),

    and the second moment as the unchosen-arm branch plus a pi-weighted
    chosen-minus-unchosen correction:

        m11' = sq_keep_unchosen*m11 + sq_gain_unchosen*m1 + sq_const_unchosen
               + (sq_keep_chosen - sq_keep_unchosen)*<pi Q1**2>
               + (sq_gain_chosen - sq_gain_unchosen)*<pi Q1>
               + (sq_const_chosen - sq_const_unchosen)*<pi>.

    cross_gain_chosen pairs the chosen-arm gain with the unchosen-arm
    keep factor and vice versa; the cross coefficients are symmetric
    under exchanging which arm was chosen, so one set suffices.
    """

    mean_keep: float
    mean_pi_q: float
    mean_pi: float
    mean_const: float
    cross_keep: float
    cross_gain_chosen: float
    cross_gain_unchosen: float
    cross_const: float
    sq_keep_unchosen: float
    sq_gain_unchosen: float
    sq_const_unchosen: float
    sq_keep_chosen: float
    sq_gain_chosen: float
    sq_const_chosen: float


class ConvergenceError(Exception):
    """The closed moment system has no admissible steady state."""


def compute_coefficients(rates: LearningRateSet, p: float, t: int = 0) -> MomentCoefficients:
    """Evaluate all moment-recursion coefficients at reward probability p.

    With a time schedule on the rates, ``t`` selects the effective rates.
    """
    apc, amc, apu, amu = rates.at(t)
    q = 1.0 - p
    mean_keep = p * p * (1 - apu) + q * q * (1 - amu) + p * q * (2 - apu - amu)
    mean_pi_q = p * p * (apu - apc) + q * q * (amu - amc) + p * q * (apu + amu - amc - apc)
    mean_pi = p * (apc - apu)
    mean_const = p * apu
    cross_keep = (p * p * (1 - apu) * (1 - apc)
                  + p * q * ((1 - amu) * (1 - apc) + (1 - apu) * (1 - amc))
                  + q * q * (1 - amu) * (1 - amc))
    cross_gain_chosen = apc * (1 - apu) * p * p + apc * (1 - amu) * q * p
    cross_gain_unchosen = apu * (1 - apc) * p * p + apu * (1 - amc) * q * p
    cross_const = p * p * apc * apu
    sq_keep_unchosen = p * (1 - apu) ** 2 + q * (1 - amu) ** 2
    sq_gain_unchosen = 2 * p * apu * (1 - apu)
    sq_const_unchosen = p * apu * apu
    sq_keep_chosen = p * (1 - apc) ** 2 + q * (1 - amc) ** 2
    sq_gain_chosen = 2 * p * apc * (1 - apc)
    sq_const_chosen = p * apc * apc
    return MomentCoefficients(mean_keep, mean_pi_q, mean_pi, mean_const,
                              cross_keep, cross_gain_chosen, cross_gain_unchosen,
                              cross_const,
                              sq_keep_unchosen, sq_gain_unchosen, sq_const_unchosen,
                              sq_keep_chosen, sq_gain_chosen, sq_const_chosen)


def step_moments(m: MomentState, rates: LearningRateSet, p: float, beta: float,
                 t: int = 0) -> MomentState:
    """One step of the closed moment system at inverse temperature beta."""
    c = compute_coefficients(rates, p, t)
    delta = m.m11 - m.m12
    pi = 0.5
    pi_q1 = 0.5 * m.m1 + 0.25 * beta * delta
    pi_q11 = 0.5 * m.m11 + 0.5 * beta * m.m1 * delta
    m1n = c.mean_keep * m.m1 + c.mean_pi_q * pi_q1 + c.mean_pi * pi + c.mean_const
    m12n = (c.cross_keep * m.m12
            + (c.cross_gain_chosen + c.cross_gain_unchosen) * m.m1
            + c.cross_const
            + (c.cross_gain_unchosen - c.cross_gain_chosen) * (2 * pi_q1 - m.m1))
    m11n = (c.sq_keep_unchosen * m.m11 + c.sq_gain_unchosen * m.m1 + c.sq_const_unchosen
            + (c.sq_keep_chosen - c.sq_keep_unchosen) * pi_q11
            + (c.sq_gain_chosen - c.sq_gain_unchosen) * pi_q1
            + (c.sq_const_chosen - c.sq_const_unchosen) * pi)
    return MomentState(m1n, m11n, m12n)


def step_delta(delta: float, alpha_t: float, p: float) -> float:
    """One step of the value-gap recursion: decay plus reward-noise injection."""
    return (1.0 - alpha_t) ** 2 * delta + p * (1.0 - p) * alpha_t * alpha_t


def propagate_moments(m0: MomentState, rates: LearningRateSet, p: float, beta: float,
                      n_steps: int) -> list[MomentState]:
    """Closure trajectory m0..m_{n_steps}; schedules follow the step index."""
    out = [m0]
    for t in range(n_steps):
        out.append(step_moments(out[-1], rates, p, beta, t=t))
    return out


def propagate_moments_bayes(m0: MomentState, p: float, n_steps: int) -> list[MomentState]:
    """Exact trajectory of the Bayesian agent: the closure at its equal
    1/(t+3) rates, where no policy-coupled term survives."""
    return propagate_moments(m0, LearningRateSet.bayes(), p, 0.0, n_steps)


def _quadratic_pieces(rates: LearningRateSet, p: float, beta: float):
    """Coefficients (a, b, c) of the steady-state equation a*D**2 + b*D + c = 0,
    obtained by eliminating m1* and m12* from the closed system."""
    co = compute_coefficients(rates, p)
    a1 = co.mean_keep + co.mean_pi_q / 2.0
    a2 = co.mean_pi_q * beta / 4.0
    a0 = co.mean_const + co.mean_pi / 2.0
    u = a0 / (1.0 - a1)
    v = a2 / (1.0 - a1)
    cm = co.cross_gain_chosen + co.cross_gain_unchosen
    c0 = co.cross_const
    cd = (co.cross_gain_unchosen - co.cross_gain_chosen) * beta / 2.0
    d11 = (co.sq_keep_chosen + co.sq_keep_unchosen) / 2.0
    d1 = (co.sq_gain_chosen + co.sq_gain_unchosen) / 2.0
    d0 = co.sq_const_unchosen
    dq = (co.sq_keep_chosen - co.sq_keep_unchosen) * beta / 2.0
    dd = (co.sq_gain_chosen - co.sq_gain_unchosen) * beta / 4.0
    dc = (co.sq_const_chosen - co.sq_const_unchosen) / 2.0
    den_d = 1.0 - d11
    den_c = 1.0 - co.cross_keep
    qa = dq * v / den_d
    qb = (d1 * v + dq * u + dd) / den_d - (cm * v + cd) / den_c - 1.0
    qc = (d1 * u + d0 + dc) / den_d - (cm * u + c0) / den_c
    return qa, qb, qc


def steady_state_delta_quadratic(rates: LearningRateSet, p: float, beta: float) -> float:
    """Steady-state value gap from the eliminated quadratic.

    Picks the smallest root in [0, 1/4], the branch the dynamics reach
    from a point-mass start.  Serves as a cross-check on the iterative
    solver.  The roots are qc/q and q/qa with q = -(qb + sign(qb)*sqrt(disc))/2,
    which never subtracts nearly equal numbers, so they stay accurate as
    qa -> 0 near unbiased rates; at qa = 0 (p = 1/2 on the x-curve) only
    the linear root qc/q = -qc/qb remains.
    """
    qa, qb, qc = _quadratic_pieces(rates, p, beta)
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0:
        raise ConvergenceError("steady-state quadratic has no real root")
    q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
    roots = (qc / q, q / qa) if qa else (qc / q,)
    slack = 1e-9
    candidates = sorted(x for x in roots if -slack <= x <= 0.25 + slack)
    if not candidates:
        raise ConvergenceError("no admissible steady-state root in [0, 1/4]")
    return candidates[0]


def steady_state_moments(rates: LearningRateSet, p: float, beta: float) -> MomentState:
    """Fixed point of the closed moment system by damped iteration from a
    point mass at (1/2, 1/2), until the undamped residual is below _TOL."""
    if rates.schedule is not None:
        raise ValueError("steady state is defined for constant rates only")
    if max(rates.a_plus_c, rates.a_minus_c, rates.a_plus_u, rates.a_minus_u) == 0.0:
        raise ValueError("steady state requires at least one positive learning rate")
    m = MomentState.point_mass(0.5)
    for it in range(_MAX_ITER):
        nxt = step_moments(m, rates, p, beta)
        res = max(abs(nxt.m1 - m.m1), abs(nxt.m11 - m.m11), abs(nxt.m12 - m.m12))
        if res < _TOL:
            return nxt
        # moments live in [0, 1]; leaving a slack box means the closure's
        # policy feedback has gain > 1 and no admissible fixed point exists
        if not (math.isfinite(res) and -0.5 < nxt.m1 < 1.5
                and -0.5 < nxt.m11 < 1.5 and -0.5 < nxt.m12 < 1.5):
            raise ConvergenceError(
                f"moment iteration diverged after {it + 1} iterations; the "
                "closed system has no admissible steady state here")
        m = MomentState(m.m1 + _DAMPING * (nxt.m1 - m.m1),
                        m.m11 + _DAMPING * (nxt.m11 - m.m11),
                        m.m12 + _DAMPING * (nxt.m12 - m.m12))
    raise ConvergenceError(
        f"no fixed point within {_MAX_ITER} iterations (residual {res:.3e})")


def steady_state_delta(rates: LearningRateSet, p: float, beta: float) -> float:
    """Steady-state value gap Delta* of the closed moment system.

    Solved by damped fixed-point iteration and accepted only where it
    matches the eliminated quadratic's admissible root in [0, 1/4].
    """
    d = steady_state_moments(rates, p, beta).delta
    dq = steady_state_delta_quadratic(rates, p, beta)
    if abs(d - dq) > 1e-8:
        raise ConvergenceError(
            f"iterative steady state {d!r} disagrees with quadratic root {dq!r}")
    return d


def x_curve_rates(x: float) -> LearningRateSet:
    """One-parameter family trading chosen-positive/unchosen-negative rates
    (0.1x each) against the two complementary rates (0.2 - 0.1x each);
    x = 1 is unbiased, x > 1 is confirmation-biased."""
    return LearningRateSet(a_plus_c=0.1 * x, a_minus_c=0.2 - 0.1 * x,
                           a_plus_u=0.2 - 0.1 * x, a_minus_u=0.1 * x)


def confirmation_index(rates: LearningRateSet) -> float:
    """Normalized asymmetry of the four rates, in [-1, 1]; positive values
    mean confirmatory updating (fast on confirming evidence)."""
    total = rates.a_plus_c + rates.a_minus_c + rates.a_plus_u + rates.a_minus_u
    if total == 0.0:
        raise ValueError("confirmation index undefined for all-zero rates")
    return (rates.a_plus_c - rates.a_minus_c - rates.a_plus_u + rates.a_minus_u) / total


class BiasSensitivity(NamedTuple):
    d_delta_dbias: float
    d2_delta_dbeta_dbias: float


def bias_sensitivity(x: float, p: float, beta: float) -> BiasSensitivity:
    """Finite-difference sensitivities of the steady-state gap to bias.

    Differentiates Delta* along the x-curve (where the confirmation index
    equals x - 1, so d/dbias = d/dx) with central steps of 1e-4 in x, and
    mixed with beta with central steps of 0.05 in beta.
    """
    dx, dbeta = 1e-4, 0.05
    if not 0.0 < p < 1.0:
        raise ValueError("sensitivity undefined at p in {0, 1}: no reward variance")

    def dstar(xx: float, bb: float) -> float:
        return steady_state_delta(x_curve_rates(xx), p, bb)

    def slope(bb: float) -> float:
        return (dstar(x + dx, bb) - dstar(x - dx, bb)) / (2.0 * dx)

    d1 = slope(beta)
    d2 = (slope(beta + dbeta) - slope(beta - dbeta)) / (2.0 * dbeta)
    return BiasSensitivity(d1, d2)
