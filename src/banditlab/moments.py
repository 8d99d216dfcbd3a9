"""Moment dynamics of the Q-value distribution in symmetric environments.

The stochastic update rule induces a recursion for the distribution of
(Q1, Q2) across an ensemble of agents.  In a symmetric environment
(p1 = p2 = p) the first two moments obey exact linear recursions.  Each
arm learns from its own reward, drawn independently of the other arm's,
at rate a = a_plus or a_minus of its role (chosen c or unchosen u), so
every coefficient is a one-arm expectation over that arm's reward, or a
product of one such factor per role:

    k = E[1-a],  g = E[a r],  s = E[(1-a)**2],  h = E[2a(1-a) r],  e = E[a**2 r].

Arm 1 is chosen with probability pi; by the symmetry of the ensemble,
<pi Q2> = <Q1> - <pi Q1>, and

    m1'  = k_u m1 + g_u + (k_c - k_u) <pi Q1> + (g_c - g_u) <pi>
    m12' = k_c k_u m12 + (g_c k_u + g_u k_c) m1 + g_c g_u
           + (g_u k_c - g_c k_u) (2 <pi Q1> - m1)
    m11' = s_u m11 + h_u m1 + e_u + (s_c - s_u) <pi Q1**2>
           + (h_c - h_u) <pi Q1> + (e_c - e_u) <pi>

with (m1, m11, m12) = (<Q1>, <Q1**2>, <Q1Q2>).  Only the three
expectations involving the softmax choice probability are not moments.
A second-order Taylor closure around the mean gives

    <pi>       = 1/2
    <pi Q1>    = <Q1>/2   + (beta/4) * Delta
    <pi Q1**2> = <Q1**2>/2 + (beta/2) * <Q1> * Delta

with Delta = <Q1**2> - <Q1Q2> = <(Q1-Q2)**2>/2, closing the system.
For equal (unbiased) rates both roles have the same factors, so every
policy-coupled coefficient is exactly 0.0 and the closure is the exact
recursion at any beta; at ``agents.BayesSchedule`` it is the Bayesian
agent's.  Rates are read through ``rates.at(t)``, so a schedule goes
wherever constant rates do, except into a steady state.

A steady state is where this one map settles: iterated from a point mass
at (1/2, 1/2), as ``propagate_moments`` iterates it, it must come to rest
on the smallest root in [0, 1/4] of the quadratic left after eliminating
m1 and m12 from the fixed-point equations.  Where the trajectory diverges
or settles elsewhere there is none, even if the quadratic has that root.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .agents import LearningRateSet, Rates

# the closure's map settles where a step moves no moment by _TOL, within _MAX_ITER steps
_TOL = 1e-12
_MAX_ITER = 10**6


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


class ConvergenceError(Exception):
    """The closed moment system has no admissible steady state."""


def _arm_factors(a_pos, a_neg, p):
    """One arm's one-step expectations over its own reward r ~ Bernoulli(p),
    learned at rate a = a_pos if r else a_neg: E[1-a], E[a*r], E[(1-a)**2],
    E[2a(1-a)*r] and E[a**2*r].  Exact for Fraction arguments."""
    return (p * (1 - a_pos) + (1 - p) * (1 - a_neg), p * a_pos,
            p * (1 - a_pos) ** 2 + (1 - p) * (1 - a_neg) ** 2,
            2 * p * a_pos * (1 - a_pos), p * a_pos * a_pos)


def _closure_step(rates: Rates, p: float, beta: float, t: int = 0):
    """The closed system's one-step map (m1, m11, m12) -> (m1', m11', m12')
    at trial t, with both roles' factors computed once."""
    apc, amc, apu, amu = rates.at(t)
    kc, gc, sc, hc, ec = _arm_factors(apc, amc, p)
    ku, gu, su, hu, eu = _arm_factors(apu, amu, p)
    pi = 0.5
    b1, b2 = 0.25 * beta, 0.5 * beta
    dk, dg, ds, dh, de = kc - ku, (gc - gu) * pi, sc - su, hc - hu, (ec - eu) * pi
    kk, gk, gg, cross = kc * ku, gc * ku + gu * kc, gc * gu, gu * kc - gc * ku

    def step(m1, m11, m12):
        delta = m11 - m12
        pi_q1 = 0.5 * m1 + b1 * delta
        pi_q11 = 0.5 * m11 + b2 * m1 * delta
        return (ku * m1 + dk * pi_q1 + dg + gu,
                su * m11 + hu * m1 + eu + ds * pi_q11 + dh * pi_q1 + de,
                kk * m12 + gk * m1 + gg + cross * (2 * pi_q1 - m1))
    return step


def step_moments(m: MomentState, rates: Rates, p: float, beta: float,
                 t: int = 0) -> MomentState:
    """One step of the closed moment system at inverse temperature beta."""
    return MomentState(*_closure_step(rates, p, beta, t)(*m))


def propagate_moments(m0: MomentState, rates: Rates, p: float, beta: float,
                      n_steps: int) -> list[MomentState]:
    """Closure trajectory m0..m_{n_steps}; schedules follow the step index."""
    out = [m0]
    for t in range(n_steps):
        out.append(step_moments(out[-1], rates, p, beta, t=t))
    return out


def _steady_rates(rates: Rates) -> tuple[float, float, float, float]:
    """The four rates of a set that has a steady state: constant, and not all zero."""
    if not isinstance(rates, LearningRateSet):
        raise ValueError("steady state is defined for constant rates only")
    if max(rates.at(0)) == 0.0:
        raise ValueError("steady state requires at least one positive learning rate")
    return rates.at(0)


def _quadratic_pieces(rates: LearningRateSet, p: float, beta: float):
    """Coefficients (a, b, c) of the steady-state equation a*D**2 + b*D + c = 0,
    obtained by eliminating m1* and m12* from the closed system."""
    apc, amc, apu, amu = _steady_rates(rates)
    kc, gc, sc, hc, ec = _arm_factors(apc, amc, p)
    ku, gu, su, hu, eu = _arm_factors(apu, amu, p)
    # m1* = u + v*D from the mean; m12* and m11* are then linear in m1* and D
    den_m = 1.0 - (kc + ku) / 2.0
    u = (gc + gu) / 2.0 / den_m
    v = (kc - ku) * beta / 4.0 / den_m
    cm = gc * ku + gu * kc
    cd = (gu * kc - gc * ku) * beta / 2.0
    den_c = 1.0 - kc * ku
    d1 = (hc + hu) / 2.0
    dq = (sc - su) * beta / 2.0
    dd = (hc - hu) * beta / 4.0
    den_d = 1.0 - (sc + su) / 2.0
    qa = dq * v / den_d
    qb = (d1 * v + dq * u + dd) / den_d - (cm * v + cd) / den_c - 1.0
    qc = (d1 * u + (ec + eu) / 2.0) / den_d - (cm * u + gc * gu) / den_c
    return qa, qb, qc


def _steady_state_delta_quadratic(rates: LearningRateSet, p: float, beta: float) -> float:
    """Steady-state value gap from the eliminated quadratic.

    Picks the smallest root in [0, 1/4], the branch the dynamics reach
    from a point-mass start; :func:`steady_state_delta` reports it where
    the closure's map settles on it too.  The roots are qc/q and q/qa with
    q = -(qb + sign(qb)*sqrt(disc))/2, which never subtracts nearly equal
    numbers, so they stay accurate as qa -> 0 near unbiased rates; at
    qa = 0 (p = 1/2 on the x-curve) only the linear root qc/q = -qc/qb
    remains.
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


def _steady_state_moments(rates: LearningRateSet, p: float,
                          beta: float) -> tuple[MomentState, int]:
    """Where the closure's own map settles from a point mass at (1/2, 1/2).

    Runs the trajectory :func:`propagate_moments` runs, step for step, and
    stops at the first step n that moves no moment by _TOL; returns the
    moments after it and n, so they are
    ``propagate_moments(MomentState.point_mass(0.5), rates, p, beta, n)[-1]``.
    """
    _steady_rates(rates)
    step = _closure_step(rates, p, beta)
    m1, m11, m12 = MomentState.point_mass(0.5)
    for n in range(1, _MAX_ITER + 1):
        n1, n11, n12 = step(m1, m11, m12)
        res = max(abs(n1 - m1), abs(n11 - m11), abs(n12 - m12))
        if res < _TOL:
            return MomentState(n1, n11, n12), n
        # moments live in [0, 1]; leaving a slack box means the closure's
        # policy feedback has gain > 1 and no admissible fixed point exists
        if not (math.isfinite(res) and -0.5 < n1 < 1.5
                and -0.5 < n11 < 1.5 and -0.5 < n12 < 1.5):
            raise ConvergenceError(
                f"the closure left the moment box after {n} steps; it has "
                "no admissible steady state here")
        m1, m11, m12 = n1, n11, n12
    raise ConvergenceError(
        f"the closure did not settle within {_MAX_ITER} steps (last step {res:.3e})")


def steady_state_delta(rates: LearningRateSet, p: float, beta: float) -> float:
    """Steady-state value gap Delta* of the closed moment system.

    The eliminated quadratic's smallest root in [0, 1/4], accepted only
    where the closure's own map, iterated from a point mass at (1/2, 1/2)
    as :func:`propagate_moments` iterates it, settles within 1e-8 of it.
    The root is reported because it is accurate to rounding, while the
    map stops once a step moves no moment by _TOL.
    """
    d = _steady_state_moments(rates, p, beta)[0].delta
    dq = _steady_state_delta_quadratic(rates, p, beta)
    if abs(d - dq) > 1e-8:
        raise ConvergenceError(
            f"the closure settles at {d!r}, not at the quadratic root {dq!r}")
    return dq


def x_curve_rates(x: float) -> LearningRateSet:
    """One-parameter family trading chosen-positive/unchosen-negative rates
    (0.1x each) against the two complementary rates (0.2 - 0.1x each);
    x = 1 is unbiased, x > 1 is confirmation-biased."""
    return LearningRateSet(a_plus_c=0.1 * x, a_minus_c=0.2 - 0.1 * x,
                           a_plus_u=0.2 - 0.1 * x, a_minus_u=0.1 * x)


def confirmation_index(rates: Rates) -> float:
    """Normalized asymmetry of the four rates at trial 0, in [-1, 1];
    positive values mean confirmatory updating (fast on confirming
    evidence).  A schedule's four rates are equal, so its index is 0."""
    apc, amc, apu, amu = rates.at(0)
    total = apc + amc + apu + amu
    if total == 0.0:
        raise ValueError("confirmation index undefined for all-zero rates")
    return (apc - amc - apu + amu) / total


class BiasSensitivity(NamedTuple):
    d_delta_dbias: float
    d2_delta_dbeta_dbias: float


def bias_sensitivity(x: float, p: float, beta: float) -> BiasSensitivity:
    """Finite-difference sensitivities of the steady-state gap to bias.

    Differentiates Delta* along the x-curve (where the confirmation index
    equals x - 1, so d/dbias = d/dx) with central steps of 1e-4 in x, and
    mixed with beta with central steps of 0.05 in beta, so beta must be at
    least 0.05: the closure has no negative inverse temperature.
    """
    dx, dbeta = 1e-4, 0.05
    if not 0.0 < p < 1.0:
        raise ValueError("sensitivity undefined at p in {0, 1}: no reward variance")
    if not beta >= dbeta:
        raise ValueError(f"sensitivity needs beta >= {dbeta}, got {beta}: "
                         "its beta steps would leave the model")

    def dstar(xx: float, bb: float) -> float:
        return steady_state_delta(x_curve_rates(xx), p, bb)

    def slope(bb: float) -> float:
        return (dstar(x + dx, bb) - dstar(x - dx, bb)) / (2.0 * dx)

    d1 = slope(beta)
    d2 = (slope(beta + dbeta) - slope(beta - dbeta)) / (2.0 * dbeta)
    return BiasSensitivity(d1, d2)
