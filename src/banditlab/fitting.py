"""Maximum-likelihood fitting of choice models and model comparison.

Four nested-or-adjacent model families are fit to sessions: at each
trial the model's softmax probability of the recorded action enters the
negative log-likelihood, then the model's values learn from the recorded
action and reward(s).

    bayes  (1 parameter)  softmax over beta-posterior means
    const  (2)            one learning rate for everything
    conf   (3)            one rate for confirming evidence (chosen-arm
                          positive, unchosen-arm negative), one for the rest
    full   (5)            all four rates free

const and conf are parameter restrictions of full, so their optimized
likelihoods can never beat it.  Fitting unbiased Bayesian agents with
the asymmetric-rate families is the interesting exercise: the decaying
effective learning rate masquerades as rate asymmetry, and
:func:`recover_bias` runs it for any agent spec.

Every likelihood goes through one batched engine, :func:`_evaluate`.  A
batch of sessions is laid out once as trial tables padded to its longest
session; the engine then scores many (session, parameter) points in
vectorized passes of at most ``_MAX_CELLS`` = 2**14 (point, trial) cells,
each writing every step into its signs and at most three reused (T, P, 2)
float buffers, 56 bytes a cell.  Q values come from an inclusive prefix
scan of the per-trial affine maps q -> (1 - a) q + a r, Bayesian values
from cumulative counts, and each trial costs the log-sigmoid
-log pi = log(1 + exp(-s beta dv)), capped at -log P_MIN.  Every family
is fitted by one optimizer, scipy's default Nelder–Mead rules run on
every (subject, restart) lane of a batch in lockstep (:func:`_nelder_mead`):
one engine call per simplex step serves every lane.  The bayes family
has one lane per subject, started at the minimum of a beta grid.  A
lane's numbers do not depend on which lanes share its batch, how far its
session is padded or how the passes split, so a subject fitted alone gets
the same result as inside any batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np
# scipy.special is imported where a fit first needs it, so importing the
# package, and every scenario that does not fit, loads no scipy; no scenario
# loads scipy.stats, whose Sobol' points and binomial test fitting reproduces
# below, nor scipy's optimizers, whose Nelder–Mead it runs itself

# run_trajectory is the scalar reference the chunk engine reproduces; it stays
# importable here because bench/tracing.py wraps it under this module's name
from .agents import (RATE_NAMES, AgentSpec, Policy, count_values, q_step,  # noqa: F401
                     run_trajectory)
from .env import Environment, RngStream
from .sessions import SessionData, synthesize_sessions

P_MIN = 1e-10  # likelihood floor; hitting it is flagged in the fit diagnostics
_NLL_CAP = -math.log(P_MIN)
BETA_MAX = 50.0
# Offset separating fit-restart streams from trajectory replica streams
# under the same master seed.
_FIT_STREAM_BASE = 1 << 48
# Restart points are the first points of a scrambled 30-bit Sobol' sequence,
# which has 2**30 of them.
_SOBOL_BITS = 30
MAX_RESTARTS = 1 << _SOBOL_BITS
# (primitive polynomial, initial direction numbers) of Sobol' dimensions
# 2-5, enough for the largest family, from Joe & Kuo (2008), SIAM J. Sci.
# Comput. 30:2635; dimension 1 is the van der Corput sequence.
_SOBOL_DIRECTIONS = ((3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)))
_FATOL = 1e-8
_XATOL = 1e-6
# scipy's Nelder–Mead coefficients (reflection, expansion, contraction,
# shrink) and initial-simplex steps
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025
# the engine scores at most this many (point, trial) cells per pass
_MAX_CELLS = 1 << 14


@dataclass(frozen=True)
class ModelFamily:
    """Parameter names, beta last, and for a Q family which of them fills
    each of the four rates."""

    name: str
    param_names: tuple[str, ...]
    rate_columns: Optional[tuple[int, ...]] = None

    @property
    def df(self) -> int:
        return len(self.param_names)


# Fewest parameters first: families are fitted in this order, model
# selection breaks ties by it, and each Q family nests in every later one.
MODEL_FAMILIES = {f.name: f for f in (
    ModelFamily("bayes", ("beta",)),
    ModelFamily("const", ("alpha", "beta"), (0, 0, 0, 0)),
    ModelFamily("conf", ("alpha_confirm", "alpha_disconfirm", "beta"), (0, 1, 1, 0)),
    ModelFamily("full", RATE_NAMES + ("beta",), (0, 1, 2, 3)),
)}


@dataclass(frozen=True)
class FitResult:
    subject_id: str
    model: str
    params: Mapping[str, float]
    nll: float
    bic: float
    converged: bool
    restarts_used: int
    clamped: bool = False
    n_evals: int = 0


class _Tables:
    """A batch of sessions as trial-major tables, padded to the longest.

    ``sign`` (T, S) is +1 where arm 1 was chosen, -1 for arm 2 and 0 on
    padding.  ``reward`` (T, S, 2) is each arm's reward, 0 where unseen.
    ``rate`` (T, S, 2) indexes each arm's rate in (a_plus_c, a_minus_c,
    a_plus_u, a_minus_u, 0), picked as ``agents.q_step`` picks it; the zero
    rate serves an arm that feedback hides and padding.  ``bayes_dv`` (T, S)
    is the posterior-mean gap v1 - v2 before each trial and ``bayes_end``
    (S, 2) the means after the last one.
    """

    def __init__(self, sessions: Sequence[SessionData]):
        for s in sessions:
            s.validate()
        self.ids = [s.subject_id for s in sessions]
        self.n = np.array([s.n_trials for s in sessions])
        S, T = len(sessions), int(self.n.max())
        chose1 = np.zeros((T, S), dtype=bool)
        seen = np.zeros((T, S, 2), dtype=bool)
        reward = np.zeros((T, S, 2), dtype=np.int64)
        for j, s in enumerate(sessions):
            n = s.n_trials
            c = s.actions == 1
            ru = s.r_unchosen if s.counterfactual else np.zeros(n)
            chose1[:n, j] = c
            reward[:n, j, 0] = np.where(c, s.r_chosen, ru)
            reward[:n, j, 1] = np.where(c, ru, s.r_chosen)
            seen[:n, j, 0] = c | s.counterfactual
            seen[:n, j, 1] = ~c | s.counterfactual
        mine = np.stack([chose1, ~chose1], axis=-1)
        self.rate = np.where(seen, np.where(mine, 0, 2) + 1 - reward, 4)
        self.reward = reward.astype(float)
        padding = np.arange(T)[:, None] >= self.n
        self.sign = np.where(padding, 0.0, np.where(chose1, 1.0, -1.0))
        # counts before each trial and after the last, as count_step keeps them
        succ = np.zeros((T + 1, S, 2), dtype=np.int64)
        pulls = np.zeros((T + 1, S, 2), dtype=np.int64)
        np.cumsum(reward, axis=0, out=succ[1:])
        np.cumsum(seen, axis=0, out=pulls[1:])
        v1, v2 = count_values(succ[..., 0], pulls[..., 0], succ[..., 1], pulls[..., 1])
        self.bayes_dv = (v1 - v2)[:-1]
        last = (self.n, np.arange(S))
        self.bayes_end = np.stack([v1[last], v2[last]], axis=1)


def _evaluate_pass(tab: _Tables, family: str, sess: np.ndarray, params: np.ndarray):
    sign = np.take(tab.sign, sess, axis=1)
    T, P = sign.shape
    columns = MODEL_FAMILIES[family].rate_columns
    if columns is None:
        dv = np.take(tab.bayes_dv, sess, axis=1)
        end = np.take(tab.bayes_end, sess, axis=0)
        x = np.empty((T, P))
    else:
        rates = np.zeros((P, 5))
        rates[:, :4] = params[:, columns]
        # point p's rates are rates.flat[5p:5p + 5]: offset its index in place
        index = np.take(tab.rate, sess, axis=1)
        index += np.repeat(np.arange(0, 5 * P, 5), 2).reshape(P, 2)
        add = np.take(rates, index)
        del index
        # compose the maps q -> mul q + add over trials, the start value 1/2
        # folded into trial 0, so that add[t] ends as the values after t; each
        # step's products go to tmp, which swaps with mul when mul moves
        mul = np.subtract(1.0, add)
        tmp = np.take(tab.reward, sess, axis=1)
        add *= tmp
        add[0] += 0.5 * mul[0]
        d = 1
        while d < T:
            np.multiply(mul[d:], add[:-d], out=tmp[:T - d])
            add[d:] += tmp[:T - d]
            if 2 * d < T:
                np.multiply(mul[d:], mul[:-d], out=tmp[d:])
                tmp[:d] = mul[:d]
                mul, tmp = tmp, mul
            d *= 2
        dv = tmp.reshape(2, T, P)[0]
        dv[0] = 0.0
        np.subtract(add[:-1, :, 0], add[:-1, :, 1], out=dv[1:])
        # each session's own last trial: a padded position composes the maps
        # in another order
        end = add[tab.n[sess] - 1, np.arange(P)]
        x = mul.reshape(2, T, P)[0]
    np.negative(sign, out=x)
    x *= params[:, -1]
    x *= dv
    z = dv  # log(1 + e^x) = max(x, 0) + log1p(e^-|x|)
    np.negative(np.abs(x, out=z), out=z)
    np.log1p(np.exp(z, out=z), out=z)
    z += np.maximum(x, 0.0, out=x)
    clamped = (z > _NLL_CAP).any(axis=0)
    np.minimum(z, _NLL_CAP, out=z)
    z *= np.abs(sign, out=sign)
    # accumulate adds in trial order whatever the padding or the batch;
    # a pairwise sum would regroup the terms
    nll = np.add.accumulate(z, axis=0, out=x)[-1].copy()
    return nll, clamped, end[:, 0], end[:, 1]


def _evaluate(tab: _Tables, family: str, sess, params: np.ndarray):
    """Score points: point i is session ``sess[i]`` of ``tab`` under the
    natural parameters ``params[i]`` of ``family`` (its parameter order,
    beta last).  Returns each point's NLL, whether a trial hit the P_MIN
    floor, and the values (v1, v2) after the session's last trial."""
    sess = np.asarray(sess, dtype=np.intp)
    step = max(1, _MAX_CELLS // tab.sign.shape[0])
    if len(sess) <= step:
        return _evaluate_pass(tab, family, sess, params)
    parts = [_evaluate_pass(tab, family, sess[i:i + step], params[i:i + step])
             for i in range(0, len(sess), step)]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _sorted(sim: np.ndarray, fsim: np.ndarray):
    rows = np.arange(len(fsim))[:, None]
    ind = np.argsort(fsim, axis=1)
    return sim[rows, ind], fsim[rows, ind]


def _nelder_mead(f, x0: np.ndarray, fatol: float, xatol: float):
    """scipy's default Nelder–Mead, run on every row of ``x0`` in lockstep.

    Each row is an independent minimization (a lane) that takes the steps
    scipy's ``minimize(method="Nelder-Mead")`` takes: the same
    initial simplex, reflection, expansion, contraction and shrink rules,
    sorts, termination tests and budget of 200 N evaluations, also where
    the budget runs out inside an iteration.  ``f(points, lanes)``
    returns the objective at ``points[i]`` for lane ``lanes[i]``.  Returns,
    per lane, scipy's ``x``, ``fun``, ``nfev`` and ``success``, and the
    value at the start point.
    """
    L, N = x0.shape
    # each iteration spends an evaluation, so the iteration cap of 200 N
    # can never bind before this one
    maxfun = 200 * N
    sim = np.repeat(x0[:, None, :], N + 1, axis=1)
    k = np.arange(N)
    sim[:, k + 1, k] = np.where(x0 != 0, (1 + _NONZDELT) * x0, _ZDELT)
    fsim = f(sim.reshape(-1, N), np.repeat(np.arange(L), N + 1)).reshape(L, N + 1)
    f0 = fsim[:, 0].copy()
    sim, fsim = _sorted(*_sorted(sim, fsim))  # scipy sorts twice before iterating
    fcalls = np.full(L, N + 1)
    lane = np.arange(L)
    x_out, f_out = np.empty((L, N)), np.empty(L)
    nfev, success = np.empty(L, dtype=int), np.empty(L, dtype=bool)
    while lane.size:
        live = fcalls < maxfun
        conv = (live & (np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol)
                & (np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= fatol))
        stop = conv | ~live
        if stop.any():
            out = lane[stop]
            x_out[out], f_out[out] = sim[stop, 0], fsim[stop].min(axis=1)
            nfev[out], success[out] = fcalls[stop], conv[stop]
            go = ~stop
            lane, sim, fsim, fcalls = lane[go], sim[go], fsim[go], fcalls[go]
            if not lane.size:
                break
        xbar = np.add.reduce(sim[:, :-1], 1) / N
        worst = sim[:, -1]
        xr = (1 + _RHO) * xbar - _RHO * worst
        fxr = f(xr, lane)
        fcalls += 1
        expand = fxr < fsim[:, 0]
        keep_r = ~expand & (fxr < fsim[:, -2])
        outside = ~expand & ~keep_r & (fxr < fsim[:, -1])
        # every other lane needs a second point; one out of budget abandons
        # the iteration, as scipy's budget exception does
        second = ~keep_r & (fcalls < maxfun)
        x2 = np.where(expand[:, None], (1 + _RHO * _CHI) * xbar - _RHO * _CHI * worst,
                      np.where(outside[:, None],
                               (1 + _PSI * _RHO) * xbar - _PSI * _RHO * worst,
                               (1 - _PSI) * xbar + _PSI * worst))
        f2 = np.full(lane.size, np.nan)
        if second.any():
            f2[second] = f(x2[second], lane[second])
            fcalls += second
        take2 = second & np.where(expand, f2 < fxr,
                                  np.where(outside, f2 <= fxr, f2 < fsim[:, -1]))
        take_r = keep_r | (second & expand & ~take2)
        sim[take2, -1], fsim[take2, -1] = x2[take2], f2[take2]
        sim[take_r, -1], fsim[take_r, -1] = xr[take_r], fxr[take_r]
        shrink = np.flatnonzero(second & ~expand & ~take2)
        if shrink.size:
            # a lane whose budget runs out mid-shrink stops there
            scored = np.arange(1, N + 1) <= (maxfun - fcalls[shrink])[:, None]
            base = sim[shrink, :1]
            verts, fverts = sim[shrink, 1:], fsim[shrink, 1:]
            verts[scored] = (base + _SIGMA * (verts - base))[scored]
            owner = np.broadcast_to(lane[shrink, None], scored.shape)
            fverts[scored] = f(verts[scored], owner[scored])
            sim[shrink, 1:], fsim[shrink, 1:] = verts, fverts
            fcalls[shrink] += scored.sum(axis=1)
        sim, fsim = _sorted(sim, fsim)
    return x_out, f_out, f0, nfev, success


def _rates_of(family: str, params: Mapping[str, float]):
    fam = MODEL_FAMILIES[family]
    if fam.rate_columns is None:
        raise ValueError(f"family {family!r} has no rate parameters")
    return tuple(params[fam.param_names[c]] for c in fam.rate_columns)


def _params_array(family: str, params: Sequence[Mapping[str, float]]) -> np.ndarray:
    names = MODEL_FAMILIES[family].param_names
    return np.array([[p[name] for name in names] for p in params], dtype=float)


def _params_dict(family: str, row) -> dict:
    return {name: float(v) for name, v in zip(MODEL_FAMILIES[family].param_names, row)}


def nll(family: str, params: Mapping[str, float], session: SessionData) -> float:
    """Negative log-likelihood of a session under a parameterised family."""
    fam = MODEL_FAMILIES.get(family)
    if fam is None:
        raise ValueError(f"unknown model family {family!r}")
    if not params["beta"] >= 0:  # NaN too
        raise ValueError("beta must be nonnegative")
    if fam.rate_columns is not None:
        for r in _rates_of(family, params):
            if not 0.0 <= r <= 1.0:
                raise ValueError("learning rates must lie in [0, 1]")
    return float(_evaluate(_Tables([session]), family, [0],
                           _params_array(family, [params]))[0][0])


def bic(nll_value: float, df: int, n_trials: int) -> float:
    """Bayesian information criterion with trials as the sample size."""
    return df * math.log(n_trials) + 2.0 * nll_value


def _unpack(y: np.ndarray) -> np.ndarray:
    """Natural parameters of optimizer points: logistic rates, beta = e^y
    capped at BETA_MAX."""
    from scipy.special import expit

    p = np.empty_like(y)
    p[:, :-1] = expit(y[:, :-1])
    p[:, -1] = np.minimum(np.exp(np.minimum(y[:, -1], 700.0)), BETA_MAX)
    return p


@functools.cache
def _sobol_direction_bits() -> np.ndarray:
    """The unscrambled direction numbers of dimensions 1-5 as 0/1 floats,
    indexed (dimension, number, bit), most significant bit first."""
    rows = [[1] * _SOBOL_BITS]
    for poly, vinit in _SOBOL_DIRECTIONS:
        m, row = len(vinit), list(vinit)
        for j in range(m, _SOBOL_BITS):
            new = row[j - m]
            for k in range(m):
                if (poly >> (m - 1 - k)) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row.append(new)
        rows.append(row)
    # number j has at most j + 1 bits: shifted left by 29 - j, they lead its 30
    down = np.arange(_SOBOL_BITS - 1, -1, -1)
    v = np.array(rows, dtype=np.int64) << down
    return ((v[..., None] >> down) & 1).astype(float)


def _sobol(d: int, n: int, gen: np.random.Generator) -> np.ndarray:
    """The first ``n`` points of the d-dimensional scrambled Sobol' sequence,
    bit for bit those of ``scipy.stats.qmc.Sobol(d, scramble=True,
    seed=...).random(n)`` for an engine that owns ``gen``.

    As scipy's engine does, it draws a random digital shift, then one random
    lower-triangular bit matrix per dimension with a unit diagonal (the
    linear matrix scramble), both as 0/1 ``uint32`` from ``gen``; each
    scrambled direction number is its dimension's matrix times the number's
    bits, most significant first, mod 2.  Point i is the shift XOR the
    direction numbers at the set bits of i's Gray code, scaled by 2**-30.
    """
    if n > 1 << _SOBOL_BITS:
        raise ValueError(f"a Sobol' sequence has at most 2**{_SOBOL_BITS} points, "
                         f"asked for {n}")
    bits = _SOBOL_BITS
    weights = np.uint32(1) << np.arange(bits, dtype=np.uint32)  # least significant first
    shift = gen.integers(0, 2, size=(d, bits), dtype=np.uint32) @ weights
    ltm = np.tril(gen.integers(0, 2, size=(d, bits, bits), dtype=np.uint32))
    ltm[:, range(bits), range(bits)] = 1
    sv_bits = (_sobol_direction_bits()[:d] @ ltm.transpose(0, 2, 1)).astype(np.uint32) & 1
    sv = sv_bits @ weights[::-1]
    i = np.arange(n, dtype=np.uint32)
    gray = i ^ (i >> 1)
    q = np.repeat(shift[None], n, axis=0)
    for b in range((n - 1).bit_length()):
        q[((gray >> b) & 1).astype(bool)] ^= sv[:, b]
    return q * 2.0 ** -bits


def _start_points(family: str, restarts: int, seed: int, stream_index: int) -> np.ndarray:
    """Restart points of one fit stream: the first ``restarts`` of the
    smallest power-of-two count of scrambled Sobol' points, mapped to
    rates in [0.02, 0.98] and beta log-uniform in [0.1, BETA_MAX]."""
    from scipy.special import logit

    d = MODEL_FAMILIES[family].df
    # scipy's engine spawns a child of the generator it is given and draws
    # from that; spawning the same child reproduces its points
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(
        [seed % 2**64, _FIT_STREAM_BASE + stream_index]).spawn(1)[0]))
    u = _sobol(d, 1 << (restarts - 1).bit_length(), gen)[:restarts]
    y = np.empty_like(u)
    y[:, :-1] = logit(0.02 + 0.96 * u[:, :-1])  # rate starts away from the edges
    y[:, -1] = math.log(0.1) + u[:, -1] * (math.log(BETA_MAX) - math.log(0.1))
    return y


def _pack(family: str, params: Mapping[str, float]) -> np.ndarray:
    """Inverse of _unpack; clips to keep the transforms finite."""
    from scipy.special import logit

    names = MODEL_FAMILIES[family].param_names
    y = np.empty(len(names))
    for i, name in enumerate(names[:-1]):
        y[i] = logit(min(max(params[name], 1e-12), 1.0 - 1e-12))
    y[-1] = math.log(min(max(params["beta"], 1e-10), BETA_MAX))
    return y


def _embed(target: str, source: str, params: Mapping[str, float]) -> dict:
    """Express a Q family's parameters in a later one: each target parameter
    takes the source's value of the first rate it ties.  Exact whenever the
    source rates satisfy the target's tying, as an earlier family's do."""
    rates, fam = _rates_of(source, params), MODEL_FAMILIES[target]
    return {**{name: rates[fam.rate_columns.index(i)]
               for i, name in enumerate(fam.param_names[:-1])}, "beta": params["beta"]}


def _check_restarts(restarts: int) -> None:
    if not 1 <= restarts <= MAX_RESTARTS:
        raise ValueError(f"restarts must be from 1 to 2**{_SOBOL_BITS}, got {restarts}")


def _fit_batch(family: str, tab: _Tables, streams: Sequence[int], restarts: int,
               seed: int, warm: Optional[Sequence[Sequence[Mapping[str, float]]]] = None
               ) -> list[FitResult]:
    """Fit one family to every session of ``tab`` in one lockstep.

    Session i restarts from the Sobol points of stream ``streams[i]`` plus
    its ``warm`` parameter sets; the best start or simplex optimum over its
    restarts, the first on ties, is its fit.  The bayes family instead
    scans a 201-point beta grid for every session in one pass and refines
    each session's grid minimum with one simplex lane on beta clipped to
    [0, BETA_MAX], with no restarts.  No result raises: a session with no
    converged lane keeps its best point with ``converged`` False.
    """
    fam = MODEL_FAMILIES[family]
    S = len(tab.ids)
    if family == "bayes":
        grid = np.linspace(0.0, BETA_MAX, 201)
        vals = _evaluate(tab, "bayes", np.repeat(np.arange(S), grid.size),
                         np.tile(grid, S)[:, None])[0].reshape(S, grid.size)
        x0 = grid[np.argmin(vals, axis=1)][:, None]
        restarts_used, grid_evals = 0, grid.size

        def unpack(y):
            return np.clip(y, 0.0, BETA_MAX)
    else:
        x0 = np.concatenate([
            np.vstack([_start_points(family, restarts, seed, k)]
                      + [_pack(family, p) for p in (warm[i] if warm else ())])
            for i, k in enumerate(streams)])
        restarts_used, grid_evals, unpack = len(x0) // S, 0, _unpack
    lane_sess = np.repeat(np.arange(S), len(x0) // S)

    def objective(points, lanes):
        return _evaluate(tab, family, lane_sess[lanes], unpack(points))[0]

    x, fun, f0, nfev, ok = _nelder_mead(objective, x0, _FATOL, _XATOL)
    # each lane offers its start, then its optimum; the first strict minimum
    # over that sequence wins
    cand_f = np.stack([f0, fun], axis=1).reshape(S, -1)
    cand_y = np.stack([x0, x], axis=1).reshape(S, -1, fam.df)
    pick = np.argmin(np.where(np.isnan(cand_f), np.inf, cand_f), axis=1)
    best = unpack(cand_y[np.arange(S), pick])
    converged = ok.reshape(S, -1).any(axis=1)
    evals = grid_evals + nfev.reshape(S, -1).sum(axis=1)
    nlls, clamped, _, _ = _evaluate(tab, family, np.arange(S), best)
    return [FitResult(tab.ids[i], family, _params_dict(family, best[i]), float(nlls[i]),
                      bic(float(nlls[i]), fam.df, int(tab.n[i])), bool(converged[i]),
                      restarts_used, bool(clamped[i]), int(evals[i]))
            for i in range(S)]


def fit_subject(family: str, session: SessionData, restarts: int = 20,
                seed: int = 0, stream_index: int = 0) -> FitResult:
    """Fit one family to one session by restarted simplex search.

    Rates are optimized through a logistic transform and beta through a
    log transform capped at 50.  The one-parameter bayes family is
    refined by the same simplex from the minimum of a beta grid instead,
    so its result does not depend on the restart draws at all.
    Deterministic given (session, family, seed, stream_index).  A fit with
    no converged restart keeps its best point with ``converged`` False.
    """
    if family not in MODEL_FAMILIES:
        raise ValueError(f"unknown model family {family!r}")
    _check_restarts(restarts)
    return _fit_batch(family, _Tables([session]), [stream_index], restarts, seed)[0]


def fit_families(sessions: Sequence[SessionData], families: Optional[Sequence[str]] = None,
                 restarts: int = 20, seed: int = 0,
                 stream_index: int = 0) -> list[dict[str, FitResult]]:
    """Fit several families to a batch of sessions, warm-starting nested ones.

    Families are fitted in the order of :data:`MODEL_FAMILIES`, and each Q
    family receives the optima of every Q family already fitted as extra
    restart points, so NLL(full) <= NLL(conf) <= NLL(const) holds exactly
    rather than up to restart luck.  Session i of the batch fits family k
    of that order from restart stream ``stream_index + 4 i + k``.
    Every session is fitted family by family in one lockstep, and a
    session's fits do not depend on the rest of its batch.  Returns one
    ``{family: FitResult}`` per session, in order; a single session is fitted
    as ``fit_families([session])[0]``.  A fit with no converged restart
    keeps its best point with ``converged`` False.
    """
    if families is None:
        families = tuple(MODEL_FAMILIES)
    for f in families:
        if f not in MODEL_FAMILIES:
            raise ValueError(f"unknown model family {f!r}")
    _check_restarts(restarts)
    batch = list(sessions)
    out: list[dict[str, FitResult]] = [{} for _ in batch]
    if batch:
        tab = _Tables(batch)
        for k, fam in enumerate(MODEL_FAMILIES):
            if fam not in families:
                continue
            # a session's fits so far are the earlier families', in order
            warm = [[_embed(fam, s, f.params) for s, f in fits.items()
                     if MODEL_FAMILIES[s].rate_columns is not None] for fits in out]
            streams = [stream_index + len(MODEL_FAMILIES) * i + k for i in range(len(batch))]
            for fits, r in zip(out, _fit_batch(fam, tab, streams, restarts, seed, warm)):
                fits[fam] = r
    return out


def best_model(fits: Sequence[FitResult]) -> str:
    """Family with the lowest BIC; ties go to the family earlier in
    :data:`MODEL_FAMILIES`, the one with fewer parameters."""
    if len(fits) < 2:
        raise ValueError("model selection needs at least two fits")
    return min(fits, key=lambda f: (f.bic, list(MODEL_FAMILIES).index(f.model))).model


def _sign_test(x: Sequence[float], y: Sequence[float]) -> tuple[int, int, Optional[float]]:
    """Two-sided sign test on paired differences.

    Returns (#x > y, #x < y, p); p is None when undecidable.  p is the exact
    two-sided binomial test of the untied pairs at 1/2, bit for bit
    ``scipy.stats.binomtest(gt, gt + lt, 0.5).pvalue``: with m the smaller
    count of n, both tails P(K <= m) + P(K >= n - m), or 1 for an even split,
    summed from the Boost binomial CDF and survival function that
    ``scipy.stats.binom`` calls."""
    from scipy.special._ufuncs import _binom_cdf, _binom_sf

    gt = sum(1 for a, b in zip(x, y) if a > b)
    lt = sum(1 for a, b in zip(x, y) if a < b)
    if len(x) < 2 or gt + lt == 0:
        return gt, lt, None
    n, m = gt + lt, min(gt, lt)
    if 2 * m == n:
        return gt, lt, 1.0
    return gt, lt, min(1.0, float(_binom_cdf(m, n, 0.5)) + float(_binom_sf(n - m - 1, n, 0.5)))


@dataclass
class RecoveryReport:
    """Ensemble of per-agent fits of one family to simulated agents.

    ``p_value_chosen`` and ``p_value_unchosen`` are two-sided sign tests of
    a+c against a-c and of a-u against a+u, so a significant reversal
    reads as significant too; ``sign_counts`` gives each test's direction
    as the number of agents on either side (ties in neither).  Fit health:
    ``frac_beta_at_cap`` is the fraction of fits whose beta sits at
    ``BETA_MAX``, where the fitted rate asymmetry is least identified;
    ``frac_not_converged`` the fraction with no converged restart; and
    ``frac_rate_at_edge`` the fraction of fitted rates below 1e-6 or above
    1 - 1e-6.
    """

    n_agents: int
    fit_family: str
    mean_rates: dict
    frac_positivity: float
    frac_confirmation: float
    p_value_chosen: Optional[float]
    p_value_unchosen: Optional[float]
    fits: list
    sign_counts: dict
    frac_beta_at_cap: float
    frac_not_converged: float
    frac_rate_at_edge: float


def recover_bias(agent: AgentSpec, env: Environment, n_agents: int, seed: int = 0,
                 restarts: int = 20) -> RecoveryReport:
    """Simulate agents, fit each with the full four-rate family, and test
    whether the fitted rates are systematically asymmetric.

    ``agent`` is any agent spec: an unbiased Bayesian learner, the matched
    control (a constant-rate unbiased Q-learner under the same choice
    rule), or a learner that really is biased.  The control measures the
    asymmetry the refit itself produces for an unbiased constant-rate
    learner: on short sessions that is not zero (at T=24 the fitted beta
    mostly sits at its cap and the sign of the rate asymmetry follows where
    the fit lands on the beta-rate ridge), so a Bayesian ensemble's
    asymmetry is read against the control's, not against zero.  Agent i is
    simulated on stream (seed, i) and its fit restarts from fit stream i;
    all agents are fitted in one lockstep, and an agent with no converged
    restart keeps its best point with ``converged`` False.  Sign-test
    p-values are omitted for ensembles too small to test.
    """
    if not env.counterfactual:
        raise ValueError("bias recovery is defined for counterfactual feedback")
    _check_restarts(restarts)
    fit_family = "full"
    sessions = synthesize_sessions(agent, env, n_agents, seed, prefix="agent")
    fits = _fit_batch(fit_family, _Tables(sessions), range(n_agents), restarts, seed)
    fitted = _params_array(fit_family, [f.params for f in fits])[:, :-1]
    rates = dict(zip(RATE_NAMES, fitted.T))
    pos = rates["a_plus_c"] > rates["a_minus_c"]
    disc = rates["a_minus_u"] > rates["a_plus_u"]
    c_gt, c_lt, p_chosen = _sign_test(rates["a_plus_c"], rates["a_minus_c"])
    u_gt, u_lt, p_unchosen = _sign_test(rates["a_minus_u"], rates["a_plus_u"])
    return RecoveryReport(
        n_agents=n_agents, fit_family=fit_family,
        mean_rates={k: float(np.mean(v)) for k, v in rates.items()},
        frac_positivity=float(np.mean(pos)),
        frac_confirmation=float(np.mean(pos & disc)),
        p_value_chosen=p_chosen, p_value_unchosen=p_unchosen, fits=fits,
        sign_counts={"a_plus_c>a_minus_c": c_gt, "a_plus_c<a_minus_c": c_lt,
                     "a_minus_u>a_plus_u": u_gt, "a_minus_u<a_plus_u": u_lt},
        frac_beta_at_cap=float(np.mean([f.params["beta"] == BETA_MAX for f in fits])),
        frac_not_converged=float(np.mean([not f.converged for f in fits])),
        frac_rate_at_edge=float(np.mean((fitted < 1e-6) | (fitted > 1.0 - 1e-6))))


class NewArmPoint(NamedTuple):
    model: str
    p3: float
    choice_prob: float
    stderr: float


def new_arm_curve(fit_bayes: FitResult, fit_q: FitResult, session: SessionData,
                  p3_grid: Sequence[float], n3: int = 24, reps: int = 10_000,
                  seed: int = 0) -> list[NewArmPoint]:
    """Predicted preference for a freshly introduced arm, per fitted model.

    For each candidate reward rate p3, each model trains its own value for
    the new arm on ``n3`` simulated pulls (posterior updating for the
    bayes fit, the fitted chosen-arm rates for the Q fit), then chooses
    between the new arm and arm 1 at its terminal session value via the
    fitted softmax.  Both models see the same reward draws.
    """
    if fit_bayes.model != "bayes":
        raise ValueError("first fit must be from the bayes family")
    if fit_q.model not in MODEL_FAMILIES or MODEL_FAMILIES[fit_q.model].rate_columns is None:
        raise ValueError("second fit must be from a Q family")
    if fit_bayes.subject_id != session.subject_id or fit_q.subject_id != session.subject_id:
        raise ValueError("fits and session must describe the same subject")
    if reps < 2:
        raise ValueError(f"reps must be at least 2 for a standard error, got {reps}")
    if n3 < 1:
        raise ValueError(f"n3 must be at least 1, got {n3}")
    tab = _Tables([session])
    v1_bayes, v1_q = (
        float(_evaluate(tab, f.model, [0], _params_array(f.model, [f.params]))[2][0])
        for f in (fit_bayes, fit_q))
    apc, amc, _, _ = _rates_of(fit_q.model, fit_q.params)
    policy_b = Policy(fit_bayes.params["beta"])
    policy_q = Policy(fit_q.params["beta"])

    out = []
    for j, p3 in enumerate(p3_grid):
        r = RngStream(seed, (1 << 32) + j).uniform_block((reps, n3)) < p3
        v3, _ = count_values(r.sum(axis=1), n3, 0, 0)
        pb = policy_b.choice_prob(v3, v1_bayes)
        out.append(NewArmPoint("bayes", float(p3), float(pb.mean()),
                               float(pb.std(ddof=1) / math.sqrt(reps))))
        v = np.full(reps, 0.5)
        for t in range(n3):
            # the new arm is always the chosen one; the other arm is a dummy
            v, _ = q_step(v, 0.5, 1, r[:, t], 0, apc, amc, 0.0, 0.0)
        pq = policy_q.choice_prob(v, v1_q)
        out.append(NewArmPoint(fit_q.model, float(p3), float(pq.mean()),
                               float(pq.std(ddof=1) / math.sqrt(reps))))
    return out
