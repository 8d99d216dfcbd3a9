"""Maximum-likelihood fitting of choice models and model comparison.

Four nested-or-adjacent model families are fit by replaying a session:
at each trial the model's softmax probability of the recorded action is
accumulated into the negative log-likelihood, then the model's state is
updated with the recorded action and reward(s).

    bayes  (1 parameter)  softmax over beta-posterior means
    const  (2)            one learning rate for everything
    conf   (3)            one rate for confirming evidence (chosen-arm
                          positive, unchosen-arm negative), one for the rest
    full   (5)            all four rates free

const and conf are parameter restrictions of full, so their optimized
likelihoods can never beat it.  Fitting unbiased Bayesian agents with
the asymmetric-rate families is the interesting exercise: the decaying
effective learning rate masquerades as rate asymmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np
from scipy import optimize
from scipy.special import expit, logit
from scipy.stats import binomtest, qmc

from .agents import (BayesAgentSpec, LearningRateSet, Policy, QAgentSpec, count_step,
                     count_values, q_step, run_trajectory)
from .env import Environment, RngStream
from .sessions import SessionData, session_from_trajectory

P_MIN = 1e-10  # likelihood floor; hitting it is flagged in the fit diagnostics
BETA_MAX = 50.0
# Offset separating fit-restart streams from trajectory replica streams
# under the same master seed.
_FIT_STREAM_BASE = 1 << 48


@dataclass(frozen=True)
class ModelFamily:
    name: str
    df: int
    param_names: tuple[str, ...]


MODEL_FAMILIES = {
    "bayes": ModelFamily("bayes", 1, ("beta",)),
    "const": ModelFamily("const", 2, ("alpha", "beta")),
    "conf": ModelFamily("conf", 3, ("alpha_confirm", "alpha_disconfirm", "beta")),
    "full": ModelFamily("full", 5,
                        ("a_plus_c", "a_minus_c", "a_plus_u", "a_minus_u", "beta")),
}
# tie-break order for model selection: fewest parameters first
FAMILY_ORDER = ("bayes", "const", "conf", "full")


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

    def to_dict(self) -> dict:
        return {"subject_id": self.subject_id, "model": self.model,
                "params": {k: float(v) for k, v in self.params.items()},
                "nll": float(self.nll), "bic": float(self.bic),
                "converged": self.converged, "restarts_used": self.restarts_used,
                "clamped": self.clamped}


class FitError(Exception):
    """No restart converged; ``best`` holds the best point found anyway."""

    def __init__(self, message: str, best: FitResult):
        super().__init__(message)
        self.best = best


def _sigmoid(d: float) -> float:
    if d >= 0.0:
        return 1.0 / (1.0 + math.exp(-d))
    e = math.exp(d)
    return e / (1.0 + e)


def _session_lists(session: SessionData):
    session.validate()
    actions = [int(a) for a in session.actions]
    rc = [int(r) for r in session.r_chosen]
    ru = ([int(r) for r in session.r_unchosen] if session.counterfactual
          else [0] * len(actions))
    return actions, rc, ru, session.counterfactual


def _replay_q(actions, rc, ru, cf, apc, amc, apu, amu, beta):
    """Replay with a Q-state; returns (nll, clamped, terminal q1, terminal q2).

    The update below is ``agents.q_step`` written out for one trial.  It is
    the one inline copy of the Q rule: calling the step once per trial
    doubles the replay's cost, and the replay is about half of every
    objective evaluation in a fit.  A property test pins it to the step.
    """
    q1 = 0.5
    q2 = 0.5
    total = 0.0
    clamped = False
    for i in range(len(actions)):
        pi1 = _sigmoid(beta * (q1 - q2))
        p = pi1 if actions[i] == 1 else 1.0 - pi1
        if p < P_MIN:
            p = P_MIN
            clamped = True
        total -= math.log(p)
        if actions[i] == 1:
            e = rc[i] - q1
            q1 += apc * e if e > 0.0 else amc * e
            if cf:
                e = ru[i] - q2
                q2 += apu * e if e > 0.0 else amu * e
        else:
            e = rc[i] - q2
            q2 += apc * e if e > 0.0 else amc * e
            if cf:
                e = ru[i] - q1
                q1 += apu * e if e > 0.0 else amu * e
    return total, clamped, q1, q2


def _replay_bayes(actions, rc, ru, cf, beta):
    """Replay with posterior counts; returns (nll, clamped, terminal means)."""
    s1 = n1 = s2 = n2 = 0
    total = 0.0
    clamped = False
    for i in range(len(actions)):
        v1, v2 = count_values(s1, n1, s2, n2)
        pi1 = _sigmoid(beta * (v1 - v2))
        chose1 = actions[i] == 1
        p = pi1 if chose1 else 1.0 - pi1
        if p < P_MIN:
            p = P_MIN
            clamped = True
        total -= math.log(p)
        r1, r2 = (rc[i], ru[i]) if chose1 else (ru[i], rc[i])
        s1, n1, s2, n2 = count_step(s1, n1, s2, n2, chose1, r1, r2, cf)
    return (total, clamped) + count_values(s1, n1, s2, n2)


def _rates_of(family: str, params: Mapping[str, float]):
    if family == "const":
        a = params["alpha"]
        return a, a, a, a
    if family == "conf":
        return (params["alpha_confirm"], params["alpha_disconfirm"],
                params["alpha_disconfirm"], params["alpha_confirm"])
    if family == "full":
        return (params["a_plus_c"], params["a_minus_c"],
                params["a_plus_u"], params["a_minus_u"])
    raise ValueError(f"family {family!r} has no rate parameters")


def _eval(family: str, params: Mapping[str, float], lists):
    actions, rc, ru, cf = lists
    beta = params["beta"]
    if family == "bayes":
        return _replay_bayes(actions, rc, ru, cf, beta)
    apc, amc, apu, amu = _rates_of(family, params)
    return _replay_q(actions, rc, ru, cf, apc, amc, apu, amu, beta)


def nll(family: str, params: Mapping[str, float], session: SessionData) -> float:
    """Negative log-likelihood of a session under a parameterised family."""
    fam = MODEL_FAMILIES.get(family)
    if fam is None:
        raise ValueError(f"unknown model family {family!r}")
    if params["beta"] < 0:
        raise ValueError("beta must be nonnegative")
    if family != "bayes":
        for r in _rates_of(family, params):
            if not 0.0 <= r <= 1.0:
                raise ValueError("learning rates must lie in [0, 1]")
    return _eval(family, params, _session_lists(session))[0]


def bic(nll_value: float, df: int, n_trials: int) -> float:
    """Bayesian information criterion with trials as the sample size."""
    return df * math.log(n_trials) + 2.0 * nll_value


def _unpack(family: str, y) -> dict:
    names = MODEL_FAMILIES[family].param_names
    params = {}
    for name, yi in zip(names[:-1], y):
        params[name] = float(expit(yi))
    params["beta"] = float(min(math.exp(min(y[-1], 700.0)), BETA_MAX))
    return params


def _start_points(family: str, restarts: int, seed: int, stream_index: int) -> np.ndarray:
    d = MODEL_FAMILIES[family].df
    # seeded via a SeedSequence so the Sobol scrambler can spawn children
    gen = np.random.Generator(np.random.Philox(
        np.random.SeedSequence([seed % 2**64, _FIT_STREAM_BASE + stream_index])))
    sob = qmc.Sobol(d=d, scramble=True, seed=gen)
    n_pow2 = 1 << max(int(np.ceil(np.log2(max(restarts, 1)))), 0)
    u = sob.random(n_pow2)[:restarts]
    y = np.empty_like(u)
    y[:, :-1] = logit(0.02 + 0.96 * u[:, :-1])  # rate starts away from the edges
    y[:, -1] = math.log(0.1) + u[:, -1] * (math.log(BETA_MAX) - math.log(0.1))
    return y


def _pack(family: str, params: Mapping[str, float]) -> np.ndarray:
    """Inverse of _unpack; clips to keep the transforms finite."""
    names = MODEL_FAMILIES[family].param_names
    y = np.empty(len(names))
    for i, name in enumerate(names[:-1]):
        y[i] = logit(min(max(params[name], 1e-12), 1.0 - 1e-12))
    y[-1] = math.log(min(max(params["beta"], 1e-10), BETA_MAX))
    return y


def _embed(target: str, source: str, params: Mapping[str, float]) -> dict:
    """Express a smaller family's parameters in a larger family."""
    apc, amc, apu, amu = _rates_of(source, params)
    beta = params["beta"]
    if target == "conf":
        # valid whenever the source rates satisfy the conf tying, e.g. const
        return {"alpha_confirm": apc, "alpha_disconfirm": amc, "beta": beta}
    if target == "full":
        return {"a_plus_c": apc, "a_minus_c": amc, "a_plus_u": apu,
                "a_minus_u": amu, "beta": beta}
    raise ValueError(f"cannot embed into family {target!r}")


def fit_subject(family: str, session: SessionData, restarts: int = 20,
                seed: int = 0, stream_index: int = 0,
                fatol: float = 1e-8, xatol: float = 1e-6,
                extra_starts: Optional[Sequence[Mapping[str, float]]] = None) -> FitResult:
    """Fit one family to one session by restarted simplex search.

    Rates are optimized through a logistic transform and beta through a
    log transform capped at 50.  The one-parameter bayes family uses a
    deterministic grid-plus-refine line search instead, so its result
    does not depend on the restart draws at all.  ``extra_starts`` adds
    restart points at given parameter values, e.g. a nested family's
    optimum.  Deterministic given (session, family, seed, stream_index,
    extra_starts).
    """
    if family not in MODEL_FAMILIES:
        raise ValueError(f"unknown model family {family!r}")
    lists = _session_lists(session)
    n = len(lists[0])
    fam = MODEL_FAMILIES[family]

    if family == "bayes":
        def f(b):
            return _eval("bayes", {"beta": float(b)}, lists)[0]

        grid = np.linspace(0.0, BETA_MAX, 201)
        vals = [f(b) for b in grid]
        j = int(np.argmin(vals))
        lo = grid[max(j - 1, 0)]
        hi = grid[min(j + 1, len(grid) - 1)]
        res = optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                       options={"xatol": 1e-10})
        best_beta = float(res.x) if res.fun <= vals[j] else float(grid[j])
        params = {"beta": best_beta}
        best_nll, clamped, _, _ = _eval(family, params, lists)
        return FitResult(session.subject_id, family, params, best_nll,
                         bic(best_nll, fam.df, n), True, 0, clamped)

    starts = list(_start_points(family, restarts, seed, stream_index))
    starts += [_pack(family, p) for p in (extra_starts or [])]

    def objective(y):
        return _eval(family, _unpack(family, y), lists)[0]

    best_y, best_fun = None, math.inf
    converged = False
    for y0 in starts:
        res = optimize.minimize(objective, y0, method="Nelder-Mead",
                                options={"fatol": fatol, "xatol": xatol})
        converged = converged or bool(res.success)
        # the start itself counts: simplex polish must never lose to it
        for y, fun in ((y0, objective(y0)), (res.x, res.fun)):
            if fun < best_fun:
                best_y, best_fun = y, fun
    params = _unpack(family, best_y)
    best_nll, clamped, _, _ = _eval(family, params, lists)
    result = FitResult(session.subject_id, family, params, best_nll,
                       bic(best_nll, fam.df, n), converged, len(starts), clamped)
    if not converged:
        raise FitError(f"no simplex restart converged for subject "
                       f"{session.subject_id!r}, family {family!r}", result)
    return result


def fit_families(session: SessionData, families: Optional[Sequence[str]] = None,
                 restarts: int = 20, seed: int = 0, stream_index: int = 0,
                 fatol: float = 1e-8, xatol: float = 1e-6) -> dict[str, FitResult]:
    """Fit several families to one session, warm-starting nested ones.

    Each larger family receives the smaller families' optima as extra
    restart points, so NLL(full) <= NLL(conf) <= NLL(const) holds exactly
    rather than up to restart luck.  ``stream_index`` is a base; family k
    in the canonical order uses stream_index + k.
    """
    if families is None:
        families = FAMILY_ORDER
    for f in families:
        if f not in MODEL_FAMILIES:
            raise ValueError(f"unknown model family {f!r}")
    out: dict[str, FitResult] = {}
    for fam in FAMILY_ORDER:
        if fam not in families:
            continue
        warm = []
        if fam == "conf" and "const" in out:
            warm.append(_embed("conf", "const", out["const"].params))
        elif fam == "full":
            for smaller in ("const", "conf"):
                if smaller in out:
                    warm.append(_embed("full", smaller, out[smaller].params))
        out[fam] = fit_subject(fam, session, restarts, seed,
                               stream_index + FAMILY_ORDER.index(fam),
                               fatol, xatol, extra_starts=warm or None)
    return out


def best_model(fits: Sequence[FitResult]) -> str:
    """Family with the lowest BIC; ties go to fewer parameters, then to the
    fixed order bayes, const, conf, full."""
    if len(fits) < 2:
        raise ValueError("model selection needs at least two fits")
    return min(fits, key=lambda f: (f.bic, MODEL_FAMILIES[f.model].df,
                                    FAMILY_ORDER.index(f.model))).model


def _sign_test(x: Sequence[float], y: Sequence[float]) -> tuple[int, int, Optional[float]]:
    """Two-sided sign test on paired differences.

    Returns (#x > y, #x < y, p); p is None when undecidable."""
    gt = sum(1 for a, b in zip(x, y) if a > b)
    lt = sum(1 for a, b in zip(x, y) if a < b)
    if len(x) < 2 or gt + lt == 0:
        return gt, lt, None
    return gt, lt, float(binomtest(gt, gt + lt, 0.5).pvalue)


@dataclass
class RecoveryReport:
    """Ensemble of per-agent fits of one family to simulated agents.

    ``p_value_chosen`` and ``p_value_unchosen`` are two-sided sign tests of
    a+c against a-c and of a-u against a+u, so a significant reversal
    reads as significant too; ``sign_counts`` gives each test's direction
    as the number of agents on either side (ties in neither).
    ``frac_beta_at_cap`` is the fraction of fits whose beta sits at
    ``BETA_MAX``, where the fitted rate asymmetry is least identified.
    """

    n_agents: int
    generator: str
    beta_gen: float
    policy_mode: str
    fit_family: str
    mean_rates: dict
    frac_positivity: float
    frac_confirmation: float
    p_value_chosen: Optional[float]
    p_value_unchosen: Optional[float]
    fits: list
    sign_counts: dict
    frac_beta_at_cap: float

    def to_dict(self) -> dict:
        return {"n_agents": self.n_agents, "generator": self.generator,
                "beta_gen": self.beta_gen, "policy_mode": self.policy_mode,
                "fit_family": self.fit_family,
                "mean_rates": {k: float(v) for k, v in self.mean_rates.items()},
                "frac_positivity": float(self.frac_positivity),
                "frac_confirmation": float(self.frac_confirmation),
                "p_value_chosen": self.p_value_chosen,
                "p_value_unchosen": self.p_value_unchosen,
                "sign_counts": dict(self.sign_counts),
                "frac_beta_at_cap": float(self.frac_beta_at_cap),
                "fits": [f.to_dict() for f in self.fits]}


def recover_bias(n_agents: int, env: Environment, beta_gen: float, seed: int = 0,
                 generator: str = "bayes", generator_alpha: float = 0.3,
                 restarts: int = 20, policy_mode: str = "softmax",
                 fit_family: str = "full") -> RecoveryReport:
    """Simulate agents, fit each with an asymmetric-rate family, and test
    whether the fitted rates are systematically asymmetric.

    ``generator="bayes"`` runs Bayesian agents (softmax or greedy over the
    posterior means); ``generator="const_q"`` is the matched control, a
    constant-rate unbiased Q-learner under the same choice rule.  The
    control measures the asymmetry the refit itself produces for an
    unbiased constant-rate learner: on short sessions that is not zero
    (at T=24 the fitted beta mostly sits at its cap and the sign of the
    rate asymmetry follows where the fit lands on the beta-rate ridge), so
    a Bayesian ensemble's asymmetry is read against the control's, not
    against zero.  Sign-test p-values are omitted for ensembles too small
    to test.
    """
    if not env.counterfactual:
        raise ValueError("bias recovery is defined for counterfactual feedback")
    policy = Policy(beta=beta_gen, mode=policy_mode)
    if generator == "bayes":
        agent = BayesAgentSpec(policy)
    elif generator == "const_q":
        agent = QAgentSpec(LearningRateSet.constant(generator_alpha), policy)
    else:
        raise ValueError(f"unknown generator {generator!r}")

    fits = []
    rates = {name: [] for name in ("a_plus_c", "a_minus_c", "a_plus_u", "a_minus_u")}
    for i in range(n_agents):
        traj = run_trajectory(agent, env, RngStream(seed, i))
        session = session_from_trajectory(traj, f"agent{i:04d}")
        fit = fit_subject(fit_family, session, restarts=restarts, seed=seed,
                          stream_index=i)
        fits.append(fit)
        apc, amc, apu, amu = _rates_of(fit_family, fit.params)
        rates["a_plus_c"].append(apc)
        rates["a_minus_c"].append(amc)
        rates["a_plus_u"].append(apu)
        rates["a_minus_u"].append(amu)

    pos = [c > m for c, m in zip(rates["a_plus_c"], rates["a_minus_c"])]
    disc = [m > p for p, m in zip(rates["a_plus_u"], rates["a_minus_u"])]
    c_gt, c_lt, p_chosen = _sign_test(rates["a_plus_c"], rates["a_minus_c"])
    u_gt, u_lt, p_unchosen = _sign_test(rates["a_minus_u"], rates["a_plus_u"])
    return RecoveryReport(
        n_agents=n_agents, generator=generator, beta_gen=beta_gen,
        policy_mode=policy_mode, fit_family=fit_family,
        mean_rates={k: float(np.mean(v)) for k, v in rates.items()},
        frac_positivity=float(np.mean(pos)),
        frac_confirmation=float(np.mean([a and b for a, b in zip(pos, disc)])),
        p_value_chosen=p_chosen, p_value_unchosen=p_unchosen, fits=fits,
        sign_counts={"a_plus_c>a_minus_c": c_gt, "a_plus_c<a_minus_c": c_lt,
                     "a_minus_u>a_plus_u": u_gt, "a_minus_u<a_plus_u": u_lt},
        frac_beta_at_cap=float(np.mean([f.params["beta"] == BETA_MAX for f in fits])))


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
    if fit_q.model not in ("const", "conf", "full"):
        raise ValueError("second fit must be from a Q family")
    if fit_bayes.subject_id != session.subject_id or fit_q.subject_id != session.subject_id:
        raise ValueError("fits and session must describe the same subject")
    lists = _session_lists(session)
    _, _, v1_bayes, _ = _replay_bayes(*lists, beta=fit_bayes.params["beta"])
    apc, amc, apu, amu = _rates_of(fit_q.model, fit_q.params)
    _, _, v1_q, _ = _replay_q(*lists, apc=apc, amc=amc, apu=apu, amu=amu,
                              beta=fit_q.params["beta"])
    beta_b = fit_bayes.params["beta"]
    beta_q = fit_q.params["beta"]

    out = []
    for j, p3 in enumerate(p3_grid):
        gen = np.random.Generator(np.random.Philox(
            key=np.array([seed % 2**64, (1 << 32) + j], dtype=np.uint64)))
        r = gen.random((reps, n3)) < p3
        v3 = (r.sum(axis=1) + 1.0) / (n3 + 2.0)
        pb = expit(beta_b * (v3 - v1_bayes))
        out.append(NewArmPoint("bayes", float(p3), float(pb.mean()),
                               float(pb.std(ddof=1) / math.sqrt(reps))))
        v = np.full(reps, 0.5)
        for t in range(n3):
            # the new arm is always the chosen one; the other arm is a dummy
            v, _ = q_step(v, 0.5, 1, r[:, t], 0, apc, amc, 0.0, 0.0)
        pq = expit(beta_q * (v - v1_q))
        out.append(NewArmPoint(fit_q.model, float(p3), float(pq.mean()),
                               float(pq.std(ddof=1) / math.sqrt(reps))))
    return out
