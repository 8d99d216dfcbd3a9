"""Correctness checks on the outputs of the benchmark's workloads.

Each check takes parsed outputs and returns a list of failure messages;
an empty list means the outputs passed.  The checks compare against the
independent computations in `reference` or against properties of the
method, never against a saved copy of earlier output.  `selftest.py`
shows that each one fails on a perturbed output.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

import reference as ref

# A reported NLL and its log-sigmoid replay may differ by the package's
# log(1 - pi) cancellation: about 1e-16 / (1 - pi) per trial, so up to
# 1e-6 on a trial where the model is nearly certain.  Measured on these
# workloads the gap stays below 1e-13; an NLL shifted by 1e-3 is caught.
NLL_TOL = 1e-5
# Slack of the nesting inequalities NLL(full) <= NLL(conf) <= NLL(const).
NEST_TOL = 1e-6
# Statistical checks are set so that a correct program fails one of them
# with probability below this, per seed, whatever the number of comparisons.
FAMILY_ALPHA = 1e-4


def z_threshold(n_comparisons: int, floor: float = 0.0) -> float:
    """Two-sided Bonferroni threshold for n comparisons at FAMILY_ALPHA."""
    z = NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2.0 * n_comparisons))
    return max(z, floor)


def _within_se(name, got, want, se, z, abs_tol=1e-12):
    """Failures where |got - want| > max(z * se, abs_tol)."""
    bad = np.abs(got - want) > np.maximum(z * se, abs_tol)
    return [f"{name} at t={t}: {got[t]!r} vs {want[t]!r} (se {se[t]:.3g}, z limit {z:.2f})"
            for t in np.flatnonzero(bad)[:5]]


# ---------------------------------------------------------------- fitting

def generating_params(kind: str, family: str):
    """The generator's parameters in `family`, or None when it lies outside."""
    if kind == "bayes":
        return {"beta": 10.0} if family == "bayes" else None
    if family == "bayes":
        return None
    a = 0.3
    rates = {"const": {"alpha": a},
             "conf": {"alpha_confirm": a, "alpha_disconfirm": a},
             "full": {"a_plus_c": a, "a_minus_c": a, "a_plus_u": a, "a_minus_u": a}}
    return {**rates[family], "beta": 5.0}


def check_fit_families(subjects) -> list[str]:
    """`subjects`: dicts with sid, kind ("bayes" or "const_q"), actions,
    r_chosen, r_unchosen and fits {family: {"params", "nll", "bic"}}."""
    out = []
    for s in subjects:
        sid, fits = s["sid"], s["fits"]
        if sorted(fits) != sorted(ref.FAMILY_DF):
            out.append(f"{sid}: fitted families {sorted(fits)}")
            continue
        T = len(s["actions"])
        for fam, f in fits.items():
            replay = ref.nll_replay(fam, f["params"], s["actions"], s["r_chosen"],
                                    s["r_unchosen"])
            if not abs(f["nll"] - replay) <= NLL_TOL:
                out.append(f"{sid}/{fam}: NLL {f['nll']!r} but the replay gives {replay!r}")
            want_bic = ref.FAMILY_DF[fam] * math.log(T) + 2.0 * f["nll"]
            if not abs(f["bic"] - want_bic) <= 1e-9 * max(1.0, abs(want_bic)):
                out.append(f"{sid}/{fam}: BIC {f['bic']!r}, df*ln T + 2*NLL = {want_bic!r}")
            gen = generating_params(s["kind"], fam)
            if gen is not None:
                at_gen = ref.nll_replay(fam, gen, s["actions"], s["r_chosen"],
                                        s["r_unchosen"])
                if not f["nll"] <= at_gen + NLL_TOL:
                    out.append(f"{sid}/{fam}: fitted NLL {f['nll']!r} is worse than "
                               f"{at_gen!r} at the generating parameters")
        for small, big in (("const", "conf"), ("conf", "full")):
            if not fits[big]["nll"] <= fits[small]["nll"] + NEST_TOL:
                out.append(f"{sid}: NLL({big}) {fits[big]['nll']!r} > "
                           f"NLL({small}) {fits[small]['nll']!r}")
    return out


RATE_NAMES = ("a_plus_c", "a_minus_c", "a_plus_u", "a_minus_u")


def check_recovery(rounds, horizon: int, p1: float, p2: float, alpha: float) -> list[str]:
    """`rounds`: dicts with the scenario seed and the parsed recovery.json of
    the Bayesian ensemble ("bayes") and of its control ("const_q")."""
    out = []
    chosen = unchosen = n_bayes = 0
    for rnd in rounds:
        for generator in ("bayes", "const_q"):
            rep = rnd[generator]
            fits = rep["fits"]
            tag = f"seed {rnd['seed']} {generator}"
            if len(fits) != rep["n_agents"]:
                out.append(f"{tag}: {len(fits)} fits for {rep['n_agents']} agents")
                continue
            for i, f in enumerate(fits):
                a, rc, ru = ref.greedy_session(generator, rnd["seed"], i, horizon,
                                               p1, p2, alpha)
                replay = ref.nll_replay("full", f["params"], a, rc, ru)
                if not abs(f["nll"] - replay) <= NLL_TOL:
                    out.append(f"{tag} agent {i}: NLL {f['nll']!r} but the "
                               f"regenerated session gives {replay!r}")
                if generator == "const_q":
                    point = {**{k: alpha for k in RATE_NAMES}, "beta": 50.0}
                    at_point = ref.nll_replay("full", point, a, rc, ru)
                    if not f["nll"] <= at_point + NLL_TOL:
                        out.append(f"{tag} agent {i}: fitted NLL {f['nll']!r} is worse "
                                   f"than {at_point!r} at the in-family point")
                else:
                    p = f["params"]
                    n_bayes += 1
                    chosen += p["a_plus_c"] > p["a_minus_c"]
                    unchosen += p["a_minus_u"] > p["a_plus_u"]
            for k in RATE_NAMES:
                mean = float(np.mean([f["params"][k] for f in fits]))
                if not abs(rep["mean_rates"][k] - mean) <= 1e-12:
                    out.append(f"{tag}: mean_rates[{k}] {rep['mean_rates'][k]!r} "
                               f"but the fits average {mean!r}")
    if n_bayes and not chosen * 2 > n_bayes:
        out.append(f"only {chosen}/{n_bayes} Bayesian agents have a+c > a-c")
    if n_bayes and not unchosen * 2 > n_bayes:
        out.append(f"only {unchosen}/{n_bayes} Bayesian agents have a-u > a+u")
    return out


# ------------------------------------------------------------ ensembles

def check_value_moments(em, p: float) -> list[str]:
    """`em`: mean1/se1, mean11/se11, mean12/se12 arrays over t = 0..T of a
    Bayesian ensemble with both arms at reward rate p."""
    m1, m11, m12 = ref.bayes_value_moments(p, len(em["mean1"]) - 1)
    z = z_threshold(3 * len(m1))
    return (_within_se("E[Q1]", em["mean1"], m1, em["se1"], z)
            + _within_se("E[Q1^2]", em["mean11"], m11, em["se11"], z)
            + _within_se("E[Q1Q2]", em["mean12"], m12, em["se12"], z))


def check_switch_rates(series_list) -> list[str]:
    """Analytic and empirical switch rates agree at every t, within 4
    combined standard errors or the Bonferroni limit, whichever is wider."""
    n = sum(len(s["analytic_mean"]) for s in series_list)
    z = z_threshold(n, floor=4.0)
    out = []
    for s in series_list:
        se = np.sqrt(s["analytic_se"] ** 2 + s["empirical_se"] ** 2)
        out += _within_se(f"switch rate {s['name']}", s["empirical_mean"],
                          s["analytic_mean"], se, z)
    return out


def check_confirmation_below(unbiased, confirm, t_from: int = 50) -> list[str]:
    bad = np.flatnonzero(confirm["analytic_mean"][t_from:]
                         >= unbiased["analytic_mean"][t_from:]) + t_from
    return [f"confirmation-biased switch rate not below the unbiased one at t={t}"
            for t in bad[:5]]


def check_steady_states(rows, p: float, unbiased_alpha: float) -> list[str]:
    """`rows`: (x, beta, p, delta_star) of sweep-delta; at x = 1 the rates
    are all `unbiased_alpha` and Delta* = p(1-p)alpha/(2-alpha)."""
    want = p * (1.0 - p) * unbiased_alpha / (2.0 - unbiased_alpha)
    out = [f"sweep-delta x=1, beta={b}: {d!r}, p(1-p)a/(2-a) = {want!r}"
           for x, b, _, d in rows if x == 1.0 and not abs(d - want) <= 1e-10]
    if not any(x == 1.0 for x, *_ in rows):
        out.append("sweep-delta has no unbiased cell")
    return out


def check_unbiased_propagation(rows, p: float, alpha: float) -> list[str]:
    """`rows`: (t, m1, m11, m12, delta) of propagate from a point mass at 1/2
    under equal rates alpha, where the closure is exact:
    m1 = p + (1/2 - p)(1-alpha)^t and Delta = Delta*(1 - (1-alpha)^(2t))."""
    star = p * (1.0 - p) * alpha / (2.0 - alpha)
    out = []
    for t, m1, _, _, delta in rows:
        k = (1.0 - alpha) ** t
        if not (abs(m1 - (p + (0.5 - p) * k)) <= 1e-12
                and abs(delta - star * (1.0 - k * k)) <= 1e-12):
            out.append(f"propagate t={t}: m1 {m1!r}, delta {delta!r}")
    return out[:5]


# ----------------------------------------------------------- simulation

def check_simulation(sim, spec) -> list[str]:
    """`sim`: (replicas, T) arrays action, r_chosen, r_unchosen (-1 where
    blank), q1, q2 parsed from trajectories.csv, and s_action, s_r_chosen,
    s_r_unchosen from sessions.csv.  `spec`: replicas, horizon, p1, p2,
    counterfactual, and rates (a Q-learner) or None (a Bayesian agent)."""
    name = spec["name"]
    R, T = spec["replicas"], spec["horizon"]
    out = []
    for key in ("action", "s_action"):
        if sim[key].shape != (R, T):
            return [f"{name}: {key} rows {sim[key].shape}, want {R} x {T}"]
    a, rc, ru = sim["action"], sim["r_chosen"], sim["r_unchosen"]
    cf = spec["counterfactual"]
    for key in ("r_unchosen", "s_r_unchosen"):
        blank = sim[key] < 0
        if cf and blank.any():
            out.append(f"{name}: {key} blank under counterfactual feedback")
        if not cf and not blank.all():
            out.append(f"{name}: {key} not blank under partial feedback")
    for key in ("action", "r_chosen", "r_unchosen"):
        if not np.array_equal(sim[key], sim["s_" + key]):
            out.append(f"{name}: sessions.csv {key} differs from trajectories.csv")
    chose1 = a == 1
    r1 = np.where(chose1, rc, ru)
    r2 = np.where(chose1, ru, rc)
    q1, q2 = sim["q1"], sim["q2"]
    if not (np.all(q1[:, 0] == 0.5) and np.all(q2[:, 0] == 0.5)):
        out.append(f"{name}: values do not start at 1/2")
    if spec["rates"] is not None:
        n1, n2 = ref.replay_q_values(a, r1, r2, q1, q2, spec["rates"], cf)
        got1, got2 = q1[:, 1:], q2[:, 1:]
    else:
        n1, n2 = ref.replay_count_values(a, r1, r2, cf)
        got1, got2 = q1, q2
    for arm, got, want in ((1, got1, n1), (2, got2, n2)):
        bad = np.argwhere(np.abs(got - want) > 1e-12)
        if len(bad):
            r, t = bad[0]
            out.append(f"{name}: replica {r} q{arm} row {t} is {got[r, t]!r}, "
                       f"the update gives {want[r, t]!r} ({len(bad)} rows differ)")
    for arm, p, r, seen in ((1, spec["p1"], r1, cf | chose1), (2, spec["p2"], r2, cf | ~chose1)):
        n = int(seen.sum())
        freq = float(r[seen].sum()) / n
        se = math.sqrt(p * (1.0 - p) / n)
        if not abs(freq - p) <= 4.0 * se:
            out.append(f"{name}: arm {arm} reward frequency {freq:.5f} over {n} "
                       f"draws, p = {p} (se {se:.2g})")
    return out
