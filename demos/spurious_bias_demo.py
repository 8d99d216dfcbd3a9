"""Fitting a biased model to an unbiased learner finds bias.

Agents track two 50% arms with exact Bayesian posterior means -- no
asymmetry anywhere in how they learn.  Refitting their 24-trial sessions
with a constant-rate Q-model with four free rates still recovers the
classic confirmation pattern: faster learning from confirming outcomes
(rewarded choices, unrewarded forgone options).

The artifact needs decisive agents.  With counterfactual feedback an
action does not change what is observed, so the Bayes-optimal choice
rule is greedy on the posterior means: it commits to an arm once its
posterior leads, and a constant-rate model can only explain that late
stability by bending its rates.  A softmax agent at p1 = p2 acts on
posterior gaps that shrink like 1/sqrt(t) and switches more late in the
session than a constant-rate learner does, so the signature is absent.

Short refits are not null even for an unbiased learner: the fitted
inverse temperature mostly sits at its cap, and the sign of the fitted
rate asymmetry follows where the fit lands.  The control is therefore
a constant-rate Q-learner under the same greedy rule, and the evidence
is the gap between the two groups, not either group's distance from
zero.  (A softmax control is no fairer: at beta = 5 its 500-agent
refit tilts the other way, 195 agents with a_plus_c > a_minus_c against
304 with a_plus_c < a_minus_c.)
"""

from scipy.stats import mannwhitneyu

from banditlab import (BayesAgentSpec, Environment, LearningRateSet, Policy, QAgentSpec,
                       recover_bias)

N_AGENTS = 40
HORIZON = 24
SEED = 0


def describe(report, label):
    mr = report.mean_rates
    print(f"{label}")
    print(f"  mean fitted rates: chosen   +{mr['a_plus_c']:.3f} / -{mr['a_minus_c']:.3f}"
          f"   unchosen +{mr['a_plus_u']:.3f} / -{mr['a_minus_u']:.3f}")
    print(f"  agents with positivity pattern   : {report.frac_positivity:.0%}")
    print(f"  agents with confirmation pattern : {report.frac_confirmation:.0%}")
    if report.p_value_chosen is not None:
        print(f"  sign tests: chosen p={report.p_value_chosen:.2g}, "
              f"unchosen p={report.p_value_unchosen:.2g}")
    print()


def main():
    env = Environment(p1=0.5, p2=0.5, counterfactual=True, horizon=HORIZON)

    print(f"{N_AGENTS} agents per group, p=(0.5, 0.5), T={HORIZON}, "
          "full 5-parameter refit\n")
    greedy = Policy(beta=10.0, mode="greedy")
    rep = recover_bias(BayesAgentSpec(greedy), env, N_AGENTS, seed=SEED, restarts=12)
    describe(rep, "unbiased Bayesian agents (greedy)")

    control = QAgentSpec(LearningRateSet.constant(0.3), greedy)
    ctl = recover_bias(control, env, N_AGENTS, seed=SEED, restarts=12)
    describe(ctl, "control: constant-rate Q-agents (greedy, alpha=0.3)")

    def gaps(report):
        return [f.params["a_plus_c"] - f.params["a_minus_c"] for f in report.fits]

    gap = rep.mean_rates["a_plus_c"] - rep.mean_rates["a_minus_c"]
    gap_c = ctl.mean_rates["a_plus_c"] - ctl.mean_rates["a_minus_c"]
    p = mannwhitneyu(gaps(rep), gaps(ctl), alternative="greater").pvalue
    print(f"chosen-arm rate asymmetry: {gap:+.3f} for Bayesian agents vs "
          f"{gap_c:+.3f} for the control\n(Bayesian per-agent gaps larger, "
          f"one-sided Mann-Whitney p={p:.2g})")
    print()
    print("nothing in the generating agents prefers good news; the asymmetry "
          "lives in the\nmismatch between decaying-rate learning and the "
          "constant-rate model, amplified\nwherever choices are decisive "
          "enough to pin the fit down.")


if __name__ == "__main__":
    main()
