"""Action switching as a fingerprint of the learning rule.

The one-step switch probability averaged over an ensemble, <K>_t, can be
computed analytically from simulated value states and separates learning
rules that look alike in average reward.  Three signatures here:
confirmation bias suppresses switching; a sudden learning-rate drop
produces a sudden drop in switching followed by a slow climb; and the
analytic estimator tracks realized switches within error bars.
"""

import numpy as np

from banditlab import (
    Environment,
    LearningRateSet,
    Policy,
    QAgentSpec,
    StepSchedule,
    ensemble_switch_rate,
    x_curve_rates,
)

HORIZON = 100
REPLICAS = 10_000
BETA = 5.0
SEED = 7


def sparkline(values, lo=None, hi=None):
    blocks = " .:-=+*#%@"
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    span = (hi - lo) or 1.0
    idx = [int((v - lo) / span * (len(blocks) - 1)) for v in values]
    return "".join(blocks[max(0, min(i, len(blocks) - 1))] for i in idx)


def main():
    env = Environment(p1=0.5, p2=0.5, counterfactual=True, horizon=HORIZON)

    runs = {
        "unbiased x=1.0": QAgentSpec(x_curve_rates(1.0), Policy(beta=BETA)),
        "confirmatory x=1.5": QAgentSpec(x_curve_rates(1.5), Policy(beta=BETA)),
        "rate drop 0.1->0.01 at t=25": QAgentSpec(StepSchedule(0.1, 0.01, 25),
                                                  Policy(beta=BETA)),
    }
    series = {}
    for name, agent in runs.items():
        s = ensemble_switch_rate(agent, env, REPLICAS, seed=SEED)
        series[name] = s
        resid = np.abs(s.analytic_mean - s.empirical_mean)
        se = np.sqrt(s.analytic_se**2 + s.empirical_se**2)
        print(f"{name}")
        print(f"  <K> every 10th trial: {sparkline(s.analytic_mean[::10], 0.20, 0.50)}"
              f"   (range {s.analytic_mean.min():.3f}..{s.analytic_mean.max():.3f})")
        print(f"  analytic vs realized: max |diff|/SE = {np.max(resid / se):.2f}")
    print()

    ub = series["unbiased x=1.0"].analytic_mean
    cb = series["confirmatory x=1.5"].analytic_mean
    print(f"late-trial switch rate (t=50..{HORIZON - 1} mean): "
          f"unbiased {ub[50:].mean():.3f}, confirmatory {cb[50:].mean():.3f}")

    st = series["rate drop 0.1->0.01 at t=25"].analytic_mean
    print(f"around the cut: K[24]={st[24]:.4f}  K[25]={st[25]:.4f}  "
          f"K[{HORIZON - 1}]={st[-1]:.4f}")
    print()
    print("a biased learner polarizes its values and freezes onto one arm; "
          "a frozen learning\nrate lets the values drift back together and "
          "switching creeps up again.")


if __name__ == "__main__":
    main()
