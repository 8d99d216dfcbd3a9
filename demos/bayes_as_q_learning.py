"""A Bayesian learner replayed as Q-learning with a decaying rate.

A beta-posterior agent that sees both arms' rewards updates its posterior
means exactly like an unbiased Q-learner whose learning rate decays as
1/(t+3) from initial values (1/2, 1/2).  This script runs both on shared
random streams and reports the largest coordinate-wise gap over a long
horizon, which should sit at floating-point noise.
"""

import numpy as np

from banditlab import (
    BayesAgentSpec,
    BayesSchedule,
    Environment,
    Policy,
    QAgentSpec,
    RngStream,
    run_trajectory,
)

HORIZON = 500
N_RUNS = 50
BETA = 8.0


def main():
    env = Environment(p1=0.6, p2=0.4, counterfactual=True, horizon=HORIZON)
    bayes = BayesAgentSpec(Policy(beta=BETA))
    sched = BayesSchedule()
    q = QAgentSpec(sched, Policy(beta=BETA))

    print("equivalent learning-rate schedule: alpha_t = 1/(t+3)")
    print("  t=0..4 :", [round(sched.at(t)[0], 4) for t in range(5)])
    print("  t=100  :", round(sched.at(100)[0], 6))
    print()

    worst = 0.0
    mismatched_actions = 0
    for i in range(N_RUNS):
        tb = run_trajectory(bayes, env, RngStream(7, i))
        tq = run_trajectory(q, env, RngStream(7, i))
        worst = max(worst,
                    float(np.max(np.abs(tb.values1 - tq.values1))),
                    float(np.max(np.abs(tb.values2 - tq.values2))))
        mismatched_actions += int(np.sum(tb.actions != tq.actions))

    print(f"{N_RUNS} paired runs over {HORIZON} trials at beta={BETA}")
    print(f"  largest |posterior mean - Q| : {worst:.3e}")
    print(f"  action sequences differing   : {mismatched_actions}")
    print()
    tb = run_trajectory(bayes, env, RngStream(7, 0))
    print("sample trajectory, arm-1 value every 100 trials:")
    for t in range(0, HORIZON + 1, 100):
        print(f"  t={t:4d}  q1={tb.values1[t]:.4f}")
    print()
    print("an unbiased learner in disguise: any constant-rate refit of this "
          "agent has to\ncompress the early fast learning and late slow "
          "learning into one alpha.")


if __name__ == "__main__":
    main()
