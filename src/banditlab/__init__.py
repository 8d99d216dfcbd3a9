"""Two-armed Bernoulli bandit learning: simulation, moment dynamics, fitting.

The package has three layers.  `env`/`agents`/`mc` simulate individual
learners (asymmetric Q-learners, Bayesian agents on beta-posterior
counts, softmax or greedy choice, factual or counterfactual feedback)
and vectorized ensembles of them, on counter-based random streams.
`moments`/`switching` propagate the ensemble statistics of the values
analytically — exact recursions for the first two moments, a
moment-closure approximation of the policy-coupled terms, steady states
and choice-switching rates.  `sessions`/`fitting` turn simulated or
recorded choice data into maximum-likelihood fits of candidate learning
models, BIC comparisons, bias-recovery experiments and new-arm transfer
predictions.  `cli` wraps the common scenarios behind a config-driven
command line.
"""

from .env import Environment, RngStream, make_environment
from .agents import (
    BayesAgentSpec,
    BayesSchedule,
    LearningRateSet,
    Policy,
    QAgentSpec,
    StepSchedule,
    Trajectory,
    count_step,
    count_values,
    effective_rate,
    q_step,
    run_trajectory,
)
from .moments import (
    BiasSensitivity,
    ConvergenceError,
    MomentState,
    bias_sensitivity,
    confirmation_index,
    propagate_moments,
    steady_state_delta,
    step_moments,
    x_curve_rates,
)
from .mc import EnsembleMoments, ensemble_value_moments, iter_value_chunks
from .switching import SwitchRateSeries, ensemble_switch_rate
from .sessions import (
    SessionData,
    read_sessions,
    session_from_trajectory,
    synthesize_sessions,
    write_sessions,
)
from .fitting import (
    FitResult,
    MODEL_FAMILIES,
    NewArmPoint,
    RecoveryReport,
    best_model,
    bic,
    fit_families,
    fit_subject,
    new_arm_curve,
    nll,
    recover_bias,
)

__version__ = "0.1.0"
