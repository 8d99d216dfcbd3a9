"""Two-armed Bernoulli bandit environments and reproducible reward streams."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Environment:
    """A stationary two-armed Bernoulli bandit task.

    Parameters
    ----------
    p1, p2 : float
        Reward probabilities of arms 1 and 2, each in [0, 1].
    counterfactual : bool
        If True, the reward of the unchosen arm is revealed each trial.
    horizon : int
        Number of trials T (>= 1).
    """

    p1: float
    p2: float
    counterfactual: bool
    horizon: int

    def __post_init__(self):
        if not (0.0 <= self.p1 <= 1.0):
            raise ValueError(f"p1 must be in [0, 1], got {self.p1}")
        if not (0.0 <= self.p2 <= 1.0):
            raise ValueError(f"p2 must be in [0, 1], got {self.p2}")
        if int(self.horizon) != self.horizon or self.horizon < 1:
            raise ValueError(f"horizon must be a positive integer, got {self.horizon}")


def make_environment(p1: float, p2: float, counterfactual: bool, horizon: int) -> Environment:
    """Validate and build an :class:`Environment`."""
    return Environment(p1=float(p1), p2=float(p2), counterfactual=bool(counterfactual),
                       horizon=int(horizon))


class RngStream:
    """Counter-based random stream owned by one Monte-Carlo replica.

    Streams are keyed by ``(seed, replica_index)``: distinct pairs give
    statistically independent Philox streams, identical pairs replay the
    exact same draw sequence.  Each trial of a simulation consumes three
    uniforms in a fixed order (action draw, arm-1 reward, arm-2 reward),
    which keeps single-trajectory runs bit-identical to the vectorized
    ensemble engine.
    """

    def __init__(self, seed: int, replica_index: int = 0):
        if replica_index < 0:
            raise ValueError("replica_index must be nonnegative")
        self.seed = int(seed) % (1 << 64)
        self.replica_index = int(replica_index)
        self._gen = np.random.Generator(
            np.random.Philox(key=np.array([self.seed, self.replica_index], dtype=np.uint64))
        )

    def uniform_block(self, shape) -> np.ndarray:
        return self._gen.random(shape)

