"""Two-armed Bernoulli bandit environments and reproducible reward streams."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def is_integer(v) -> bool:
    """True for a Python or numpy integer, False for a bool or anything else."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


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
        # the simulators multiply by the flag, so an integer 2 would double updates
        if not isinstance(self.counterfactual, (bool, np.bool_)):
            raise ValueError(f"counterfactual must be a bool, got {self.counterfactual!r}")
        if not is_integer(self.horizon) or self.horizon < 1:
            raise ValueError(f"horizon must be a positive integer, got {self.horizon!r}")


def _lossless(name: str, v, kind):
    """``kind(v)`` where that loses nothing: the result equals ``v``, and a
    bool becomes nothing but a bool.  NaN passes on to the range checks."""
    try:
        out = kind(v)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or (isinstance(v, (bool, np.bool_)) and kind is not bool) \
            or (out != v and out == out):
        raise ValueError(f"{name} does not convert to {kind.__name__} without loss: {v!r}")
    return out


def make_environment(p1: float, p2: float, counterfactual: bool, horizon: int) -> Environment:
    """Validate and build an :class:`Environment`; a value is converted
    only where the conversion is exact, such as 3.0 to 3 or 1 to True."""
    return Environment(p1=_lossless("p1", p1, float), p2=_lossless("p2", p2, float),
                       counterfactual=_lossless("counterfactual", counterfactual, bool),
                       horizon=_lossless("horizon", horizon, int))


_KEY_SPACE = 1 << 64  # a Philox key word is 64 bits: seeds wrap, replica indices must fit


def _key_word(seed: int, first: int, count: int) -> int:
    """The seed's Philox key word, once the seed and the replicas
    ``first, ..., first + count - 1`` are checked: integers, not truncated."""
    if not (is_integer(seed) and is_integer(first)):
        raise ValueError(f"seed and replica_index must be integers, got {seed!r} and "
                         f"{first!r}")
    if first < 0:
        raise ValueError("replica_index must be nonnegative")
    if int(first) + count > _KEY_SPACE:  # a numpy uint64 sum would wrap
        raise ValueError("replica_index must be below 2**64")
    return int(seed) % _KEY_SPACE


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
        self.seed = _key_word(seed, replica_index, 1)
        self.replica_index = int(replica_index)
        self._gen = np.random.Generator(
            np.random.Philox(key=np.array([self.seed, self.replica_index], dtype=np.uint64))
        )

    def uniform_block(self, shape) -> np.ndarray:
        return self._gen.random(shape)


def replica_uniforms(seed: int, first: int, count: int, shape) -> np.ndarray:
    """Uniform blocks of the replicas ``first, ..., first + count - 1``, stacked.

    Equals ``np.stack([RngStream(seed, first + i).uniform_block(shape) for i
    in range(count)])`` bit for bit, shape ``(count, *shape)``.  Instead of
    constructing a generator per replica, one Philox is re-keyed to
    ``(seed, first + i)`` with a zero counter and an empty buffer, which is
    the state a fresh ``RngStream`` starts from, and draws in place.
    """
    u = np.empty((count, *shape))
    key = np.array([_key_word(seed, first, count), 0], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # zero counter, buffer_pos 4: nothing buffered
    state["state"]["key"] = key
    for i in range(count):
        key[1] = first + i
        bitgen.state = state
        gen.random(out=u[i])
    return u
