"""Environment and RNG-stream behavior."""

import numpy as np
import pytest

from banditlab import Environment, RngStream, make_environment
from banditlab.env import replica_uniforms


def test_environment_validation():
    with pytest.raises(ValueError):
        make_environment(1.2, 0.5, counterfactual=True, horizon=10)
    with pytest.raises(ValueError):
        make_environment(0.5, -0.1, counterfactual=True, horizon=10)
    with pytest.raises(ValueError):
        make_environment(0.5, 0.5, counterfactual=True, horizon=0)


@pytest.mark.parametrize("horizon", [3.0, True, 2.5, np.float64(4.0)])
def test_horizon_must_be_an_integer(horizon):
    with pytest.raises(ValueError, match="horizon"):
        Environment(0.5, 0.5, True, horizon)
    assert Environment(0.5, 0.5, True, np.int64(3)).horizon == 3
    assert make_environment(0.5, 0.5, True, 3.0).horizon == 3


@pytest.mark.parametrize("flag", [2, 1, 0, 1.0, "yes", None, np.int64(1)])
def test_counterfactual_must_be_a_bool(flag):
    with pytest.raises(ValueError, match="counterfactual"):
        Environment(0.6, 0.4, flag, 5)
    assert Environment(0.6, 0.4, np.bool_(True), 5).counterfactual
    assert not Environment(0.6, 0.4, False, 5).counterfactual
    assert make_environment(0.6, 0.4, 1, 5).counterfactual is True


@pytest.mark.parametrize("args, field", [
    ((0.6, 0.4, "no", 5), "counterfactual"), ((0.6, 0.4, 2, 5), "counterfactual"),
    ((0.6, 0.4, True, 5.7), "horizon"), ((0.6, 0.4, True, True), "horizon"),
    ((0.6, 0.4, True, "5"), "horizon"), ((0.6, 0.4, True, float("inf")), "horizon"),
    (("0.6", 0.4, True, 5), "p1"), ((0.6, True, True, 5), "p2"),
])
def test_make_environment_refuses_lossy_conversions(args, field):
    # bool("no") is True, int(5.7) is 5 and int(True) is 1: each would get
    # round a check that Environment makes
    with pytest.raises(ValueError, match=field):
        make_environment(*args)


def test_stream_determinism():
    draws = RngStream(123, 7).uniform_block((5,))
    assert len(set(draws)) == 5
    np.testing.assert_array_equal(RngStream(123, 7).uniform_block((5,)), draws)


def test_block_draws_equal_single_draws():
    s1 = RngStream(99, 3)
    singles = np.concatenate([s1.uniform_block((1,)) for _ in range(12)])
    block = RngStream(99, 3).uniform_block((12,))
    np.testing.assert_array_equal(singles, block)
    shaped = RngStream(99, 3).uniform_block((4, 3))
    np.testing.assert_array_equal(singles.reshape(4, 3), shaped)


def test_replica_streams_are_distinct():
    u0 = RngStream(5, 0).uniform_block((8,))
    u1 = RngStream(5, 1).uniform_block((8,))
    assert not np.array_equal(u0, u1)
    np.testing.assert_array_equal(u0, RngStream(5).uniform_block((8,)))


@pytest.mark.parametrize("shape", [(1, 3), (101, 3)])
@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("first", [0, 37, 2**32])
@pytest.mark.parametrize("seed", [0, -1, 2**63, 2**64 + 5])
def test_replica_uniforms_equal_stacked_streams(seed, first, count, shape):
    got = replica_uniforms(seed, first, count, shape)
    want = np.stack([RngStream(seed, first + i).uniform_block(shape) for i in range(count)])
    assert got.shape == want.shape == (count, *shape)
    assert (got == want).all()


def test_replica_indices_must_fit_the_key():
    with pytest.raises(ValueError, match="nonnegative"):
        RngStream(0, -1)
    with pytest.raises(ValueError, match="below 2\\*\\*64"):
        RngStream(0, 2**64)
    with pytest.raises(ValueError, match="nonnegative"):
        replica_uniforms(0, -1, 2, (1, 3))
    with pytest.raises(ValueError, match="below 2\\*\\*64"):
        replica_uniforms(0, 2**64 - 2, 3, (1, 3))
    last = replica_uniforms(0, 2**64 - 2, 2, (1, 3))[1]
    assert (last == RngStream(0, 2**64 - 1).uniform_block((1, 3))).all()


@pytest.mark.parametrize("bad", [1.5, 2.9, True, "3"])
def test_seeds_and_replica_indices_are_not_truncated(bad):
    # int() would replay another stream: RngStream(1.5, 0) as RngStream(1, 0)
    for make in (lambda: RngStream(bad, 0), lambda: RngStream(1, bad),
                 lambda: replica_uniforms(bad, 0, 1, (1, 3)),
                 lambda: replica_uniforms(1, bad, 1, (1, 3))):
        with pytest.raises(ValueError, match="must be integers"):
            make()
    # numpy integers are integers, and negative seeds wrap mod 2**64
    draws = RngStream(np.int64(-1), np.uint64(2)).uniform_block((4,))
    assert (draws == RngStream(2**64 - 1, 2).uniform_block((4,))).all()
    assert (replica_uniforms(np.int32(-1), np.int64(2), 1, (4,))[0] == draws).all()
    with pytest.raises(ValueError, match="below 2\\*\\*64"):
        replica_uniforms(0, np.uint64(2**64 - 2), 3, (1, 3))
