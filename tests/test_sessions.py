"""Session CSV round-trips, the CSV writer's format, and generation determinism."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from banditlab import (
    BayesAgentSpec,
    Environment,
    LearningRateSet,
    Policy,
    QAgentSpec,
    RngStream,
    SessionData,
    read_sessions,
    run_trajectory,
    session_from_trajectory,
    synthesize_sessions,
    write_sessions,
)
from banditlab.sessions import trial_cells, write_csv

ENV = Environment(p1=0.5, p2=0.5, counterfactual=True, horizon=24)
AGENT = BayesAgentSpec(Policy(beta=10.0))


def test_round_trip_preserves_everything(tmp_path):
    sessions = synthesize_sessions(AGENT, ENV, 5, seed=42)
    path = tmp_path / "sessions.csv"
    n_rows = write_sessions(path, sessions, seed=42)
    assert n_rows == 5 * 24
    assert path.read_text().startswith("# seed=42\n")
    back = read_sessions(path)
    assert [s.subject_id for s in back] == [s.subject_id for s in sessions]
    for a, b in zip(sessions, back):
        np.testing.assert_array_equal(a.actions, b.actions)
        np.testing.assert_array_equal(a.r_chosen, b.r_chosen)
        np.testing.assert_array_equal(a.r_unchosen, b.r_unchosen)
        assert b.counterfactual


def test_round_trip_without_unchosen_column(tmp_path):
    env = Environment(p1=0.6, p2=0.4, counterfactual=False, horizon=12)
    agent = QAgentSpec(LearningRateSet(0.3, 0.1, 0.0, 0.0), Policy(beta=5.0))
    sessions = synthesize_sessions(agent, env, 3, seed=7)
    path = tmp_path / "s.csv"
    write_sessions(path, sessions)
    back = read_sessions(path)
    for s in back:
        assert not s.counterfactual
        assert s.r_unchosen is None


# subject IDs built from the characters a CSV must quote or a line-based
# reader can mangle, plus any other encodable text
_ID_TEXT = st.text(st.one_of(st.sampled_from(',"#\r\n é漢'),
                             st.characters(blacklist_categories=("Cs",),
                                           blacklist_characters="\x00")), max_size=8)


@st.composite
def _session_files(draw):
    sessions = []
    for sid in draw(st.lists(_ID_TEXT, min_size=1, max_size=4, unique=True)):
        n = draw(st.integers(1, 30))
        bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        counterfactual = draw(st.booleans())
        sessions.append(SessionData(
            sid, np.array(draw(bits), dtype=np.int8) + 1, np.array(draw(bits), dtype=np.int8),
            np.array(draw(bits), dtype=np.int8) if counterfactual else None, counterfactual))
    return sessions, draw(st.none() | st.integers(0, 2**64 - 1))


@settings(max_examples=200, deadline=None)
@given(_session_files())
@example(([SessionData("#7", np.array([1, 2], dtype=np.int8), np.array([1, 0], dtype=np.int8),
                       None, False),
           SessionData("a\rb", np.array([2], dtype=np.int8), np.array([0], dtype=np.int8),
                       np.array([1], dtype=np.int8), True)], 3))
def test_sessions_round_trip_through_csv(case):
    sessions, seed = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sessions.csv"
        assert write_sessions(path, sessions, seed=seed) == sum(s.n_trials for s in sessions)
        back = read_sessions(path)
    assert [s.subject_id for s in back] == [s.subject_id for s in sessions]
    for a, b in zip(sessions, back):
        assert b.counterfactual == a.counterfactual
        np.testing.assert_array_equal(b.actions, a.actions)
        np.testing.assert_array_equal(b.r_chosen, a.r_chosen)
        if a.counterfactual:
            np.testing.assert_array_equal(b.r_unchosen, a.r_unchosen)
        else:
            assert b.r_unchosen is None


def test_write_csv_pins_its_format(tmp_path):
    path = tmp_path / "t.csv"
    rows = [(0.1, np.int64(7), 10**20), ("", "x,y", 2)]
    assert write_csv(path, ["a", "b", "c"], rows, seed=3) == 2
    assert path.read_bytes() == (b"# seed=3\na,b,c\r\n"
                                 b"0.10000000000000001,7,100000000000000000000\r\n"
                                 b',"x,y",2\r\n')
    write_csv(path, ["a"], [])
    assert path.read_bytes() == b"a\r\n"


@pytest.mark.parametrize("counterfactual", [True, False])
def test_trial_cells_blank_hidden_rewards(counterfactual):
    env = Environment(p1=0.6, p2=0.4, counterfactual=counterfactual, horizon=30)
    agent = QAgentSpec(LearningRateSet(0.3, 0.1, 0.0, 0.0), Policy(beta=3.0))
    traj = run_trajectory(agent, env, RngStream(11, 0))
    cells = list(trial_cells(session_from_trajectory(traj, "X")))
    assert len(cells) == 30 and [c[0] for c in cells] == list(range(30))
    assert [c[1] for c in cells] == traj.actions.tolist()
    ru = [c[3] for c in cells]
    assert ru == (traj.reward_unchosen().tolist() if counterfactual else [""] * 30)


def test_synthesis_is_deterministic_per_subject():
    a = synthesize_sessions(AGENT, ENV, 4, seed=9)
    b = synthesize_sessions(AGENT, ENV, 4, seed=9)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.actions, y.actions)
    # subject i is exactly the scalar run on stream (seed, i)
    traj = run_trajectory(AGENT, ENV, RngStream(9, 2))
    np.testing.assert_array_equal(a[2].actions, traj.actions)
    np.testing.assert_array_equal(a[2].r_chosen, traj.reward_chosen())


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("subject,trial,action,r_chosen,r_unchosen\nS0,0,1,1,0\n")
    with pytest.raises(ValueError, match="header"):
        read_sessions(path)


def test_non_contiguous_trials_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("subject_id,trial,action,r_chosen,r_unchosen\n"
                    "S0,0,1,1,0\nS0,2,2,0,1\n")
    with pytest.raises(ValueError, match="trial indices"):
        read_sessions(path)


def test_mixed_hidden_rewards_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("subject_id,trial,action,r_chosen,r_unchosen\n"
                    "S0,0,1,1,0\nS0,1,2,0,\n")
    with pytest.raises(ValueError, match="all present"):
        read_sessions(path)


def test_session_validation_catches_bad_values():
    with pytest.raises(ValueError):
        SessionData("S0", np.array([1, 3], dtype=np.int8),
                    np.array([1, 0], dtype=np.int8),
                    np.array([0, 1], dtype=np.int8), True).validate()
    with pytest.raises(ValueError):
        SessionData("S0", np.array([1, 2], dtype=np.int8),
                    np.array([1, 2], dtype=np.int8),
                    np.array([0, 1], dtype=np.int8), True).validate()


def test_trajectory_to_session_keeps_reward_alignment():
    traj = run_trajectory(AGENT, ENV, RngStream(3, 0))
    s = session_from_trajectory(traj, "X")
    for t in range(24):
        if s.actions[t] == 1:
            assert s.r_chosen[t] == traj.rewards1[t]
            assert s.r_unchosen[t] == traj.rewards2[t]
        else:
            assert s.r_chosen[t] == traj.rewards2[t]
            assert s.r_unchosen[t] == traj.rewards1[t]
