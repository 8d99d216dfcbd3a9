"""Session CSV round-trips, the CSV writer's format, and generation determinism."""

import csv
import io
import struct
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
from banditlab.sessions import _column, _format_block, row_blocks, trial_columns, write_csv

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
    assert write_csv(path, ["a", "b", "c"], row_blocks(rows), seed=3) == 2
    assert path.read_bytes() == (b"# seed=3\na,b,c\r\n"
                                 b"0.10000000000000001,7,100000000000000000000\r\n"
                                 b',"x,y",2\r\n')
    write_csv(path, ["a"], [])
    assert path.read_bytes() == b"a\r\n"


def _per_cell_bytes(header, rows) -> bytes:
    """The writer's former rule: each float cell as f"{v:.17g}", the rest to csv."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode("utf-8")


AWKWARD_FLOATS = [0.0, -0.0, 5e-324, 1e-300, 0.1, 1 / 3, np.float64(2.5)]
AWKWARD_INTS = [10**20, np.int8(-3), np.uint8(200), np.int64(-7), 0, -(10**30), 2**63]
AWKWARD_TEXT = ["", "a,b", 'say "hi"', "cr\rx", "lf\nx", "\r\n", "plain é"]


def test_write_csv_matches_the_per_cell_rule_on_awkward_values(tmp_path):
    header = ["f", "i", "s"]
    rows = list(zip(AWKWARD_FLOATS, AWKWARD_INTS, AWKWARD_TEXT))
    want = _per_cell_bytes(header, rows)
    path = tmp_path / "t.csv"
    # lists, and the same columns as arrays where numpy holds them
    for columns in ([AWKWARD_FLOATS, AWKWARD_INTS, AWKWARD_TEXT],
                    [np.array(AWKWARD_FLOATS), AWKWARD_INTS, np.array(AWKWARD_TEXT)]):
        assert write_csv(path, header, [columns]) == len(rows)
        assert path.read_bytes() == want
    # split into blocks anywhere, and one block per row
    cols = list(zip(*rows))
    assert write_csv(path, header, [[c[:3] for c in cols], [c[3:] for c in cols]]) == 7
    assert path.read_bytes() == want
    assert write_csv(path, header, row_blocks(rows)) == 7
    assert path.read_bytes() == want
    for dtype in (np.int8, np.uint8, np.int64):
        ints = np.array([0, 1, 100], dtype=dtype)
        write_csv(path, ["i"], [[ints]])
        assert path.read_bytes() == _per_cell_bytes(["i"], [(v,) for v in ints])
    # csv writes a lone blank cell as ""
    write_csv(path, ["s"], [[["", "x", ""]]])
    assert path.read_bytes() == _per_cell_bytes(["s"], [("",), ("x",), ("",)])


def _float_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# signed zeros, NaNs with other signs and payloads, infinities and subnormals
SPECIAL_FLOATS = [0.0, -0.0, float("nan"), _float_bits(0xFFF8000000000000),
                  _float_bits(0x7FF8000000000001), float("inf"), float("-inf"),
                  5e-324, -5e-324, 1.5e-310, 0.1, 1 / 3]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_format_block_matches_per_cell_floats_with_repeats(data):
    n = data.draw(st.integers(1, 300), label="rows")
    # columns drawn from a few values, so that they repeat and may be joined
    pool = np.array(data.draw(st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(),
                                       min_size=1, max_size=6), label="pool"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    floats = [pool[rng.integers(len(pool), size=n)].tolist()
              for _ in range(data.draw(st.integers(1, 3), label="float columns"))]
    # and one column from a pool as large as the block, of such values and
    # random bit patterns: mostly distinct, so that it is formatted in place
    head = data.draw(st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(), max_size=6),
                     label="wide pool")
    wide = np.concatenate([head, rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)])
    spread = wide[rng.integers(n, size=n)].tolist()
    distinct = len(np.unique(np.array(spread).view(np.uint64)))
    assert (_column(spread, False)[2] is None) == (2 * distinct > n)
    floats.insert(data.draw(st.integers(0, len(floats)), label="its place"), spread)
    ints = rng.integers(-3, 4, size=n).tolist()
    # the int and blank columns may be joined with a float column into one lookup
    want = "".join(",".join(["%d" % ints[r], *("%.17g" % c[r] for c in floats), ""]) + "\r\n"
                   for r in range(n))
    blank = [""] * n
    assert _format_block([np.array(ints, dtype=np.int8), *floats, blank]) == want
    assert _format_block([ints, *(np.array(c) for c in floats), blank]) == want


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64, np.uint64])
def test_format_block_codes_integers_at_their_type_limits(dtype):
    info = np.iinfo(dtype)
    # a span of 200 overflows int8, and 300 rows make the column coded
    for values in ([info.min, info.min + 200, info.min + 1], [info.max, info.max - 3, info.max]):
        col = np.array(values * 100, dtype=dtype)
        assert _format_block([col]) == "".join("%d\r\n" % v for v in col.tolist())


@pytest.mark.parametrize("column", [[1.0, ""], [1, 2.0], [True, False], [None],
                                    np.array([True]), np.array([1.0], dtype=object)])
def test_write_csv_refuses_a_column_of_mixed_or_unknown_cells(tmp_path, column):
    with pytest.raises(TypeError):
        write_csv(tmp_path / "t.csv", ["c"], [[column]])


@pytest.mark.parametrize("counterfactual", [True, False])
def test_trial_cells_blank_hidden_rewards(counterfactual):
    env = Environment(p1=0.6, p2=0.4, counterfactual=counterfactual, horizon=30)
    agent = QAgentSpec(LearningRateSet(0.3, 0.1, 0.0, 0.0), Policy(beta=3.0))
    traj = run_trajectory(agent, env, RngStream(11, 0))
    trial, action, _, ru = trial_columns([session_from_trajectory(traj, "X")])
    assert trial.tolist() == list(range(30))
    assert action.tolist() == traj.actions.tolist()
    assert list(ru) == (traj.reward_unchosen().tolist() if counterfactual else [""] * 30)


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


def test_session_validation_catches_bad_values(tmp_path):
    with pytest.raises(ValueError):
        SessionData("S0", np.array([1, 3], dtype=np.int8),
                    np.array([1, 0], dtype=np.int8),
                    np.array([0, 1], dtype=np.int8), True).validate()
    with pytest.raises(ValueError):
        SessionData("S0", np.array([1, 2], dtype=np.int8),
                    np.array([1, 2], dtype=np.int8),
                    np.array([0, 1], dtype=np.int8), True).validate()
    # a missing chosen reward once vanished from the CSV without an error
    short = SessionData("S0", np.array([1, 2], dtype=np.int8), np.array([1], dtype=np.int8),
                        None, False)
    with pytest.raises(ValueError, match="2 actions but 1 chosen rewards"):
        write_sessions(tmp_path / "s.csv", [short])


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
