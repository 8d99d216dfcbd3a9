"""Per-subject trial records and their CSV round-trip.

A session is what a fitting procedure sees: the chosen actions, the
rewards the subject observed, and — when the task reveals it — the
reward of the unchosen arm.  The CSV schema is one row per trial with
columns ``subject_id, trial, action, r_chosen, r_unchosen``; the last
column is left empty for subjects whose task hid it.  :func:`write_csv`
writes every CSV artifact of the package, sessions included.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .agents import AgentSpec, Trajectory, run_trajectory
from .env import Environment, RngStream

CSV_HEADER = ["subject_id", "trial", "action", "r_chosen", "r_unchosen"]


@dataclass
class SessionData:
    subject_id: str
    actions: np.ndarray
    r_chosen: np.ndarray
    r_unchosen: Optional[np.ndarray]
    counterfactual: bool

    @property
    def n_trials(self) -> int:
        return len(self.actions)

    def validate(self) -> None:
        n = self.n_trials
        if n == 0:
            raise ValueError(f"session {self.subject_id!r} has no trials")
        if not np.isin(self.actions, (1, 2)).all():
            raise ValueError(f"session {self.subject_id!r} has actions outside {{1, 2}}")
        if not np.isin(self.r_chosen, (0, 1)).all():
            raise ValueError(f"session {self.subject_id!r} has non-binary rewards")
        if self.counterfactual:
            if self.r_unchosen is None or len(self.r_unchosen) != n:
                raise ValueError(f"session {self.subject_id!r} lacks unchosen rewards "
                                 "despite counterfactual feedback")
            if not np.isin(self.r_unchosen, (0, 1)).all():
                raise ValueError(f"session {self.subject_id!r} has non-binary rewards")
        elif self.r_unchosen is not None:
            raise ValueError(f"session {self.subject_id!r} records unchosen rewards "
                             "although feedback hides them")


def session_from_trajectory(traj: Trajectory, subject_id: str) -> SessionData:
    ru = traj.reward_unchosen().astype(np.int8) if traj.counterfactual else None
    return SessionData(subject_id=subject_id,
                       actions=traj.actions.copy(),
                       r_chosen=traj.reward_chosen().astype(np.int8),
                       r_unchosen=ru,
                       counterfactual=traj.counterfactual)


def synthesize_sessions(agent: AgentSpec, env: Environment, n_subjects: int,
                        seed: int, prefix: str = "S") -> list[SessionData]:
    """Simulate one session per subject; subject i owns stream (seed, i)."""
    out = []
    for i in range(n_subjects):
        traj = run_trajectory(agent, env, RngStream(seed, i))
        out.append(session_from_trajectory(traj, f"{prefix}{i:04d}"))
    return out


def write_csv(path, header, rows, seed=None) -> int:
    """Write a header and any iterable of rows as CSV; returns how many rows.

    When ``seed`` is given it goes first, as a ``# seed=`` comment line.
    A float is written with 17 significant digits, so it reads back
    exactly; every other cell (ints, strings, blanks) is left to ``csv``.
    """
    n = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if seed is not None:
            fh.write(f"# seed={seed}\n")
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
            n += 1
    return n


def trial_cells(session: SessionData):
    """The cells ``trial, action, r_chosen, r_unchosen`` of each of a
    session's trials; ``r_unchosen`` is blank when feedback hides it."""
    n = session.n_trials
    ru = session.r_unchosen.tolist() if session.counterfactual else [""] * n
    return zip(range(n), session.actions.tolist(), session.r_chosen.tolist(), ru)


def _session_rows(sessions):
    for s in sessions:
        s.validate()
        for cells in trial_cells(s):
            yield (s.subject_id, *cells)


def write_sessions(path, sessions: list[SessionData], seed=None) -> int:
    """Write sessions to CSV; returns the number of data rows.

    When `seed` is given it is recorded as a leading comment line, which
    `read_sessions` skips.
    """
    return write_csv(path, CSV_HEADER, _session_rows(sessions), seed)


def _parses_as_int(cell: str) -> bool:
    try:
        int(cell)
    except ValueError:
        return False
    return True


def read_sessions(path) -> list[SessionData]:
    """Read sessions back, in file order; lines starting with '#' before
    the header are skipped.

    Enforces the header, integer trial, action and reward cells (the
    unchosen reward may be blank), at least one subject, contiguous trial
    indices from 0 within each subject, and an all-or-nothing
    unchosen-reward column per subject.  A bad row's error names the file
    and its physical line.
    """
    order: list[str] = []
    by_subject: dict[str, list[tuple[int, int, int, Optional[int]]]] = {}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        # comments come only before the header: after it, a '#' may begin a
        # subject ID, and a quoted cell may span lines
        comments, start = 0, fh.tell()
        while fh.readline().startswith("#"):
            comments, start = comments + 1, fh.tell()
        fh.seek(start)
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"{path}: expected header {CSV_HEADER}, got {header}")
        for row in reader:
            if not row:
                continue
            line = comments + reader.line_num
            if len(row) != 5:
                raise ValueError(f"{path}: line {line}: expected 5 columns, got {len(row)}")
            sid, trial, action, rc, ru = row
            if sid not in by_subject:
                by_subject[sid] = []
                order.append(sid)
            try:
                rec = (int(trial), int(action), int(rc), int(ru) if ru != "" else None)
            except ValueError:
                column, cell = next(
                    (c, v) for c, v in zip(CSV_HEADER[1:], row[1:])
                    if not _parses_as_int(v) and not (c == "r_unchosen" and v == ""))
                raise ValueError(f"{path}: line {line}: {column} must be an integer, "
                                 f"got {cell!r}") from None
            by_subject[sid].append(rec)
    if not order:
        raise ValueError(f"{path}: no subject's trials after the header")
    out = []
    for sid in order:
        recs = by_subject[sid]
        trials = [r[0] for r in recs]
        if trials != list(range(len(recs))):
            raise ValueError(f"subject {sid!r}: trial indices must run 0..{len(recs) - 1}")
        hidden = [r[3] is None for r in recs]
        if any(hidden) and not all(hidden):
            raise ValueError(f"subject {sid!r}: unchosen rewards must be all present "
                             "or all absent")
        counterfactual = not hidden[0]
        ru_arr = (np.array([r[3] for r in recs], dtype=np.int8)
                  if counterfactual else None)
        s = SessionData(subject_id=sid,
                        actions=np.array([r[1] for r in recs], dtype=np.int8),
                        r_chosen=np.array([r[2] for r in recs], dtype=np.int8),
                        r_unchosen=ru_arr,
                        counterfactual=counterfactual)
        s.validate()
        out.append(s)
    return out
