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
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import mc
# run_trajectory is the scalar reference the chunk engine reproduces; it stays
# importable here because bench/tracing.py wraps it under this module's name
from .agents import AgentSpec, Trajectory, run_trajectory  # noqa: F401
from .env import Environment

CSV_HEADER = ["subject_id", "trial", "action", "r_chosen", "r_unchosen"]
# rows formatted at once: whole sessions, up to this many rows
BLOCK_ROWS = 6400
# trials simulated at once, at most: 512 subjects up to T = 128
_CHUNK_ROWS = 1 << 16
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _all_in(cells, pair) -> bool:
    # two comparisons cost a tenth of np.isin on a session's short arrays
    a = np.asarray(cells)
    return bool(((a == pair[0]) | (a == pair[1])).all())


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

    def _check_shape(self) -> None:
        """Raise unless the session has trials, a chosen reward per trial,
        and unchosen rewards exactly when its feedback reveals them."""
        n = self.n_trials
        if n == 0:
            raise ValueError(f"session {self.subject_id!r} has no trials")
        if len(self.r_chosen) != n:
            raise ValueError(f"session {self.subject_id!r} has {n} actions but "
                             f"{len(self.r_chosen)} chosen rewards")
        if self.counterfactual:
            if self.r_unchosen is None or len(self.r_unchosen) != n:
                raise ValueError(f"session {self.subject_id!r} lacks unchosen rewards "
                                 "despite counterfactual feedback")
        elif self.r_unchosen is not None:
            raise ValueError(f"session {self.subject_id!r} records unchosen rewards "
                             "although feedback hides them")

    def validate(self) -> None:
        self._check_shape()
        if not _all_in(self.actions, (1, 2)):
            raise ValueError(f"session {self.subject_id!r} has actions outside {{1, 2}}")
        if not (_all_in(self.r_chosen, (0, 1))
                and (not self.counterfactual or _all_in(self.r_unchosen, (0, 1)))):
            raise ValueError(f"session {self.subject_id!r} has non-binary rewards")


def session_from_trajectory(traj: Trajectory, subject_id: str) -> SessionData:
    ru = traj.reward_unchosen().astype(np.int8) if traj.counterfactual else None
    return SessionData(subject_id=subject_id,
                       actions=traj.actions.copy(),
                       r_chosen=traj.reward_chosen().astype(np.int8),
                       r_unchosen=ru,
                       counterfactual=traj.counterfactual)


def _replicas(traj: Trajectory, lo: int, hi: int) -> Trajectory:
    """Replicas ``lo, ..., hi - 1`` of a chunk, as views."""
    return Trajectory(traj.values1[lo:hi], traj.values2[lo:hi], traj.actions[lo:hi],
                      traj.rewards1[lo:hi], traj.rewards2[lo:hi], traj.counterfactual)


def iter_session_blocks(agent: AgentSpec, env: Environment, n_subjects: int,
                        seed: int, prefix: str = "S"):
    """Simulate subjects through the chunk engine and yield them a block of
    whole sessions at a time: each block's first subject index, its
    :class:`Trajectory` (with a leading subject axis) and its sessions.

    Subject i owns stream (seed, i) and is named ``f"{prefix}{i:04d}"``; its
    session equals ``session_from_trajectory(run_trajectory(agent, env,
    RngStream(seed, i)), ...)``, since the chunks reproduce the scalar runs
    bit for bit.  The engine simulates up to 512 subjects per chunk (one
    ``replica_uniforms`` draw block; fewer past T = 128, so that a chunk
    holds at most 65,536 trials).  Each chunk is cut into blocks of
    ``BLOCK_ROWS // env.horizon`` subjects (at least one; a chunk's last
    block may hold fewer), so ``BLOCK_ROWS`` bounds only the rows a
    consumer formats at once.  A block's arrays are views into its chunk's
    record (``Chunk.record``), which this generator lets go of before it
    draws the next chunk.
    """
    T = env.horizon
    per_block = max(1, BLOCK_ROWS // T)
    first = 0
    for drawn in mc.iter_value_chunks(agent, env, n_subjects, seed,
                                      chunk_size=max(1, min(mc._DRAW_BLOCK, _CHUNK_ROWS // T))):
        chunk = drawn.record()
        cf = chunk.counterfactual
        rc = chunk.reward_chosen()
        ru = chunk.reward_unchosen() if cf else None
        n = len(rc)
        for lo in range(0, n, per_block):
            hi = min(lo + per_block, n)
            yield first + lo, _replicas(chunk, lo, hi), [
                SessionData(f"{prefix}{first + i:04d}", chunk.actions[i], rc[i],
                            ru[i] if cf else None, cf) for i in range(lo, hi)]
        first += n
        del drawn, chunk, rc, ru  # held only through the blocks' views from here on


def synthesize_sessions(agent: AgentSpec, env: Environment, n_subjects: int,
                        seed: int, prefix: str = "S") -> list[SessionData]:
    """Simulate one session per subject; subject i owns stream (seed, i)."""
    return [s for _, _, block in iter_session_blocks(agent, env, n_subjects, seed, prefix)
            for s in block]


def _text(cell: str) -> str:
    """A text cell as ``csv``'s QUOTE_MINIMAL writes it."""
    return '"' + cell.replace('"', '""') + '"' if _NEEDS_QUOTES.search(cell) else cell


def _formatted(conv: str, values: list) -> list[str]:
    """Each of some values' text under the ``%`` conversion ``conv``, through one template."""
    return ("\n".join([conv] * len(values)) % tuple(values)).split("\n")


def _column(col, lone: bool):
    """A column as ``(conv, cells, codes)``: its ``%`` conversion, its cells
    and, when it is coded, their codes.

    A float array or a list of floats is ``%.17g``, an integer array or a
    list of ints ``%d``, and a list of strings text, quoted as ``csv``
    quotes it; ``lone`` marks a table's only column, where ``csv`` writes a
    blank cell as ``""``.  Without codes, ``cells`` holds one Python object
    per row.  A float column with at most half as many distinct values as
    rows, an integer array that spans fewer values than it has rows, and a
    text column of one repeated cell are coded instead: ``cells`` holds each
    distinct value's text, formatted once, and row i's text is
    ``cells[codes[i]]``.  Floats are told apart by their bits, so 0.0 and
    -0.0, and NaNs with different payloads, keep their own text.  A Q-learner's
    values, 96-98% distinct in the blocks of a 2,000 x 100 run, are formatted in
    place, with no text per value to expand; Bayesian posterior means (3-30%) coded.
    """
    if isinstance(col, np.ndarray):
        kind = col.dtype.kind
    else:
        col = list(col)
        types = set(map(type, col))
        kind = ("f" if all(issubclass(t, float) for t in types)
                else "i" if all(issubclass(t, (int, np.integer)) and not issubclass(t, bool)
                                for t in types)
                else "U" if all(issubclass(t, str) for t in types) else None)
    if kind not in ("f", "i", "u", "U"):
        raise TypeError("a CSV column must hold only floats, only integers or only strings")
    n = len(col)
    if kind == "f" and n > 1:
        bits, codes = np.unique(np.asarray(col, dtype=np.float64).view(np.uint64),
                                return_inverse=True)
        if 2 * len(bits) <= n:
            return "%s", _formatted("%.17g", bits.view(np.float64).tolist()), codes
    elif kind in ("i", "u") and isinstance(col, np.ndarray) and n > 1:
        lo, hi = int(col.min()), int(col.max())
        if hi - lo < n:
            # the offsets are below n, so they fit the wider type exactly
            offsets = np.subtract(col, col.dtype.type(lo),
                                  dtype=np.uint64 if kind == "u" else np.int64)
            return "%s", _formatted("%d", list(range(lo, hi + 1))), offsets.astype(np.intp)
    cells = col.tolist() if isinstance(col, np.ndarray) else col
    if kind != "U":
        return "%.17g" if kind == "f" else "%d", cells, None
    quoted = {v: _text(v) for v in set(cells)}
    if lone:
        quoted[""] = '""'
    if len(quoted) == 1 and n > 1:
        return "%s", list(quoted.values()), np.zeros(n, dtype=np.intp)
    return "%s", [quoted[v] for v in cells], None


def _format_block(columns) -> str:
    """Equal-length columns as CSV rows, formatted by one ``%`` template.

    A column that :func:`_column` formats in place is a ``%`` conversion of
    the template; a coded one is a ``%s`` cell looked up per row.  Adjacent
    coded columns are joined while they take at most one combination of
    values per 8 rows: each combination's text, such as ``"3,1,0,1"``, is
    formatted once and looked up per row.
    """
    k, n = len(columns), len(columns[0])
    convs, parts = [], []  # per output cell: its conversion, and [cells, codes]
    for col in columns:
        conv, cells, codes = _column(col, k == 1)
        last = parts[-1] if parts else None
        if (codes is not None and last and last[1] is not None
                and len(last[0]) * len(cells) * 8 <= n):
            last[0] = [a + "," + b for a in last[0] for b in cells]
            last[1] = last[1] * len(cells) + codes
        else:
            convs.append(conv)
            parts.append([cells, codes])
    m = len(parts)
    flat = [None] * (n * m)
    for j, (cells, codes) in enumerate(parts):
        if codes is not None:
            cells = np.array(cells, dtype=object)[codes].tolist()
        flat[j::m] = cells  # raises ValueError unless the column has n cells
    return (",".join(convs) + "\r\n") * n % tuple(flat)


@contextmanager
def csv_writer(path, header, seed=None):
    """Open ``path`` for CSV, write the header (after a ``# seed=`` comment
    line when ``seed`` is given) and yield a function that writes one block
    of rows; the file closes when the ``with`` block ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if seed is not None:
            fh.write(f"# seed={seed}\n")
        fh.write(_format_block([[h] for h in header]))
        yield lambda columns: fh.write(_format_block(columns))


def write_csv(path, header, blocks, seed=None) -> int:
    """Write a header and any iterable of row blocks as CSV; returns how many rows.

    A block is a sequence of equal-length columns, formatted by one ``%``
    template (see :func:`_column` for each column's conversion): a float is
    written with 17 significant digits, so it reads back exactly, an
    integer in full, and text as ``csv`` writes it, with CRLF line ends.
    A table whose column types vary from row to row writes a block per
    row.  When ``seed`` is given it goes first, as a ``# seed=`` comment
    line.
    """
    n = 0
    with csv_writer(path, header, seed) as write:
        for columns in blocks:
            write(columns)
            n += len(columns[0])
    return n


def row_blocks(rows):
    """One block per row, for tables whose column types vary from row to row."""
    return ([(cell,) for cell in row] for row in rows)


def trial_columns(sessions):
    """The columns ``trial, action, r_chosen, r_unchosen`` of the trials of
    sessions that share one feedback mode, in session order;
    ``r_unchosen`` is blank when feedback hides it."""
    trial = np.concatenate([np.arange(s.n_trials) for s in sessions])
    ru = (np.concatenate([s.r_unchosen for s in sessions]) if sessions[0].counterfactual
          else [""] * len(trial))
    return (trial, np.concatenate([s.actions for s in sessions]),
            np.concatenate([s.r_chosen for s in sessions]), ru)


def _session_block(sessions):
    """Sessions of one feedback mode as a block, their cells checked at once;
    a bad cell is named by the first session that holds one."""
    ids = []
    for s in sessions:
        ids += [s.subject_id] * s.n_trials
    columns = trial_columns(sessions)
    _, action, rc, ru = columns
    if not (_all_in(action, (1, 2)) and _all_in(rc, (0, 1))
            and (not sessions[0].counterfactual or _all_in(ru, (0, 1)))):
        for s in sessions:
            s.validate()
    return (ids, *columns)


def _session_blocks(sessions):
    """Validated sessions as blocks of whole sessions of one feedback mode."""
    block, rows = [], 0
    for s in sessions:
        s._check_shape()
        if block and (rows + s.n_trials > BLOCK_ROWS
                      or s.counterfactual != block[0].counterfactual):
            yield _session_block(block)
            block, rows = [], 0
        block.append(s)
        rows += s.n_trials
    if block:
        yield _session_block(block)


def write_sessions(path, sessions: Iterable[SessionData], seed=None) -> int:
    """Write sessions, any iterable of :class:`SessionData`, to CSV; returns
    the number of data rows.  Sessions are validated and written a block at
    a time, so a generator's sessions need not all be held at once.

    When `seed` is given it is recorded as a leading comment line, which
    `read_sessions` skips.
    """
    return write_csv(path, CSV_HEADER, _session_blocks(sessions), seed)


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
