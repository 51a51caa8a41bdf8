"""On-disk dataset layout, model/report persistence and run manifests.

Dataset layout (line-oriented CSV, diffable, trivially generated):

    <root>/subject_<id>/session_<k>/train_cycle<c>_gesture<g>.csv
        rows = samples, 10 integer channel columns
    <root>/subject_<id>/session_<k>/eval_<e>.csv
        rows = samples, 11 integer columns: 10 channels + requested gesture id

Reports are schema-versioned JSON plus per-session CSV accuracy tables. Every
run directory carries a manifest with the seed and a digest of the exact
configuration; re-running with the same manifest reproduces the report byte
for byte (reports deliberately contain no wall-clock timestamps).
"""

from __future__ import annotations

import hashlib
import io
import json
import re
from dataclasses import asdict, is_dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ParseError, ShapeError
from .signal import NUM_CHANNELS, SAMPLE_RATE_HZ, RawRecording
from .synth import SessionData, SubjectData

REPORT_SCHEMA_VERSION = 1

_INT16 = np.iinfo(np.int16)
_INT64 = np.iinfo(np.int64)

# Rows per `%` formatting call in `_write_csv`: bounds the transient Python
# ints to a block's worth while keeping the per-call overhead negligible.
_WRITE_BLOCK_ROWS = 4096

# Every byte of a file that `np.loadtxt` may parse: digits, signs, commas and
# ASCII whitespace. Anything else (a '.', an 'e', a '_', non-ASCII text)
# goes to the line parser, so the accepted set does not depend on the numpy
# version (numpy 1.x `loadtxt` parses "1.0" as an int with a warning).
_FAST_BYTES = b"0123456789,+- \t\r\n"

_CYCLE_RE = re.compile(r"train_cycle(\d+)_gesture(\d+)\.csv$")
_EVAL_RE = re.compile(r"eval_(\d+)\.csv$")
_SESSION_RE = re.compile(r"session_(\d+)$")


def _write_csv(path: Path, rows: np.ndarray) -> None:
    """One line of comma-separated integers per row, formatted a block of
    rows per `%` operation; the bytes equal `",".join(str(int(v)) ...)`."""
    n, k = rows.shape
    line = ",".join(["%d"] * k) + "\n"
    with open(path, "w") as fh:
        for start in range(0, n, _WRITE_BLOCK_ROWS):
            block = rows[start : start + _WRITE_BLOCK_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def _read_int_csv(path: Path, columns: int) -> np.ndarray:
    """Rows of `columns` integers; the first NUM_CHANNELS columns are int16
    samples, and a value outside that range is a ParseError, not a wrap.

    A file of digits, signs, commas and whitespace is parsed in one
    `np.loadtxt` pass. A file `loadtxt` refuses, and any other file, goes
    through the line parser, which accepts the same set and names the line
    of the first fault."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read recording {path}: {exc}") from exc
    rows = None
    # A blank file goes to the line parser, since `loadtxt` only warns on one.
    if raw.strip() and not raw.translate(None, _FAST_BYTES):
        try:
            # A text wrapper decodes chunk by chunk; a StringIO of the whole
            # file would hold it as 4-byte characters.
            rows = np.loadtxt(io.TextIOWrapper(io.BytesIO(raw), encoding="ascii"), delimiter=",",
                              dtype=np.int64, ndmin=2, comments=None)
        except ValueError:
            pass
        if rows is not None and rows.shape[1] != columns:
            rows = None
    if rows is None:
        rows = _parse_lines(path, raw, columns)
    try:
        data = np.asarray(rows, dtype=np.int64)
        samples = data[:, :NUM_CHANNELS]
        in_range = samples.min() >= _INT16.min and samples.max() <= _INT16.max
    except OverflowError:
        in_range = False
    if not in_range:
        raise ParseError(_first_out_of_range(path, raw.decode("utf-8")))
    return data


def _lines(text: str):
    """Numbered lines of `text`, split as a file opened in text mode is."""
    return enumerate(io.StringIO(text, newline=None), start=1)


def _parse_lines(path: Path, raw: bytes, columns: int) -> list[list[int]]:
    """The line parser behind `_read_int_csv`: blank and whitespace-only
    lines are skipped, and each cell is read with `int`."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((raw[: exc.start] + b"x").splitlines())  # the bad byte's line
        raise ParseError(f"{path}:{lineno}: not UTF-8 text: {exc}") from exc
    rows = []
    for lineno, line in _lines(text):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != columns:
            raise ShapeError(f"{path}: line {lineno} has {len(parts)} columns, expected {columns}")
        try:
            rows.append([int(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty recording")
    return rows


def _first_out_of_range(path: Path, text: str) -> str:
    """Where the first value outside its column's range is in a file that
    parsed: int16 for the samples, int64 for the columns after them. The
    text is split again, so that the parse keeps no line numbers."""
    for lineno, line in _lines(text):
        for k, part in enumerate(line.split(",") if line.strip() else ()):
            v = int(part)
            limits = _INT16 if k < NUM_CHANNELS else _INT64
            if not limits.min <= v <= limits.max:
                return f"{path}:{lineno}: {v} outside [{limits.min}, {limits.max}]"
    return f"{path}: a value outside its column's range"


def _session_files(sess: SessionData) -> list[tuple[str, RawRecording, bool]]:
    """(file name, recording, whether its labels are written as a column)
    of every recording of one session, in write order."""
    files = [(f"train_cycle{c}_gesture{g}.csv", rec, False)
             for c, cycle in enumerate(sess.cycles) for g, rec in sorted(cycle.items())]
    return files + [(f"eval_{e}.csv", rec, True) for e, rec in enumerate(sess.evals)]


def _is_recording(path: Path) -> bool:
    return bool(_CYCLE_RE.match(path.name) or _EVAL_RE.match(path.name))


def save_dataset(subjects: list[SubjectData], root) -> None:
    """Write every session in the CSV layout above.

    Before writing anything, a DataError refuses a target that `load_session`
    or `load_subject` would read mixed with older data: a session directory
    holding a recording file this write would not overwrite, or a target
    subject's `session_<k>` directory holding recordings for a session this
    dataset does not write. Nothing is deleted."""
    root = Path(root)
    plan = [(root / f"subject_{sub.subject}" / f"session_{sess.session}", _session_files(sess))
            for sub in subjects for sess in sub.sessions]
    for d, files in plan:
        if not d.is_dir():
            continue
        names = {name for name, _, _ in files}
        stale = sorted(p.name for p in d.iterdir() if _is_recording(p) and p.name not in names)
        if stale:
            raise DataError(f"{d} already holds recordings this dataset would not overwrite: "
                            f"{', '.join(stale)}")
    for sub in subjects:
        base = root / f"subject_{sub.subject}"
        if not base.is_dir():
            continue
        written = {sess.session for sess in sub.sessions}
        stale = sorted(p.name for p in base.iterdir()
                       if (m := _SESSION_RE.match(p.name)) and int(m.group(1)) not in written
                       and p.is_dir() and any(_is_recording(q) for q in p.iterdir()))
        if stale:
            raise DataError(f"{base} holds sessions this dataset does not write: {', '.join(stale)}")
    try:
        for d, files in plan:
            d.mkdir(parents=True, exist_ok=True)
            for name, rec, labelled in files:
                rows = np.vstack([rec.samples, rec.labels[None, :]]) if labelled else rec.samples
                _write_csv(d / name, rows.T)
    except OSError as exc:
        raise DataError(f"cannot write dataset under {root}: {exc}") from exc


def load_session(root, subject: int, session: int) -> SessionData:
    """Parse one session directory into recordings, validating channel count
    and the fixed 1 kHz rate."""
    d = Path(root) / f"subject_{subject}" / f"session_{session}"
    if not d.is_dir():
        raise DataError(f"missing session directory {d}")
    cycles: dict[int, dict[int, RawRecording]] = {}
    evals: dict[int, RawRecording] = {}
    for path in sorted(d.iterdir()):
        m = _CYCLE_RE.match(path.name)
        if m:
            c, g = int(m.group(1)), int(m.group(2))
            data = _read_int_csv(path, NUM_CHANNELS)
            rec = RawRecording(
                samples=data.T.astype(np.int16),
                rate_hz=SAMPLE_RATE_HZ,
                labels=np.full(len(data), g, dtype=np.int64),
            )
            cycles.setdefault(c, {})[g] = rec
            continue
        m = _EVAL_RE.match(path.name)
        if m:
            data = _read_int_csv(path, NUM_CHANNELS + 1)
            evals[int(m.group(1))] = RawRecording(
                samples=data[:, :NUM_CHANNELS].T.astype(np.int16),
                rate_hz=SAMPLE_RATE_HZ,
                labels=data[:, NUM_CHANNELS].astype(np.int64),
            )
    if not cycles:
        raise DataError(f"{d}: no training cycles found")
    cycle_list = [cycles[c] for c in sorted(cycles)]
    eval_list = [evals[e] for e in sorted(evals)]
    return SessionData(subject=subject, session=session, cycles=cycle_list, evals=eval_list)


def load_subject(root, subject: int) -> SubjectData:
    """Every `session_<k>` directory of one subject, in session order; other
    entries are ignored."""
    base = Path(root) / f"subject_{subject}"
    if not base.is_dir():
        raise DataError(f"missing subject directory {base}")
    session_ids = sorted(int(m.group(1)) for p in base.iterdir() if (m := _SESSION_RE.match(p.name)))
    if not session_ids:
        raise DataError(f"{base}: no sessions found")
    return SubjectData(subject=subject, sessions=[load_session(root, subject, s) for s in session_ids])


def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, Path):
        return str(obj)
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def config_digest(cfg) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


def save_report(report_dict: dict, out_dir, accuracy_tables: dict | None = None) -> Path:
    """Write report.json (schema-versioned, deterministic byte layout) plus one
    CSV accuracy table per session; returns the report path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"schema_version": REPORT_SCHEMA_VERSION, **_jsonable(report_dict)}
    report_path = out / "report.json"
    with open(report_path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=1))
        fh.write("\n")
    for name, table in (accuracy_tables or {}).items():
        algorithms = list(table["algorithms"])
        matrix = np.asarray(table["matrix"], dtype=np.float64)
        with open(out / f"accuracy_{name}.csv", "w") as fh:
            fh.write("subject," + ",".join(algorithms) + "\n")
            for i, row in enumerate(matrix):
                fh.write(str(i) + "," + ",".join(repr(float(v)) for v in row) + "\n")
    return report_path


def load_report(path) -> dict:
    """Read a report.json written by `save_report`, with each accuracy table's
    'matrix' returned as a float64 array.

    An unreadable file, another schema version, or a structure `semgcal
    report` cannot print raises DataError.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read report {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{path}: a report must be a JSON object")
    if payload.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise DataError(f"unsupported report schema {payload.get('schema_version')}")
    problem = _convert_tables(payload)
    if problem is not None:
        raise DataError(f"{path}: {problem}")
    return payload


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _convert_tables(payload: dict) -> str | None:
    """Turn each accuracy matrix into a float64 array after checking what
    `semgcal report` prints of the tables and statistics; returns the first
    problem, or None."""
    tables = payload.get("accuracy")
    stats = payload.get("stats", {})
    if not isinstance(tables, dict) or not isinstance(stats, dict):
        return "'accuracy' and 'stats' must be objects keyed by session"
    for s, table in tables.items():
        algorithms = table.get("algorithms") if isinstance(table, dict) else None
        if not isinstance(algorithms, list) or not all(isinstance(a, str) for a in algorithms):
            return f"accuracy table {s} needs an 'algorithms' list of names"
        rows = table.get("matrix")
        try:
            if not (isinstance(rows, list) and rows and all(
                    isinstance(r, list) and len(r) == len(algorithms) and all(map(_is_number, r))
                    for r in rows)):
                raise ValueError
            matrix = np.asarray(rows, dtype=np.float64)
        except (ValueError, OverflowError):
            return f"accuracy table {s} needs a 2-D numeric 'matrix' with a column per algorithm"
        st = stats.get(s)
        if st is not None and not _stats_printable(st, algorithms):
            return f"statistics of session {s} are malformed"
        table["matrix"] = matrix
    return None


def _stats_printable(st, algorithms) -> bool:
    try:
        ranks, holm, dz = st["friedman"]["avg_ranks"], st["holm"], st["cohens_dz"]
        if not all(isinstance(d, dict) for d in (ranks, holm, dz)):
            return False
        return all(
            (ranks.get(a) is None or _is_number(ranks[a]))
            and (holm.get(a) is None or ("reject" in holm[a] and _is_number(holm[a]["p_adjusted"])))
            and (dz.get(a) is None or _is_number(dz[a]))
            for a in algorithms
        )
    except (KeyError, TypeError):
        return False


def save_manifest(out_dir, seed: int, cfg) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "seed": seed,
        "config_digest": config_digest(cfg),
        "config": _jsonable(cfg),
    }
    path = out / "manifest.json"
    with open(path, "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=1))
        fh.write("\n")
    return path
