"""Artifact emission (CSV/JSON with embedded metadata) and config files.

Every output file starts with commented ``key = value`` metadata lines;
the command line writes there the options of the run, so any artifact
can be reproduced without the original command line.  The metadata
syntax matches the config-file format (minus the comment marker): flat
``key = value`` pairs, ``#`` comments, blank lines ignored.  ``None``
renders as an empty value and a list as comma-separated entries, the
forms the command line reads back.

A timestamp line is written by default and can be suppressed for
byte-identical reruns.
"""

from __future__ import annotations

import json
import math
from datetime import datetime, timezone

import numpy as np

__all__ = [
    "render_metadata",
    "write_csv",
    "write_json",
    "write_curve",
    "write_poincare",
    "write_circuit",
    "read_config",
]


def _fmt(value) -> str:
    # numpy scalars must be unwrapped before repr; np.float64 passes
    # the isinstance(float) check but reprs as "np.float64(...)"
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return "nan"
        return repr(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def render_metadata(meta: dict | None, timestamp: bool = True) -> list:
    """Commented header lines: optional timestamp, then key = value."""
    lines = []
    if timestamp:
        now = datetime.now(timezone.utc).isoformat(timespec="seconds")
        lines.append(f"# written = {now}")
    for key, value in (meta or {}).items():
        lines.append(f"# {key} = {_fmt(value)}")
    return lines


def write_csv(path, columns: dict, meta: dict | None = None,
              timestamp: bool = True) -> None:
    """Column-oriented CSV with a commented metadata header.

    ``columns`` maps name -> sequence; all sequences must share one
    length.  Floats are written with full repr precision so identical
    runs produce identical bytes.
    """
    names = list(columns)
    cols = [list(columns[n]) for n in names]
    lengths = {len(c) for c in cols}
    if len(lengths) > 1:
        raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    with open(path, "w", encoding="utf-8") as fh:
        for line in render_metadata(meta, timestamp):
            fh.write(line + "\n")
        fh.write(", ".join(names) + "\n")
        for i in range(n_rows):
            fh.write(", ".join(_fmt(c[i]) for c in cols) + "\n")


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else None
    return value


def write_json(path, payload: dict, timestamp: bool = True) -> None:
    """JSON artifact; adds a ``written`` field unless suppressed.

    NaN and infinite floats are written as ``null``, so the file is
    strict JSON.
    """
    body = dict(payload)
    if timestamp:
        body["written"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(body), fh, indent=2, allow_nan=False)
        fh.write("\n")


def write_curve(path, curve, meta: dict | None = None,
                timestamp: bool = True) -> None:
    """Fidelity curve as `t, f_mean, f_stderr` columns."""
    write_csv(path, {"t": curve.t, "f_mean": curve.f, "f_stderr": curve.f_err},
              meta, timestamp)


def write_poincare(path, trajectories, meta: dict | None = None,
                   timestamp: bool = True) -> None:
    """Stacked trajectories as `seed_index, step, theta, p` columns."""
    seed_col, step_col, th_col, p_col = [], [], [], []
    for idx, traj in enumerate(trajectories):
        arr = np.asarray(traj, float)
        for step in range(arr.shape[0]):
            seed_col.append(idx)
            step_col.append(step)
            th_col.append(arr[step, 0])
            p_col.append(arr[step, 1])
    write_csv(path, {"seed_index": seed_col, "step": step_col,
                     "theta": th_col, "p": p_col}, meta, timestamp)


def write_circuit(path, program, meta: dict | None = None,
                  timestamp: bool = True) -> None:
    """Gate listing as `position, kind, qubits, angle` columns."""
    pos_col, kind_col, qubit_col, angle_col = [], [], [], []
    for pos, g in enumerate(program.gates):
        pos_col.append(pos)
        kind_col.append(g.kind)
        qubit_col.append(f"{g.control} {g.target}" if g.control >= 0
                         else str(g.target))
        angle_col.append(g.angle)
    write_csv(path, {"position": pos_col, "kind": kind_col,
                     "qubits": qubit_col, "angle": angle_col}, meta, timestamp)


def read_config(path) -> dict:
    """Flat ``key = value`` config file -> string-valued dict.

    Blank lines and ``#`` comments are skipped; values keep their raw
    text (the consumer applies types and defaults).
    """
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out
