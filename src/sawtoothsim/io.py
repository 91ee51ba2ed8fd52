"""Artifact emission (CSV/JSON with embedded metadata) and config files.

Every output file starts with commented ``key = value`` metadata lines
carrying the full run configuration and master seed, so any artifact
can be reproduced without the original command line.  The metadata
syntax matches the config-file format (minus the comment marker): flat
``key = value`` pairs, ``#`` comments, blank lines ignored.

A timestamp line is written by default and can be suppressed for
byte-identical reruns.
"""

from __future__ import annotations

import dataclasses
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
    "write_records",
    "write_circuit",
    "write_state",
    "read_state",
    "read_config",
    "config_metadata",
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
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, float) and math.isnan(value):
        return None
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    return value


def write_json(path, payload: dict, timestamp: bool = True) -> None:
    """JSON artifact; adds a ``written`` field unless suppressed."""
    body = dict(payload)
    if timestamp:
        body["written"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(body), fh, indent=2)
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


def write_records(path, records, fields, meta: dict | None = None,
                  timestamp: bool = True) -> None:
    """Dataclass records as CSV, one column per named field."""
    columns = {name: [getattr(r, name) for r in records] for name in fields}
    write_csv(path, columns, meta, timestamp)


def write_circuit(path, program, meta: dict | None = None,
                  timestamp: bool = True) -> None:
    """Gate listing as `position, kind, qubits, angle` columns."""
    pos_col, kind_col, qubit_col, angle_col = [], [], [], []
    for pos, g in enumerate(program.gates):
        pos_col.append(pos)
        kind_col.append(g.kind)
        if g.control >= 0:
            qubit_col.append(f"{g.control} {g.target}")
        elif g.target >= 0:
            qubit_col.append(str(g.target))
        else:
            qubit_col.append("all")
        angle_col.append(g.angle)
    write_csv(path, {"position": pos_col, "kind": kind_col,
                     "qubits": qubit_col, "angle": angle_col}, meta, timestamp)


def write_state(path, state, timestamp: bool = True) -> None:
    """State snapshot as `index, re, im` with lattice metadata."""
    meta = {"nq": state.lattice.n_q, "K": state.lattice.K,
            "basis": state.basis}
    write_csv(path, {"index": list(range(state.amps.size)),
                     "re": state.amps.real, "im": state.amps.imag},
              meta, timestamp)


def read_state(path):
    """Round-trip reader for :func:`write_state` snapshots."""
    from .states import LatticeParams, QuantumState

    meta = {}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, value = body.split("=", 1)
                    meta[key.strip()] = value.strip()
                continue
            if not line or line.startswith("index"):
                continue
            index, re_part, im_part = line.split(",")
            rows.append((int(index), float(re_part), float(im_part)))
    lattice = LatticeParams(n_q=int(meta["nq"]), K=float(meta["K"]))
    amps = np.zeros(lattice.N, dtype=complex)
    for index, re_part, im_part in rows:
        amps[index] = re_part + 1j * im_part
    return QuantumState(amps, meta["basis"], lattice)


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


def config_metadata(config) -> dict:
    """Flatten an experiment config into metadata/config-file keys.

    The keys the command line reads (``ensemble`` among them) make the
    header of a result file a config that reruns the same experiment.
    """
    lattice = config.lattice
    return {
        "nq": lattice.n_q,
        "K": lattice.K,
        "channel": config.channel,
        "epsilon": config.epsilon,
        "regime": config.regime,
        "deltaK": config.delta_K,
        "initial": config.initial,
        "theta0": config.theta0,
        "p0": config.p0,
        "sigma": config.sigma,
        "tmax": config.t_max,
        "n_states": config.n_states,
        "n_noise": config.n_noise,
        "ensemble": config.n_members,
        "seed": config.master_seed,
    }
