"""Artifact files: CSV/JSON writers and config files."""

import json
import math

import numpy as np
import pytest

from sawtoothsim.circuit import (
    CPHASE,
    HADAMARD,
    PHASE1,
    build_sawtooth_circuit,
)
from sawtoothsim.experiments import ExperimentConfig, FidelityCurve
from sawtoothsim.io import (
    read_config,
    render_metadata,
    write_circuit,
    write_csv,
    write_curve,
    write_json,
    write_poincare,
)
from sawtoothsim.states import LatticeParams


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def comment_meta(path):
    """Parse '# key = value' header lines back into a dict."""
    out = {}
    for line in read_lines(path):
        if not line.startswith("#"):
            break
        body = line.lstrip("#").strip()
        key, value = body.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def header_line(path):
    for line in read_lines(path):
        if not line.startswith("#"):
            return line
    raise AssertionError("no header line found")


class TestMetadata:
    def test_plain_key_value_lines(self):
        lines = render_metadata({"nq": 8, "K": 0.5}, timestamp=False)
        assert lines == ["# nq = 8", "# K = 0.5"]

    def test_timestamp_first(self):
        lines = render_metadata({"nq": 8}, timestamp=True)
        assert lines[0].startswith("# written = ")
        assert lines[1] == "# nq = 8"

    def test_none_renders_empty(self):
        assert render_metadata({"theta0": None}, timestamp=False) == \
            ["# theta0 = "]

    def test_matches_config_file_syntax(self, tmp_path):
        # stripping the comment marker turns a metadata header into a
        # valid config file with identical values; None reads back as
        # an empty value and a list as comma-separated entries
        meta = {"nq": [4, 5], "K": -0.5, "deltaK": 4e-3,
                "epsilon": [0.05, 1e-2], "theta0": None, "regime": "static",
                "seed": 17}
        lines = render_metadata(meta, timestamp=False)
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(line.lstrip("# ") for line in lines) + "\n")
        parsed = read_config(path)
        assert parsed == {"nq": "4,5", "K": "-0.5", "deltaK": "0.004",
                          "epsilon": "0.05,0.01", "theta0": "",
                          "regime": "static", "seed": "17"}


class TestWriteCsv:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, {"a": [1, 2], "b": [0.5, 0.25]}, timestamp=False)
        assert read_lines(path) == ["a, b", "1, 0.5", "2, 0.25"]

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "out.csv", {"a": [1, 2], "b": [1]})

    def test_full_float_precision_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        values = [1.0 / 3.0, math.pi, 1e-17]
        write_csv(path, {"x": values}, timestamp=False)
        parsed = [float(line) for line in read_lines(path)[1:]]
        assert parsed == values

    def test_byte_identical_reruns(self, tmp_path):
        cols = {"t": np.arange(5), "f": np.exp(-0.1 * np.arange(5))}
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, cols, meta={"seed": 1}, timestamp=False)
        write_csv(b, cols, meta={"seed": 1}, timestamp=False)
        assert a.read_bytes() == b.read_bytes()

    def test_metadata_header_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, {"x": [1]}, meta={"nq": 8, "eps": 0.003},
                  timestamp=False)
        assert comment_meta(path) == {"nq": "8", "eps": "0.003"}


class TestCurveAndRecordFiles:
    def test_curve_column_contract(self, tmp_path):
        t = np.arange(4)
        f = np.exp(-0.2 * t)
        config = ExperimentConfig(lattice=LatticeParams(n_q=4, K=0.5), t_max=3)
        curve = FidelityCurve(t=t, f=f, f_err=np.full(4, 0.01),
                              member_f=f[None, :], config=config)
        path = tmp_path / "curve.csv"
        write_curve(path, curve, timestamp=False)
        assert header_line(path) == "t, f_mean, f_stderr"
        rows = [line.split(", ") for line in read_lines(path)[1:]]
        assert len(rows) == 4
        assert float(rows[0][1]) == 1.0
        assert float(rows[3][1]) == math.exp(-0.6)

    def test_poincare_column_contract(self, tmp_path):
        trajs = [np.array([[0.1, 0.2], [0.3, 0.4]]),
                 np.array([[1.0, -1.0]])]
        path = tmp_path / "section.csv"
        write_poincare(path, trajs, timestamp=False)
        assert header_line(path) == "seed_index, step, theta, p"
        rows = [line.split(", ") for line in read_lines(path)[1:]]
        assert len(rows) == 3
        assert [r[0] for r in rows] == ["0", "0", "1"]
        assert [r[1] for r in rows] == ["0", "1", "0"]
        assert float(rows[2][3]) == -1.0


class TestCircuitFiles:
    def test_gate_listing(self, tmp_path):
        program = build_sawtooth_circuit(LatticeParams(n_q=2, K=0.5))
        path = tmp_path / "circuit.csv"
        write_circuit(path, program, timestamp=False)
        assert header_line(path) == "position, kind, qubits, angle"
        rows = [line.split(", ") for line in read_lines(path)[1:]]
        assert len(rows) == len(program.gates)
        assert {r[1] for r in rows} == {HADAMARD, CPHASE, PHASE1}
        # a cphase lists control and target, every other gate its target
        assert all(len(r[2].split(" ")) == (2 if r[1] == CPHASE else 1)
                   for r in rows)


class TestJson:
    def test_numpy_float_and_array_conversion(self, tmp_path):
        path = tmp_path / "out.json"
        payload = {
            "rate": np.float64(0.25),
            "curve": np.array([1.0, 0.5]),
            "bad": math.nan,
        }
        write_json(path, payload, timestamp=False)
        body = json.loads(path.read_text())
        assert body["rate"] == 0.25
        assert body["curve"] == [1.0, 0.5]
        assert body["bad"] is None
        assert "written" not in body

    def test_non_finite_floats_written_as_null(self, tmp_path):
        # strict JSON has no NaN or Infinity, whatever their float type
        path = tmp_path / "out.json"
        payload = {"a": np.float64("nan"), "b": math.inf, "c": -math.inf,
                   "d": np.float32("inf"), "e": np.array([1.0, np.nan, -np.inf])}
        write_json(path, payload, timestamp=False)

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        body = json.loads(path.read_text(), parse_constant=reject)
        assert body == {"a": None, "b": None, "c": None, "d": None,
                        "e": [1.0, None, None]}

    def test_timestamp_field(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"x": 1}, timestamp=True)
        assert "written" in json.loads(path.read_text())


class TestReadConfig:
    def test_parses_flat_pairs(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# experiment setup\n"
            "\n"
            "nq = 8\n"
            "K = 0.5   # chaotic\n"
            "epsilon = 3e-3\n")
        assert read_config(path) == {"nq": "8", "K": "0.5",
                                     "epsilon": "3e-3"}

    def test_missing_separator_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nq 8\n")
        with pytest.raises(ValueError):
            read_config(path)
