"""Artifact files: CSV/JSON writers, config files, state snapshots."""

import json
import math

import numpy as np
import pytest

from sawtoothsim.circuit import (
    BITREV,
    CPHASE,
    HADAMARD,
    build_sawtooth_circuit,
)
from sawtoothsim.experiments import FidelityCurve, TfRecord
from sawtoothsim.io import (
    config_metadata,
    read_config,
    read_state,
    render_metadata,
    write_circuit,
    write_csv,
    write_curve,
    write_json,
    write_poincare,
    write_records,
    write_state,
)
from sawtoothsim.states import LatticeParams, WavePacketSpec, gaussian_packet
from sawtoothsim.experiments import ExperimentConfig


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
        # valid config file with identical values
        config = ExperimentConfig(
            lattice=LatticeParams(n_q=6, K=-0.5), channel="classical",
            delta_K=4e-3, t_max=50, master_seed=17)
        meta = config_metadata(config)
        lines = render_metadata(meta, timestamp=False)
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(line.lstrip("# ") for line in lines) + "\n")
        parsed = read_config(path)
        assert parsed["nq"] == "6"
        assert parsed["K"] == "-0.5"
        assert parsed["deltaK"] == "0.004"
        assert parsed["channel"] == "classical"
        assert parsed["seed"] == "17"
        assert set(parsed) == set(meta)


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
        curve = FidelityCurve(t=t, f=np.exp(-0.2 * t),
                              f_err=np.full(4, 0.01))
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

    def test_records_file(self, tmp_path):
        recs = [TfRecord(t_f=12.5, n_q=4, epsilon=0.02),
                TfRecord(t_f=3.0, n_q=4, epsilon=0.04)]
        path = tmp_path / "tf.csv"
        write_records(path, recs, ("n_q", "epsilon", "t_f"), timestamp=False)
        assert header_line(path) == "n_q, epsilon, t_f"
        assert read_lines(path)[1] == "4, 0.02, 12.5"


class TestCircuitFiles:
    def test_gate_listing(self, tmp_path):
        program = build_sawtooth_circuit(LatticeParams(n_q=2, K=0.5))
        path = tmp_path / "circuit.csv"
        write_circuit(path, program, timestamp=False)
        assert header_line(path) == "position, kind, qubits, angle"
        rows = [line.split(", ") for line in read_lines(path)[1:]]
        assert len(rows) == len(program.gates)
        kinds = {r[1] for r in rows}
        assert HADAMARD in kinds and CPHASE in kinds and BITREV in kinds
        two_qubit = [r for r in rows if r[1] == CPHASE]
        assert all(len(r[2].split(" ")) == 2 for r in two_qubit)


class TestStateSnapshots:
    def test_round_trip(self, tmp_path):
        lattice = LatticeParams(n_q=5, K=-0.5)
        state = gaussian_packet(WavePacketSpec(theta0=1.0, p0=0.0), lattice)
        path = tmp_path / "state.csv"
        write_state(path, state, timestamp=False)
        back = read_state(path)
        assert back.basis == state.basis
        assert back.lattice == state.lattice
        assert np.array_equal(back.amps, state.amps)


class TestJson:
    def test_numpy_and_dataclass_conversion(self, tmp_path):
        path = tmp_path / "out.json"
        payload = {
            "rate": np.float64(0.25),
            "n": np.int64(7),
            "curve": np.array([1.0, 0.5]),
            "record": TfRecord(t_f=2.0, n_q=4, epsilon=0.1),
            "bad": math.nan,
        }
        write_json(path, payload, timestamp=False)
        body = json.loads(path.read_text())
        assert body["rate"] == 0.25
        assert body["n"] == 7
        assert body["curve"] == [1.0, 0.5]
        assert body["record"]["t_f"] == 2.0
        assert body["bad"] is None
        assert "written" not in body

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
