"""Command-line interface: subcommands, precedence, exit codes."""

import json
import math

import pytest

from sawtoothsim.cli import DEFAULT_POINCARE_SEEDS, main


def run(*argv):
    return main(list(argv))


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def data_rows(path):
    """Non-comment rows after the header, split into cells."""
    lines = [ln for ln in read_lines(path) if not ln.startswith("#")]
    return [ln.split(", ") for ln in lines[1:]]


def comment_meta(path):
    out = {}
    for line in read_lines(path):
        if not line.startswith("#"):
            break
        key, value = line.lstrip("#").strip().split("=", 1)
        out[key.strip()] = value.strip()
    return out


class TestPoincare:
    def test_writes_eight_trajectories(self, tmp_path):
        out = tmp_path / "section.csv"
        assert run("poincare", "--out", str(out), "--tmax", "50",
                   "--no-timestamp") == 0
        rows = data_rows(out)
        assert len(rows) == len(DEFAULT_POINCARE_SEEDS) * 51
        seen = {r[0] for r in rows}
        assert seen == {str(i) for i in range(len(DEFAULT_POINCARE_SEEDS))}
        # every cell parses as a number
        assert all(math.isfinite(float(r[2])) and math.isfinite(float(r[3]))
                   for r in rows)

    def test_zero_steps_echoes_seeds(self, tmp_path):
        out = tmp_path / "seeds.csv"
        assert run("poincare", "--out", str(out), "--tmax", "0",
                   "--no-timestamp") == 0
        rows = data_rows(out)
        assert len(rows) == len(DEFAULT_POINCARE_SEEDS)
        assert all(r[1] == "0" for r in rows)
        assert float(rows[0][2]) == DEFAULT_POINCARE_SEEDS[0][0]

    def test_negative_steps_rejected(self, tmp_path):
        assert run("poincare", "--out", str(tmp_path / "x.csv"),
                   "--tmax", "-5") == 1

    def test_metadata_records_parameters(self, tmp_path):
        out = tmp_path / "section.csv"
        run("poincare", "--out", str(out), "--tmax", "3", "--K", "-1.0",
            "--no-timestamp")
        meta = comment_meta(out)
        assert meta["K"] == "-1.0"
        assert meta["steps"] == "3"


class TestLyapunov:
    def test_prints_closed_form(self, capsys):
        assert run("lyapunov", "--K", "0.1") == 0
        out = capsys.readouterr().out
        assert "0.314925" in out

    def test_json_artifact(self, tmp_path):
        out = tmp_path / "lyap.json"
        assert run("lyapunov", "--K", "-5.0", "--out", str(out),
                   "--no-timestamp") == 0
        body = json.loads(out.read_text())
        assert abs(body["lyapunov"] - math.log((3 + math.sqrt(5)) / 2)) < 1e-12
        assert abs(body["numeric"] - body["lyapunov"]) < 0.05 * body["lyapunov"]


class TestFidelity:
    def quick(self, tmp_path, *extra):
        out = tmp_path / "curve.csv"
        code = run("fidelity", "--nq", "4", "--K", "0.5", "--epsilon", "0.05",
                   "--tmax", "30", "--ensemble", "3", "--seed", "7",
                   "--out", str(out), "--no-timestamp", *extra)
        return code, out

    def test_csv_and_summary(self, tmp_path):
        code, out = self.quick(tmp_path)
        assert code == 0
        rows = data_rows(out)
        assert len(rows) == 31
        assert float(rows[0][1]) == 1.0
        summary_path = tmp_path / "curve_summary.json"
        body = json.loads(summary_path.read_text())
        assert body["nq"] == 4
        assert body["summary"]["n_g"] == 3 * 16 + 4
        assert body["summary"]["model"] in ("exponential", "gaussian")
        assert body["summary"]["rate"] > 0

    def test_json_format_single_file(self, tmp_path):
        out = tmp_path / "curve.json"
        code = run("fidelity", "--nq", "4", "--epsilon", "0.05",
                   "--tmax", "20", "--ensemble", "3",
                   "--out", str(out), "--format", "json", "--no-timestamp")
        assert code == 0
        body = json.loads(out.read_text())
        assert len(body["t"]) == 21
        assert len(body["f_mean"]) == 21
        assert "summary" in body

    def test_null_noise_reports_no_decay(self, tmp_path, capsys):
        out = tmp_path / "flat.csv"
        code = run("fidelity", "--nq", "4", "--epsilon", "0", "--tmax", "20",
                   "--ensemble", "2", "--out", str(out), "--no-timestamp")
        assert code == 0
        assert "no decay" in capsys.readouterr().out
        body = json.loads((tmp_path / "flat_summary.json").read_text())
        assert body["summary"]["model"] is None

    def test_byte_identical_reruns(self, tmp_path):
        _, first = self.quick(tmp_path)
        first_curve = first.read_bytes()
        first_summary = (tmp_path / "curve_summary.json").read_bytes()
        _, second = self.quick(tmp_path)
        assert second.read_bytes() == first_curve
        assert (tmp_path / "curve_summary.json").read_bytes() == first_summary

    def test_kick_channel_selected_by_deltak(self, tmp_path):
        out = tmp_path / "kick.csv"
        code = run("fidelity", "--nq", "5", "--deltaK", "0.05",
                   "--tmax", "20", "--ensemble", "4",
                   "--out", str(out), "--no-timestamp")
        assert code == 0
        assert comment_meta(out)["channel"] == "classical"

    def test_conflicting_channels_rejected(self, tmp_path):
        code = run("fidelity", "--nq", "4", "--epsilon", "0.01",
                   "--deltaK", "0.01", "--out", str(tmp_path / "x.csv"))
        assert code == 1

    def test_bad_values_exit_config(self, tmp_path):
        out = str(tmp_path / "x.csv")
        assert run("fidelity", "--epsilon", "nan", "--out", out) == 1
        assert run("fidelity", "--epsilon", "-0.1", "--out", out) == 1
        assert run("fidelity", "--nq", "4", "--ensemble", "0",
                   "--out", out) == 1
        assert run("fidelity", "--nq", "4", "--initial", "plane",
                   "--out", out) == 1

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "nq = 4\n"
            "epsilon = 0.05\n"
            "tmax = 20\n"
            "ensemble = 3\n"
            "seed = 7\n")
        out = tmp_path / "curve.csv"
        code = run("fidelity", "--config", str(cfg), "--tmax", "10",
                   "--out", str(out), "--no-timestamp")
        assert code == 0
        meta = comment_meta(out)
        assert meta["nq"] == "4"        # from the file
        assert meta["tmax"] == "10"     # flag wins over the file
        assert len(data_rows(out)) == 11

    @pytest.mark.parametrize("flags", [
        ("--epsilon", "0.05", "--regime", "static"),
        ("--deltaK", "0.05", "--theta0", "1.0", "--initial", "random")])
    def test_header_reruns_as_config(self, tmp_path, flags):
        # a result header with its comment markers stripped is a config
        # file that reproduces the result byte for byte
        first = tmp_path / "first.csv"
        assert run("fidelity", "--nq", "4", "--K", "0.7", "--tmax", "15",
                   "--ensemble", "3", "--seed", "5", *flags,
                   "--out", str(first), "--no-timestamp") == 0
        header = [ln[2:] for ln in read_lines(first) if ln.startswith("# ")]
        cfg = tmp_path / "rerun.cfg"
        cfg.write_text("\n".join(header) + "\n")
        second = tmp_path / "second.csv"
        assert run("fidelity", "--config", str(cfg), "--out", str(second),
                   "--no-timestamp") == 0
        assert second.read_bytes() == first.read_bytes()

    def test_missing_config_file(self, tmp_path):
        assert run("fidelity", "--config", str(tmp_path / "absent.cfg"),
                   "--out", str(tmp_path / "x.csv")) == 1


class TestSweepCommands:
    def test_tf_scan_tiny_grid(self, tmp_path, capsys):
        out = tmp_path / "tf.csv"
        code = run("tf-scan", "--nq", "4", "--epsilon", "0.05", "--K", "5",
                   "--ensemble", "4", "--out", str(out), "--no-timestamp")
        assert code == 0
        lines = [ln for ln in read_lines(out) if not ln.startswith("#")]
        assert lines[0] == "n_q, epsilon, t_f, collapse"
        assert len(lines) == 2
        assert "mean collapse" in capsys.readouterr().out

    def test_jobs_below_one_rejected(self, tmp_path):
        assert run("tf-scan", "--nq", "4", "--epsilon", "0.05", "--K", "5",
                   "--ensemble", "2", "--jobs", "0",
                   "--out", str(tmp_path / "tf.csv")) == 1

    def test_rate_vs_k_tiny(self, tmp_path):
        out = tmp_path / "rates.csv"
        code = run("rate-vs-k", "--K", "0.5", "--nq", "5",
                   "--epsilon", "0.1", "--ensemble", "4", "--tmax", "40",
                   "--out", str(out), "--no-timestamp")
        assert code == 0
        lines = [ln for ln in read_lines(out) if not ln.startswith("#")]
        assert lines[0] == "K, kind, rate, r2, model"
        rows = [ln.split(", ") for ln in lines[1:]]
        assert [r[1] for r in rows] == ["island", "diffusive", "random"]
        assert all(float(r[2]) > 0 for r in rows)


class TestCircuitCheck:
    def test_contracts_pass(self, tmp_path, capsys):
        out = tmp_path / "gates.csv"
        code = run("circuit-check", "--nq", "6", "--out", str(out),
                   "--no-timestamp")
        assert code == 0
        printed = capsys.readouterr().out
        assert "PASS" in printed
        assert "12 Hadamards" in printed
        rows = data_rows(out)
        # forward ladder + kick + reverse ladder + rotation + markers
        assert len(rows) > 2 * 36 + 6

    def test_bad_nq_rejected(self):
        assert run("circuit-check", "--nq", "0") == 1


class TestScattering:
    def test_null_noise_identity(self, tmp_path, capsys):
        out = tmp_path / "scatter.json"
        code = run("scattering", "--nq", "5", "--tmax", "4", "--epsilon", "0",
                   "--shots", "500", "--out", str(out), "--no-timestamp")
        assert code == 0
        body = json.loads(out.read_text())
        assert abs(body["f_analytic"] - 1.0) < 1e-12
        assert abs(body["f_sampled"] - 1.0) < 0.2
        assert "f_analytic" in capsys.readouterr().out

    def test_zero_shots_rejected(self):
        assert run("scattering", "--nq", "4", "--shots", "0") == 1


class TestParser:
    def test_missing_subcommand(self):
        assert run() == 1

    def test_unknown_subcommand(self):
        assert run("teleport") == 1

    def test_unknown_flag(self):
        assert run("lyapunov", "--banana", "1") == 1
