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
        assert meta == {"K": "-1.0", "tmax": "3"}


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
        body = json.loads((tmp_path / "kick_summary.json").read_text())
        assert body["summary"]["channel"] == "classical"
        assert "channel" not in comment_meta(out)

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

    def test_oversized_register_exits_config(self, tmp_path, capsys):
        # 2^40 amplitudes per member: the memory guard refuses the run
        # before anything is written
        out = tmp_path / "x.csv"
        assert run("fidelity", "--nq", "40", "--epsilon", "0.01",
                   "--out", str(out)) == 1
        assert "n_q=40 needs about" in capsys.readouterr().err
        assert not out.exists()

    def test_p0_without_theta0_rejected(self, tmp_path):
        # without theta0 every packet gets a random center, so a p0
        # would be recorded in the header but never used; a random
        # state has no center, so it would use neither
        out = str(tmp_path / "x.csv")
        assert run("fidelity", "--nq", "4", "--p0", "0.3", "--out", out) == 1
        for command in ("fidelity", "scattering"):
            for center in (("--theta0", "1.0"), ("--p0", "0.3")):
                assert run(command, "--nq", "4", "--initial", "random",
                           *center, "--tmax", "5", "--out", out) == 1
        assert not (tmp_path / "x.csv").exists()
        assert run("fidelity", "--nq", "4", "--p0", "0.3", "--theta0", "1.0",
                   "--tmax", "5", "--out", out) == 0

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
        ("--deltaK", "0.05", "--initial", "random")])
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

    @pytest.mark.parametrize("line", [
        "epsilom = 9", "out = other.csv", "shots = 10", "tmax = ten"])
    def test_config_key_not_read_rejected(self, tmp_path, line):
        # a misspelt key, a key the header never holds, an option of
        # another command and a value of the wrong type
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nq = 4\ntmax = 5\n" + line + "\n")
        out = tmp_path / "x.csv"
        assert run("fidelity", "--config", str(cfg), "--out", str(out)) == 1
        assert not out.exists()


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

    def test_empty_grid_rejected(self, tmp_path):
        # an empty list would write a header whose empty value reads
        # back as the default grid
        out = tmp_path / "grid.csv"
        assert run("tf-scan", "--nq", ",", "--out", str(out)) == 1
        assert run("rate-vs-k", "--K", "", "--out", str(out)) == 1
        assert not out.exists()

    def test_zero_epsilon_is_a_config_error(self, tmp_path, capsys):
        # both sweeps scale their step counts as 1 / epsilon^2; a zero
        # anywhere in the grid is refused before any point runs
        out = tmp_path / "sweep.csv"
        for argv in (("tf-scan", "--nq", "4", "--epsilon", "0.05,0"),
                     ("rate-vs-k", "--K", "0.5", "--nq", "4",
                      "--epsilon", "0")):
            assert run(*argv, "--ensemble", "2", "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert "config error: epsilon must be > 0" in err
        assert not out.exists()

    def test_underflowing_epsilon_is_a_config_error(self, tmp_path, capsys):
        # epsilon^2 underflows to 0, so no step count follows from it:
        # refused as a config error rather than a traceback
        out = tmp_path / "tf.csv"
        assert run("tf-scan", "--nq", "4", "--epsilon", "1e-170",
                   "--ensemble", "2", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "config error: epsilon = 1e-170 is too small for a sweep: "
            "its decay rate per step underflows to 0"]
        assert not out.exists()

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

    def test_rate_vs_k_unfittable_points_still_written(self, tmp_path, capsys):
        # three steps leave too few points in the fit window: every
        # point is written with a NaN rate and the exit code says so
        out = tmp_path / "rates.csv"
        code = run("rate-vs-k", "--K", "0.5,1.0", "--nq", "4",
                   "--epsilon", "0.01", "--ensemble", "2", "--tmax", "3",
                   "--out", str(out), "--no-timestamp")
        assert code == 2
        rows = data_rows(out)
        assert len(rows) == 6
        assert all(r[2] == "nan" and r[3] == "nan" for r in rows)
        assert "no grid point could be fitted" in capsys.readouterr().err


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
        # one row per noisy gate: n_g = 3 n_q^2 + n_q
        assert len(rows) == 3 * 36 + 6

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


# one small run of every command that writes a CSV
CSV_COMMANDS = {
    "poincare": ("poincare", "--K", "-1.0", "--tmax", "3"),
    "tf-scan": ("tf-scan", "--nq", "4,5", "--epsilon", "0.05", "--K", "5",
                "--ensemble", "3"),
    "rate-vs-k": ("rate-vs-k", "--K", "0.5,-0.5", "--nq", "4",
                  "--epsilon", "0.1", "--ensemble", "3", "--tmax", "30"),
    "circuit-check": ("circuit-check", "--nq", "3", "--K", "0.3"),
    "fidelity": ("fidelity", "--nq", "4", "--deltaK", "0.05",
                 "--theta0", "2.0", "--tmax", "12", "--ensemble", "3",
                 "--seed", "4"),
}


@pytest.mark.parametrize("stamp", [(), ("--no-timestamp",)],
                         ids=["written", "no-timestamp"])
@pytest.mark.parametrize("argv", list(CSV_COMMANDS.values()),
                         ids=list(CSV_COMMANDS))
def test_every_csv_header_reruns(tmp_path, argv, stamp):
    # the header, comment markers stripped, is a config file that
    # reruns the command; a timestamp line in it is skipped
    first = tmp_path / "first.csv"
    assert run(*argv, "--out", str(first), *stamp) == 0
    lines = first.read_text(encoding="utf-8").splitlines(keepends=True)
    cfg = tmp_path / "rerun.cfg"
    cfg.write_text("".join(ln[2:] for ln in lines if ln.startswith("# ")))
    second = tmp_path / "second.csv"
    assert run(argv[0], "--config", str(cfg), "--out", str(second),
               "--no-timestamp") == 0
    expected = [ln for ln in lines if not ln.startswith("# written = ")]
    assert second.read_text(encoding="utf-8") == "".join(expected)


class TestParser:
    def test_missing_subcommand(self):
        assert run() == 1

    def test_unknown_subcommand(self):
        assert run("teleport") == 1

    def test_unknown_flag(self):
        assert run("lyapunov", "--banana", "1") == 1

    @pytest.mark.parametrize("argv", [
        ("rate-vs-k", "--regime", "static"),
        ("rate-vs-k", "--initial", "random"),
        ("lyapunov", "--nq", "4"),
        ("lyapunov", "--epsilon", "5"),
        ("poincare", "--seed", "1"),
        ("circuit-check", "--shots", "10"),
        ("scattering", "--ensemble", "5")])
    def test_flag_of_another_command_rejected(self, tmp_path, argv):
        # every flag a command accepts is one it reads; the small sizes
        # keep a run short should the flag be accepted after all
        small = {"rate-vs-k": ("--K", "0.5", "--nq", "3", "--ensemble", "1",
                               "--tmax", "3"),
                 "poincare": ("--tmax", "2"), "circuit-check": ("--nq", "2")}
        out = tmp_path / "x.csv"
        assert run(*argv, *small.get(argv[0], ()), "--out", str(out)) == 1
        assert not out.exists()
