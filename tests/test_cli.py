import json
import math

import pytest

from blochpulse.bounded import landmarks
from blochpulse.cli import main

QUARTER = math.pi / 2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynthesizeCommand:
    def test_two_switch_reference(self, capsys, tmp_path):
        out_path = tmp_path / "ex1.json"
        code, out, _ = run(
            capsys,
            "synthesize", "--m", "2", "--target", "pi", "--r-final", "0.39",
            "--out", str(out_path),
        )
        assert code == 0
        assert "regime: two" in out
        raw = json.loads(out_path.read_text())
        assert raw["theta1"] == pytest.approx(0.6912, abs=1e-3)
        assert raw["theta2"] == pytest.approx(1.7766, abs=1e-3)
        assert raw["kappa"] == pytest.approx(2.2382, abs=1e-3)

    def test_json_to_stdout(self, capsys):
        code, out, _ = run(
            capsys,
            "synthesize", "--m", "inf", "--target", "pi2", "--r-final", "0.6",
            "--json",
        )
        assert code == 0
        raw = json.loads(out)
        assert raw["m"] is None
        assert raw["kappa"] == pytest.approx(1.875)

    def test_unreachable_exit_code(self, capsys):
        code, _, err = run(
            capsys, "synthesize", "--m", "2", "--target", "pi", "--r-final", "0.5"
        )
        assert code == 2
        # the limiting radius is printed for re-targeting
        assert format(landmarks(2.0).r_c1, ".5g")[:6] in err

    def test_small_bound_exit_code(self, capsys):
        code, _, err = run(
            capsys, "synthesize", "--m", "0.4", "--target", "pi", "--r-final", "0.3"
        )
        assert code == 1
        assert "bound" in err.lower()

    def test_bad_radius_exit_code(self, capsys):
        code, _, _ = run(
            capsys, "synthesize", "--m", "2", "--target", "pi", "--r-final", "1.5"
        )
        assert code == 1

    def test_usage_error_exit_code(self, capsys):
        code, _, _ = run(capsys, "synthesize", "--m", "2", "--target", "pi/4",
                         "--r-final", "0.5")
        assert code == 1
        code, _, _ = run(capsys, "synthesize")
        assert code == 1

    def test_byte_identical_outputs(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            run(
                capsys,
                "synthesize", "--m", "0.95", "--target", "pi2", "--r-final", "0.2",
                "--out", str(path),
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestSimulateCommand:
    def test_trajectory_csv_and_summary(self, capsys, tmp_path):
        pulse = tmp_path / "pulse.json"
        run(
            capsys,
            "synthesize", "--m", "inf", "--target", "pi2", "--r-final", "0.6",
            "--out", str(pulse),
        )
        csv_path = tmp_path / "run.csv"
        code, out, _ = run(
            capsys,
            "simulate", "--pulse", str(pulse), "--step", "1e-3",
            "--csv", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,theta,a,r,u,lambda_theta,hamiltonian"
        final_r = float(out.split("final r: ")[1].splitlines()[0])
        assert final_r == pytest.approx(0.6, abs=1e-3)
        energy = float(out.split("simulated energy: ")[1].splitlines()[0])
        assert energy == pytest.approx(1.5625, abs=1e-4)

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_step_exit_code(self, capsys, tmp_path, step):
        pulse = tmp_path / "pulse.json"
        run(
            capsys,
            "synthesize", "--m", "inf", "--target", "pi2", "--r-final", "0.6",
            "--out", str(pulse),
        )
        code, out, err = run(capsys, "simulate", "--pulse", str(pulse), "--step", step)
        assert code == 1
        assert out == ""
        assert "finite and positive" in err

    def test_missing_file_exit_code(self, capsys, tmp_path):
        code, _, _ = run(capsys, "simulate", "--pulse", str(tmp_path / "absent.json"))
        assert code == 1

    def test_impossible_switching_angle_exit_code(self, capsys, tmp_path, example2):
        raw = json.loads(example2.to_json())
        raw["theta1"] = 5.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code, out, err = run(capsys, "simulate", "--pulse", str(bad))
        assert code == 1
        assert out == ""
        assert err.startswith("error: theta1")

    def test_malformed_file_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"regime": "two"}')
        code, _, _ = run(capsys, "simulate", "--pulse", str(bad))
        assert code == 1

    @pytest.mark.parametrize("energy", ["0", "-1", "NaN"])
    def test_non_positive_energy_exit_code(self, capsys, tmp_path, energy):
        # the energy divides the reported deviation
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"m": null, "target": {"r": 0.6, "theta": "pi/2"}, "regime": "none", '
            f'"kappa": 1.875, "theta1": null, "theta2": null, "energy": {energy}}}'
        )
        code, out, err = run(capsys, "simulate", "--pulse", str(bad))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestCurvesCommand:
    def test_stdout_csv(self, capsys):
        code, out, _ = run(capsys, "curves", "--m", "2", "--samples", "20")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "curve,theta,r"
        names = {line.split(",")[0] for line in lines[1:]}
        assert names == {"first", "second", "boundary", "noswitch_max"}

    def test_csv_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "curves.csv"
        _, out, _ = run(capsys, "curves", "--m", "2", "--samples", "20")
        code, file_out, _ = run(
            capsys, "curves", "--m", "2", "--samples", "20", "--csv", str(path)
        )
        assert code == 0
        assert file_out == ""
        assert path.read_bytes() == out.encode()

    def test_join_point(self, capsys):
        code, out, _ = run(capsys, "curves", "--m", "2", "--samples", "10")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        first_end = [row for row in rows if row[0] == "first"][-1]
        second_start = [row for row in rows if row[0] == "second"][0]
        lm = landmarks(2.0)
        assert float(first_end[1]) == pytest.approx(lm.theta_b, rel=1e-9)
        assert float(first_end[2]) == pytest.approx(lm.r_b, rel=1e-9)
        assert second_start[1:] == first_end[1:]

    def test_gap_below_unit_bound(self, capsys):
        code, out, _ = run(capsys, "curves", "--m", "0.95", "--samples", "10")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        first_end = [row for row in rows if row[0] == "first"][-1]
        second_start = [row for row in rows if row[0] == "second"][0]
        assert float(second_start[1]) > float(first_end[1])

    def test_small_bound_rejected(self, capsys):
        code, _, _ = run(capsys, "curves", "--m", "0.3")
        assert code == 1

    def test_unlimited_bound_rejected(self, capsys):
        code, out, err = run(capsys, "curves", "--m", "inf")
        assert code == 1
        assert out == ""
        assert "finite control bound" in err

    def test_bound_whose_square_overflows_rejected(self, capsys):
        code, out, err = run(capsys, "curves", "--m", "1e200")
        assert code == 1
        assert out == ""
        assert "square overflows" in err

    def test_bound_whose_switching_curve_overflows_rejected(self, capsys):
        # the exit curve at theta = pi needs the entry curve near theta = 0,
        # whose kappa^2 overflows from about m = 1.6e138
        code, out, err = run(capsys, "curves", "--m", "2e138", "--samples", "5")
        assert code == 1
        assert out == ""
        assert "m=2e+138" in err
        assert "too large" in err


class TestLandmarksCommand:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "landmarks", "--m", "2", "--json")
        assert code == 0
        raw = json.loads(out)
        assert raw["r_C2"] == pytest.approx(1.0 / 3.0, rel=1e-11)
        assert raw["r_C1"] == pytest.approx(math.exp(-math.pi / math.sqrt(15.0)), rel=1e-11)

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "landmarks", "--m", "0.95")
        assert code == 0
        assert "r_B1:" in out and "r_D2:" in out

    @pytest.mark.parametrize("form", [[], ["--json"]])
    def test_unlimited_bound_rejected(self, capsys, form):
        code, out, err = run(capsys, "landmarks", "--m", "inf", *form)
        assert code == 1
        assert out == ""
        assert "finite control bound" in err

    @pytest.mark.parametrize("form", [[], ["--json"]])
    def test_bound_whose_square_overflows_rejected(self, capsys, form):
        # the closed forms gave r_D2 = nan, which --json wrote as a bare nan
        code, out, err = run(capsys, "landmarks", "--m", "1e200", *form)
        assert code == 1
        assert out == ""
        assert "square overflows" in err


class TestVerifyCommand:
    def test_valid_program_passes(self, capsys, tmp_path, example2):
        pulse = tmp_path / "ex2.json"
        example2.save(pulse)
        code, out, _ = run(capsys, "verify", "--pulse", str(pulse), "--json")
        assert code == 0
        raw = json.loads(out)
        assert set(raw) == {"max_abs_H", "adjoint_residual", "lambda_excess_ok", "oracle"}
        assert raw["max_abs_H"] < 1e-8
        assert raw["adjoint_residual"] < 1e-4
        assert raw["lambda_excess_ok"] is True
        assert raw["oracle"] is None

    def test_corrupted_program_fails(self, capsys, tmp_path, example2):
        raw = json.loads(example2.to_json())
        # lowering kappa pushes the saturated-arc costate below the bound
        raw["kappa"] -= 1e-2
        pulse = tmp_path / "broken.json"
        pulse.write_text(json.dumps(raw))
        code, out, _ = run(capsys, "verify", "--pulse", str(pulse), "--step", "1e-3")
        assert code == 3


class TestOracleCommand:
    def test_small_search(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle", "--m", "2", "--target", "pi2", "--r-final", "0.61",
            "--grid", "60", "--evals", "3000", "--seed", "3", "--restarts", "0",
            "--json",
        )
        assert code == 0
        raw = json.loads(out)
        assert raw["oracle"]["endpoint_error"] <= 1e-3
        assert raw["oracle"]["best_energy"] >= raw["synthesized_energy"] - 1e-2

    def test_no_convergence_exit_code(self, capsys):
        # one evaluation: the warm start alone stays far from the target
        code, out, err = run(
            capsys,
            "oracle", "--m", "2", "--target", "pi", "--r-final", "0.39",
            "--grid", "20", "--evals", "1",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("oracle did not converge:")


@pytest.mark.parametrize(
    "command",
    [
        ["synthesize", "--target", "pi", "--r-final", "0.39"],
        ["curves"],
        ["landmarks"],
        ["oracle", "--target", "pi", "--r-final", "0.39"],
    ],
)
def test_bad_bound_is_an_argparse_error(capsys, command):
    code, out, err = run(capsys, *command, "--m", "abc")
    assert code == 1
    assert out == ""
    assert f"blochpulse {command[0]}: error: argument --m: invalid control bound 'abc'" in err


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("samples = 7\n# comment line\nm = 2\n")
        code, out, _ = run(capsys, "curves", "--m", "2", "--config", str(config))
        assert code == 0
        assert len(out.splitlines()) == 1 + 4 * 7
        for flag in (["--samples", "5"], ["--samples=5"]):
            code, out, _ = run(capsys, "curves", "--m", "2", "--config", str(config), *flag)
            assert len(out.splitlines()) == 1 + 4 * 5

    def test_value_typed_by_its_flag(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("samples = abc\n")
        code, out, err = run(capsys, "curves", "--m", "2", "--config", str(config))
        assert code == 1
        assert out == ""
        assert "invalid int value: 'abc'" in err

    def test_json_switch_reads_words(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        for word, is_json in (("yes", True), ("on", True), ("0", False), ("false", False)):
            config.write_text(f"json = {word}\n")
            code, out, _ = run(capsys, "landmarks", "--m", "2", "--config", str(config))
            assert code == 0
            assert out.startswith("{") is is_json

    def test_other_subcommand_key_skipped(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("evals = 10\nsamples = 3\n")
        code, out, _ = run(capsys, "curves", "--m", "2", "--config", str(config))
        assert code == 0
        assert len(out.splitlines()) == 1 + 4 * 3

    def test_unknown_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("volume = 11\n")
        code, _, _ = run(capsys, "curves", "--m", "2", "--config", str(config))
        assert code == 1

    def test_line_without_equals_rejected(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("samples = 7\nsamples 7\n")
        code, out, err = run(capsys, "curves", "--m", "2", "--config", str(config))
        assert code == 1
        assert out == ""
        assert f"{config}:2: expected key=value" in err
