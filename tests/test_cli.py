import json
import math
from unittest import mock

import pytest

from orthoentropy import asymptotics
from orthoentropy.cli import main

LOG2 = math.log(2.0)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestEntropyCommand:
    def test_chebyshev_origin_row(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", "--x", "0", "--n", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "x", "shannon", "divergence", "d_infinity", "gap"]
        assert len(rows) == 1
        assert rows[0][0] == "3"
        assert abs(float(rows[0][2]) - (math.log(3.0) - 2.0 / 3.0 * LOG2)) < 1e-12
        assert rows[0][4] == "" and rows[0][5] == ""

    def test_legendre_schedule_gap_shrinks(self, capsys):
        code, out, _ = run_cli(
            capsys, "entropy", "--alpha", "0", "--beta", "0",
            "--angle", "1/2", "--n-schedule", "100,1000,10000",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3
        d_inf = [float(r[4]) for r in rows]
        assert all(abs(d - LOG2) < 1e-12 for d in d_inf)
        gaps = [abs(float(r[5])) for r in rows]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-4

    def test_invalid_alpha_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "entropy", "--alpha", "-1", "--x", "0", "--n", "3")
        assert code == 2
        assert "exceed -1" in err

    def test_conflicting_angle_flags(self, capsys):
        code, _, err = run_cli(
            capsys, "entropy", "--angle", "1/2", "--theta", "1.0", "--n", "3"
        )
        assert code == 2
        assert "not both" in err

    def test_requires_one_position_source(self, capsys):
        code, _, _ = run_cli(capsys, "entropy", "--n", "3")
        assert code == 2
        code, _, _ = run_cli(capsys, "entropy", "--n", "3", "--x", "0", "--angle", "1/2")
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "entropy", "--x", "0.3", "--n", "5", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1
        assert rows[0]["n"] == 5
        assert rows[0]["d_infinity"] is None

    def test_weight_file_with_inline_override(self, capsys, tmp_path):
        path = tmp_path / "weight.json"
        path.write_text(json.dumps({"alpha": 0.5, "beta": 0.5, "logh_cheb": []}))
        code, out, err = run_cli(
            capsys, "entropy", "--weight", str(path), "--alpha", "0.0", "--x", "0", "--n", "2"
        )
        assert code == 0
        assert "override" in err
        # alpha=0, beta=0.5 after the override; just confirm it ran on something
        assert len(parse_csv(out)[1]) == 1

    def test_missing_weight_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "entropy", "--weight", str(tmp_path / "nope.json"), "--x", "0", "--n", "2"
        )
        assert code == 2

    def test_non_increasing_schedule(self, capsys):
        code, _, err = run_cli(
            capsys, "entropy", "--x", "0", "--n-schedule", "100,100"
        )
        assert code == 2
        assert "increasing" in err

    def test_general_h_weight_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "entropy", "--alpha", "0", "--beta", "0",
            "--logh-coeffs", "0,1", "--x", "0.2", "--n", "50",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][3]) >= 0.0

    # h overflows at one end of the interval: the Stieltjes mass is inf
    @pytest.mark.parametrize("coeffs", ["0,800", "0,-800"])
    def test_numeric_failure_exits_3(self, capsys, coeffs):
        code, _, err = run_cli(
            capsys, "entropy", "--alpha", "0", "--beta", "0",
            "--logh-coeffs", coeffs, "--x", "0.2", "--n", "30",
        )
        assert code == 3
        assert "numeric error" in err
        assert err.count("\n") == 1

    # c_0 only scales h, so any constant log h prints the h = 1 rows
    @pytest.mark.parametrize("c0", ["-800", "-740", "709.5", "800"])
    def test_constant_logh_prints_unit_h_rows(self, capsys, c0):
        argv = ["entropy", "--x", "0.2", "--n", "50"]
        code, out, err = run_cli(capsys, *argv, f"--logh-coeffs={c0}")
        assert code == 0
        assert err == ""
        assert out == run_cli(capsys, *argv)[1]

    def test_zero_logh_coeffs_match_no_h(self, capsys):
        argv = ["entropy", "--alpha=0.3", "--beta=-0.4", "--x-grid=-0.6:0.6:0.3",
                "--n-schedule", "5,40"]
        code, out, _ = run_cli(capsys, *argv, "--logh-coeffs", "0,0")
        assert code == 0
        assert out == run_cli(capsys, *argv)[1]


class TestScanCommand:
    def test_deterministic_output(self, capsys, tmp_path):
        args = ["scan", "--x-grid=-0.6:0.6:0.3", "--n", "4"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().splitlines()
        assert lines[0] == "n,x,shannon,divergence,d_infinity,gap"
        assert len(lines) == 6

    def test_grid_outside_interval(self, capsys):
        code, _, _ = run_cli(capsys, "scan", "--x-grid=0.5:1.5:0.5", "--n", "4")
        assert code == 2


class TestLimitCommand:
    def test_rational_limit_row(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--angle", "2/5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "theta"
        row = rows[0]
        assert row[1] == "rational"
        assert (row[2], row[3]) == ("2", "5")
        d_inf = float(row[5])
        closed = float(row[6])
        assert abs(d_inf - closed) < 1e-10

    def test_irrational_limit_row(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--theta", "1.0")
        assert code == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert row[1] == "irrational"
        assert abs(float(row[5]) - (1.0 - LOG2)) < 1e-15
        assert row[6] == ""

    def test_rational_limit_computes_phase_shift_once(self, capsys, monkeypatch):
        spy = mock.Mock(wraps=asymptotics.phase_shift)
        monkeypatch.setattr(asymptotics, "phase_shift", spy)
        code, _, _ = run_cli(capsys, "limit", "--angle", "1/3", "--logh-coeffs", "0,1")
        assert code == 0
        assert spy.call_count == 1

    def test_constant_h_keeps_chebyshev_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "limit", "--angle", "1/3", "--alpha=-0.5", "--beta=-0.5",
            "--logh-coeffs", "0.3",
        )
        assert code == 0
        assert out == run_cli(capsys, "limit", "--angle", "1/3")[1]

    def test_requires_angle(self, capsys):
        code, _, _ = run_cli(capsys, "limit")
        assert code == 2


class TestZerosCommand:
    def test_per_zero_rows(self, capsys):
        code, out, _ = run_cli(capsys, "zeros", "--kind", "T", "--n", "4")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "j", "zero", "closed_form", "direct", "diff"]
        assert len(rows) == 4
        assert all(abs(float(r[5])) < 1e-10 for r in rows)

    def test_second_kind_subsequence_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "zeros", "--kind", "U", "--subsequence", "4",
            "--angle", "1/2", "--count", "20",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 20
        gaps = [abs(float(r[5])) for r in rows]
        assert max(gaps) < 1e-10

    def test_first_kind_odd_k_gap_bound(self, capsys):
        from orthoentropy.specfun import entropy_correction

        bound = 2.0 * entropy_correction(1.0 / 6.0) - entropy_correction(1.0 / 3.0)
        code, out, _ = run_cli(
            capsys, "zeros", "--kind", "T", "--subsequence", "4",
            "--angle", "1/3", "--count", "20",
        )
        assert code == 0
        _, rows = parse_csv(out)
        gaps = [float(r[5]) for r in rows[5:]]
        assert all(g < bound + 0.05 for g in gaps)
        assert bound < 0.0

    def test_subsequence_needs_angle(self, capsys):
        code, _, _ = run_cli(capsys, "zeros", "--kind", "U", "--subsequence", "4")
        assert code == 2

    # family 1 needs an irrational angle, 2 an even denominator, 4 a rational angle
    @pytest.mark.parametrize("family, angle", [
        pytest.param("1", ["--angle", "1/3"], id="family1"),
        pytest.param("2", ["--angle", "1/3"], id="family2"),
        pytest.param("4", ["--theta", "1.0"], id="family4"),
    ])
    def test_family_angle_mismatch_is_config_error(self, capsys, family, angle):
        code, out, err = run_cli(
            capsys, "zeros", "--kind", "U", "--subsequence", family, *angle,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_bad_kind_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["zeros", "--kind", "X", "--n", "4"])
        assert excinfo.value.code == 2


class TestVerifyCommand:
    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "512")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert "checks passed" in lines[-1]

    def test_corrupted_tolerance_fails(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "512", "--tol", "1e-300")
        assert code == 1
        assert "FAIL" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "512", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert all(check["passed"] for check in report["checks"])
