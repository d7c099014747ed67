import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from orthoentropy import asymptotics, cli
from orthoentropy.cli import main
from orthoentropy.entropy import chebyshev_distribution_entropy

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

    @pytest.mark.parametrize("record", [
        '{"alpha": 0.5, "beta": 0.5, "logh_cheb": "12"}',
        '{"alpha": 0.5, "beta": 0.5, "logh": [0, 1]}',
        '{"alpha": true, "beta": 0.5}',
        '{"alpha": 0.5, "beta": 0.5, "logh_cheb": [0, "1"]}',
        '{"alpha": 1' + "0" * 400 + ', "beta": 0.5}',
    ], ids=["logh_string", "misspelt_key", "alpha_bool", "logh_string_entry", "alpha_huge_int"])
    def test_weight_file_outside_schema_exits_2(self, capsys, tmp_path, record):
        path = tmp_path / "weight.json"
        path.write_text(record)
        code, out, err = run_cli(capsys, "entropy", "--weight", str(path), "--x", "0.3", "--n", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("config error: invalid weight record: ") and err.count("\n") == 1

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

    def test_large_logh_coeffs_resolved(self, capsys):
        # h spans about 10^164: rules of 1000, 1600 and 3000 nodes all give
        # 3.4472124307842 within 3e-15
        code, out, _ = run_cli(
            capsys, "entropy", "--x", "0.3", "--n", "50", "--alpha=0", "--beta=0",
            "--logh-coeffs", "0,150,-100",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert abs(float(rows[0][2]) - 3.4472124307842) < 1e-12

    # h overflows at one end of the interval; in the last case log h does
    @pytest.mark.parametrize("coeffs", ["0,800", "0,-800", "0,1e308,1e308"])
    def test_numeric_failure_exits_3(self, capsys, coeffs):
        code, _, err = run_cli(
            capsys, "entropy", "--alpha", "0", "--beta", "0",
            "--logh-coeffs", coeffs, "--x", "0.2", "--n", "30",
        )
        assert code == 3
        assert "numeric error" in err
        assert err.count("\n") == 1

    # p_k(0.99)^2 passes 1e308 below n = 5000 when alpha = 300
    @pytest.mark.parametrize("argv", [
        ["entropy", "--x", "0.99"],
        ["scan", "--x-grid=0.98:0.99:0.01"],
    ])
    def test_overflow_of_squares_exits_3(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--n", "5000", "--alpha", "300")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("numeric error: p_k(x)^2 overflows at x = ")

    # 2^(alpha+beta+1) B(alpha+1, beta+1) passes 1e308; the last case
    # reaches it through the Gauss rule of the Stieltjes procedure
    @pytest.mark.parametrize("argv", [
        ["entropy", "--x", "0.3", "--alpha=1030"],
        ["scan", "--x-grid=0.1:0.3:0.1", "--beta=1e10"],
        ["entropy", "--x", "0.3", "--alpha=2000", "--logh-coeffs", "0,1"],
    ])
    def test_jacobi_mass_overflow_exits_3(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--n", "20")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("numeric error: the mass ")

    def test_recurrence_overflow_exits_3(self, capsys):
        # (alpha + beta + 2)^2 passes 1e308 in b[1]; the mass does not overflow
        code, out, err = run_cli(capsys, "entropy", "--x", "0.3", "--n", "10",
                                 "--alpha=1e160", "--beta=1e160")
        assert code == 3
        assert out == ""
        assert err == "numeric error: recurrence coefficients must be finite\n"

    def test_heavy_exponent_with_h_runs(self, capsys):
        # a heavy exponent with a large h: the default Stieltjes rule has
        # 437 nodes (d_h = 66)
        code, out, err = run_cli(capsys, "entropy", "--x=0.0", "--n", "289", "--alpha=0.0",
                                 "--beta=236.0", "--logh-coeffs=0.0,72.0")
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert math.isfinite(float(rows[0][2]))

    def test_heavy_exponent_h_of_one_prints_jacobi_rows(self, capsys):
        # h = exp(1e-300 T_1) is 1 in doubles; the Stieltjes rule at n = 4000
        # has 229 nodes whose weights lie below the smallest double
        argv = ["entropy", "--alpha=0", "--beta=200", "--x", "0.3",
                "--n-schedule", "500,1000,2000,4000"]
        code, out, err = run_cli(capsys, *argv, "--logh-coeffs", "0,1e-300")
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        _, reference = parse_csv(run_cli(capsys, *argv)[1])
        assert [row[:2] for row in rows] == [row[:2] for row in reference]
        assert len(rows) == 4
        for row, ref in zip(rows, reference):
            for column in (2, 3):
                assert abs(float(row[column]) - float(ref[column])) < 1e-12

    def test_grid_rows_match_point_rows(self, capsys):
        # the grid source (vector recurrence) against the single-point source
        weight = ["--alpha=0.3", "--beta=-0.4", "--n-schedule", "1,7,300"]
        code, out, _ = run_cli(capsys, "entropy", "--x-grid=-0.9:0.9:0.45", *weight)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 15
        for row in rows:
            _, point = parse_csv(run_cli(capsys, "entropy", "--x", row[1], *weight)[1])
            (match,) = [r for r in point if r[0] == row[0]]
            assert abs(float(row[2]) - float(match[2])) < 1e-14

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


BIG_K = "1" + "0" * 400
# theta = pi s/k rounds to pi, and overflows to inf
ANGLE_PI = "1152921504606846975/1152921504606846976"
ANGLE_INF = f"{10 ** 308}/{10 ** 308 + 1}"
NONFINITE_GRIDS = ("0:0.5:inf", "0:inf:0.1", "-inf:0.5:0.1", "nan:0.5:0.1", "0:nan:0.1",
                   "0:0.5:nan")


class TestExitCodes:
    # the exit code follows from the type: ValueError while the input is
    # turned into objects exits 2, NumericError while a command runs exits 3
    @pytest.mark.parametrize("argv", [
        pytest.param(["entropy", "--theta", "1e-20", "--n", "10"], id="theta_rounds_to_x_1"),
        pytest.param(["entropy", "--angle", "1/100000000000", "--n", "10"],
                     id="angle_rounds_to_x_1"),
        pytest.param(["limit", "--angle", f"1/{BIG_K}"], id="limit_big_k"),
        pytest.param(["entropy", "--angle", f"1/{BIG_K}", "--n", "10"], id="entropy_big_k"),
        pytest.param(["zeros", "--kind", "U", "--subsequence", "2", "--angle", f"1/{BIG_K}"],
                     id="family2_big_k"),
        pytest.param(["zeros", "--kind", "T", "--subsequence", "4", "--angle", f"1/{BIG_K}"],
                     id="family4_big_k"),
        # sizes and point counts that numpy cannot index
        pytest.param(["zeros", "--kind", "T", "--n", str(10 ** 400)], id="zeros_n_10e400"),
        pytest.param(["scan", "--x-grid=-1e308:1e308:1", "--n", "5"], id="grid_span_inf"),
        pytest.param(["entropy", "--x", "0.3", "--n-schedule", f"10,{10 ** 30}"],
                     id="schedule_10e30"),
        pytest.param(["verify", "--n", str(10 ** 30)], id="verify_n_10e30"),
        pytest.param(["scan", "--x-grid=0:0.5:1e-300", "--n", "5"], id="grid_count_5e299"),
        pytest.param(["zeros", "--kind", "U", "--subsequence", "4", "--angle", "1/3",
                      "--count", str(10 ** 30)], id="count_10e30"),
        # angles whose theta does not round into (0, pi)
        pytest.param(["limit", "--angle", ANGLE_PI], id="limit_theta_rounds_to_pi"),
        pytest.param(["zeros", "--kind", "T", "--subsequence", "4", "--angle", ANGLE_PI,
                      "--count", "1"], id="family4_theta_rounds_to_pi"),
        pytest.param(["limit", "--angle", ANGLE_INF], id="limit_theta_inf"),
        pytest.param(["entropy", "--n", "5", "--angle", ANGLE_INF], id="entropy_theta_inf"),
        # a grid field that is not finite
        *(pytest.param(["scan", f"--x-grid={grid}", "--n", "3"], id=f"grid_{grid}")
          for grid in NONFINITE_GRIDS),
    ])
    def test_config_error_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("grid", NONFINITE_GRIDS)
    def test_nonfinite_grid_names_the_cause(self, capsys, grid):
        _, _, err = run_cli(capsys, "scan", f"--x-grid={grid}", "--n", "3")
        assert err == f"config error: --x-grid needs finite a, b and step, got {grid!r}\n"

    # an --out that cannot be written is a configuration error, not exit 1
    @pytest.mark.parametrize("argv, target", [
        pytest.param(["entropy", "--x", "0.1", "--n", "3"], "missing/dir/f.csv", id="entropy"),
        pytest.param(["verify", "--n", "64"], "missing/x", id="verify"),
        pytest.param(["limit", "--angle", "1/3"], ".", id="limit_to_directory"),
    ])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, argv, target):
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / target))
        assert code == 2
        assert out == ""
        assert err.startswith("config error: cannot write ") and err.count("\n") == 1

    # a stdout whose reader has gone is a configuration error too, with no traceback
    @pytest.mark.parametrize("argv", [
        pytest.param(["zeros", "--kind", "T", "--n", "3000"], id="zeros"),
        pytest.param(["limit", "--angle", "1/3"], id="limit"),
    ])
    def test_closed_stdout_exits_2(self, argv):
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen([sys.executable, "-m", "orthoentropy", *argv],
                                env={**os.environ, "PYTHONPATH": path},
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 2, err
        assert err.startswith("config error: cannot write stdout") and err.count("\n") == 1

    def test_numeric_failure_writes_no_file(self, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        code, _, _ = run_cli(capsys, "entropy", "--x", "0.3", "--n", "5",
                             "--logh-coeffs", "0,800", "--out", str(out))
        assert code == 3
        assert not out.exists()

    def test_other_errors_propagate(self, monkeypatch):
        # a ValueError while a command runs is a bug, not an exit code
        def broken(*args):
            raise ValueError("bug")

        monkeypatch.setattr(cli, "run_entropy", broken)
        with pytest.raises(ValueError, match="bug"):
            main(["entropy", "--x", "0.3", "--n", "3"])


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

    # the phase overflows to inf and then to nan
    @pytest.mark.parametrize("argv", [
        ["--angle", "46/64", "--alpha=1.1341413534751845e+308", "--beta=3.604360663812922e+305"],
        ["--angle", "3/84", "--alpha=1.4233388437930601e+308", "--beta=4.56"],
    ])
    def test_phase_overflow_exits_3(self, capsys, argv):
        code, out, err = run_cli(capsys, "limit", *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("numeric error: the phase at theta = ") and err.count("\n") == 1


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

    # direct is the entropy at the declared angle and diff is closed - direct, also
    # at row (2, 1), where closed and direct lie more than a factor 2 apart
    @pytest.mark.parametrize("family, theta, count", [
        ("3", "1.590120284", "58"),
        ("1", "1.5846981361103274", "33"),
        ("3", "1.6543245090653869", "50"),
    ])
    def test_subsequence_direct_is_entropy_at_angle(self, capsys, family, theta, count):
        code, out, _ = run_cli(capsys, "zeros", "--kind", "U", "--subsequence", family,
                               "--theta", theta, "--count", count)
        assert code == 0
        _, rows = parse_csv(out)
        for n, _, _, closed, direct, diff in rows:
            entropy = chebyshev_distribution_entropy("second", int(n), float(theta))
            assert direct == cli._csv_cell(entropy), n
            assert float(diff) == float(closed) - float(direct), n

    def test_subsequence_built_once(self, capsys, monkeypatch):
        spy = mock.Mock(wraps=cli.zero_subsequence)
        monkeypatch.setattr(cli, "zero_subsequence", spy)
        code, _, _ = run_cli(capsys, "zeros", "--kind", "U", "--subsequence", "4",
                             "--angle", "1/3", "--count", "5")
        assert code == 0
        assert spy.call_count == 1

    # each mode rejects the flags of the other
    @pytest.mark.parametrize("argv", [
        pytest.param(["--kind", "T", "--n", "2", "--angle", "1/3"], id="angle_without_family"),
        pytest.param(["--kind", "U", "--subsequence", "4", "--angle", "1/3", "--count", "2",
                      "--n", "500"], id="n_with_family"),
        pytest.param(["--kind", "T", "--n", "2", "--count", "7"], id="count_without_family"),
    ])
    def test_other_mode_flags_are_config_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, "zeros", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1

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

    def test_tol_flag_rejected(self):
        # every row prints against its own bound; there is no override
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--tol", "1e-3"])
        assert excinfo.value.code == 2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "512", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert all(check["passed"] for check in report["checks"])
