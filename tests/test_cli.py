"""End-to-end CLI tests via subprocess."""

import csv
import subprocess
import sys

import pytest


def ga(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "gacalc", *args],
        input=stdin, capture_output=True, text=True, timeout=120)


def test_single_expression():
    r = ga("-e", "e1 e2 + 1")
    assert r.returncode == 0
    assert r.stdout == "1 + 1*e12\n"
    assert r.stderr == ""


def test_default_algebra_is_three_zero():
    r = ga("-e", "e1 e1")
    assert r.stdout == "1\n"
    assert ga("-e", "e3").returncode == 0
    assert ga("-e", "e4").returncode == 1


def test_algebra_option():
    r = ga("--algebra", "1,3", "-e", "e2 e2")
    assert r.returncode == 0
    assert r.stdout == "-1\n"
    r = ga("--algebra", "0,0", "-e", "2 + 3")
    assert r.stdout == "5\n"
    assert ga("--algebra", "nope", "-e", "1").returncode == 2


def test_tolerance_option():
    r = ga("--tolerance", "1e-3", "-e", "0.0001 + e1 e1")
    assert r.stdout == "1\n"
    r = ga("-e", "0.0001 + e1 e1")
    assert r.stdout == "1.0001\n"


def test_parse_error_exit_code():
    r = ga("-e", "e1 +")
    assert r.returncode == 1
    assert r.stdout == ""
    assert "parse error:" in r.stderr
    assert "offset" in r.stderr


def test_parse_error_offset_is_into_the_line_as_written(tmp_path):
    script = tmp_path / "demo.ga"
    for line, offset in ((":let a = e1 + +", 14), ("  e1 + +", 7)):
        script.write_text(line + "\n")
        r = ga(str(script))
        assert r.returncode == 1
        assert r.stdout == ""
        assert f"(offset {offset})" in r.stderr
    r = ga("-e", "e1 + +")
    assert r.returncode == 1
    assert "(offset 5)" in r.stderr


def test_eval_error_exit_code():
    r = ga("-e", "inv(0)")
    assert r.returncode == 2
    assert "error:" in r.stderr
    r = ga("-e", "nope + 1")
    assert r.returncode == 2
    assert "unknown variable" in r.stderr


def test_script_file(tmp_path):
    script = tmp_path / "demo.ga"
    script.write_text(
        "# comment lines and blanks are skipped\n"
        "\n"
        ":let a = e1 + e2\n"
        "a | a\n"
        ":algebra 2,0\n"
        "e1 e2\n")
    r = ga(str(script))
    assert r.returncode == 0
    assert r.stdout == "2\n1*e12\n"


def test_script_flag_equivalent(tmp_path):
    script = tmp_path / "demo.ga"
    script.write_text("1 + 1\n")
    assert ga("--script", str(script)).stdout == "2\n"
    assert ga(str(script), "--script", str(script)).returncode == 2


def test_script_error_reports_line(tmp_path):
    script = tmp_path / "demo.ga"
    script.write_text("1 + 1\ne9\n")
    r = ga(str(script))
    assert r.returncode == 1
    assert r.stdout == "2\n"  # output up to the failing line is kept
    assert f"{script}:2: parse error:" in r.stderr


def test_missing_script():
    r = ga("/no/such/file.ga")
    assert r.returncode == 2


def test_algebra_switch_clears_variables(tmp_path):
    script = tmp_path / "demo.ga"
    script.write_text(
        ":let a = e1\n"
        ":algebra 3,0\n"
        "a\n")
    r = ga(str(script))
    assert r.returncode == 2
    assert "unknown variable" in r.stderr


def test_let_rejects_basis_names(tmp_path):
    script = tmp_path / "demo.ga"
    script.write_text(":let e1 = 2\n")
    r = ga(str(script))
    assert r.returncode == 1
    assert "reserved" in r.stderr


def test_quit_stops_a_script(tmp_path):
    script = tmp_path / "demo.ga"
    script.write_text("1\n:quit\n2\n")
    r = ga(str(script))
    assert r.returncode == 0
    assert r.stdout == "1\n"


def test_unknown_command(tmp_path):
    script = tmp_path / "demo.ga"
    script.write_text(":frobnicate\n")
    r = ga(str(script))
    assert r.returncode == 1


def test_repl_round_trip():
    r = ga(stdin="e1 e2\n:quit\n")
    assert r.returncode == 0
    assert "1*e12" in r.stdout
    assert r.stdout.count("ga> ") == 2


def test_repl_keeps_going_after_errors():
    r = ga(stdin="e9\n1 + 1\n")
    assert r.returncode == 0  # EOF ends the loop cleanly
    assert "parse error:" in r.stderr
    assert "2" in r.stdout


def test_repl_variables_persist():
    r = ga(stdin=":let r = 1 - e12\nr e1 inv(r)\n")
    assert r.returncode == 0
    assert "1*e2" in r.stdout
    r = ga(stdin=":let r = 1 - e12\nr e1 * inv(r)\n")
    assert "1*e2" in r.stdout


# -- kepler subcommand ----------------------------------------------------------

def kepler_rows(*args):
    r = ga("kepler", *args)
    assert r.returncode == 0, r.stderr
    return list(csv.reader(r.stdout.splitlines()))


def test_kepler_csv_to_stdout():
    rows = kepler_rows("--steps", "100")
    assert rows[0] == ["t", "rx", "ry", "rz", "vx", "vy", "vz",
                       "L_yz", "L_zx", "L_xy", "ex", "ey", "ez", "E"]
    assert len(rows) == 102  # header + initial state + 100 records
    first = rows[1]
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
    # circular default orbit: L_xy = 1, E = -1/2 throughout
    for row in rows[1:]:
        assert float(row[9]) == pytest.approx(1.0, abs=1e-9)
        assert float(row[13]) == pytest.approx(-0.5, abs=1e-9)


def test_kepler_record_every():
    rows = kepler_rows("--steps", "100", "--record-every", "40")
    # initial, steps 40 and 80, and the final state
    assert [float(r[0]) for r in rows[1:]] == pytest.approx(
        [0.0, 40e-4, 80e-4, 100e-4])


def test_kepler_csv_file(tmp_path):
    out = tmp_path / "orbit.csv"
    r = ga("kepler", "--steps", "10", "--csv", str(out))
    assert r.returncode == 0
    assert r.stdout == ""
    rows = list(csv.reader(out.read_text().splitlines()))
    assert len(rows) == 12


def test_kepler_rejects_bad_input():
    r = ga("kepler", "--r0", "0,0,0")
    assert r.returncode == 2
    assert "error:" in r.stderr
    assert ga("kepler", "--r0", "1,2").returncode == 2
    assert ga("kepler", "--m", "-1").returncode == 2
    assert ga("kepler", "--dt", "0").returncode == 2


def test_kepler_collision_guard():
    r = ga("kepler", "--v0", "-1,0,0", "--dt", "0.001", "--steps", "2000",
           "--min-radius", "0.5")
    assert r.returncode == 2
    assert "radius" in r.stderr or "collision" in r.stderr
