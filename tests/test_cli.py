import json
import math
import os
import subprocess
import sys

import pytest

from presslab.cli import _parse_points, load_config, main
from presslab.errors import ParseError
from presslab.systems import parse_system


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


ESTIMATE_CFG = """[run]
system = diag:2,3|3,2
potential = zero
kinds = amalgamated,condensed-upper,exhaustive-upper,free
depths = 3,6
epsilons = 0.125
seed = 0
threads = 1
"""

VERIFY_CFG = """system = diag:2,3|3,2
potential = zero
checks = chain,shift,lipschitz,lift
n = 3
epsilon = 0.125
seed = 0
threads = 1
"""


def test_load_config_parses_sections_and_values(tmp_path):
    path = write_cfg(tmp_path, "a.cfg", ESTIMATE_CFG)
    entries = load_config(path)
    assert entries["system"][0] == "diag:2,3|3,2"
    assert entries["depths"][0] == "3,6"


def test_load_config_rejects_duplicates(tmp_path):
    path = write_cfg(tmp_path, "dup.cfg", "n = 3\nn = 4\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_config(path)


def test_load_config_rejects_bare_lines(tmp_path):
    path = write_cfg(tmp_path, "bare.cfg", "system diag:2,3|3,2\n")
    with pytest.raises(ParseError):
        load_config(path)


def test_estimate_emits_csv_rows(tmp_path, capsys):
    path = write_cfg(tmp_path, "est.cfg", ESTIMATE_CFG)
    assert main(["estimate", "--config", path]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "kind,n,epsilon,lower,upper,cover_size,method,seed"
    # 4 kinds x 2 depths x 1 radius
    assert len(lines) == 9
    kinds = {row.split(",")[0] for row in lines[1:]}
    assert kinds == {"amalgamated", "condensed-upper", "exhaustive-upper",
                     "free"}


def test_estimate_rows_keep_lower_below_upper(tmp_path, capsys):
    path = write_cfg(tmp_path, "est.cfg", ESTIMATE_CFG)
    main(["estimate", "--config", path])
    for row in capsys.readouterr().out.strip().splitlines()[1:]:
        parts = row.split(",")
        assert float(parts[3]) <= float(parts[4]) + 1e-12


def test_empty_kinds_is_a_parse_error(tmp_path, capsys):
    path = write_cfg(tmp_path, "bad.cfg", """system = diag:2,3|3,2
kinds =
depths = 3
epsilons = 0.125
""")
    assert main(["estimate", "--config", path]) == 4


def test_unknown_system_family_is_a_parse_error(tmp_path):
    path = write_cfg(tmp_path, "bad.cfg", """system = moebius:2
kinds = free
depths = 3
epsilons = 0.125
""")
    assert main(["estimate", "--config", path]) == 4


@pytest.mark.parametrize("rule", ["periodic:1,3", "periodic:0,1",
                                  "constant:3", "explicit:1,2,-1"])
def test_rule_symbols_outside_the_alphabet_are_parse_errors(
        tmp_path, capsys, rule):
    path = write_cfg(tmp_path, "bad.cfg", """system = diag:2,3|3,2
kinds = trajectory
rule = %s
depths = 3
epsilons = 0.125
""" % rule)
    assert main(["estimate", "--config", path]) == 4
    assert capsys.readouterr().err == \
        "parse error: line 3: rule symbols must lie in 1..2\n"


@pytest.mark.parametrize("system,potential,epsilon", [
    ("diag:2,3|3,2", "zero", "0"),
    ("diag:2,3|3,2", "zero", "-0.1"),
    ("diag:2,3|3,2", "zero", "nan"),
    ("diag:2,3|3,2", "zero", "inf"),
    ("toral:0,1,1,2;2,1,1,0", "random:1", "-0.1"),
])
def test_invalid_radius_is_invalid_input(tmp_path, capsys, system,
                                         potential, epsilon):
    path = write_cfg(tmp_path, "bad.cfg", """system = %s
potential = %s
kinds = amalgamated
depths = 2
epsilons = %s
""" % (system, potential, epsilon))
    assert main(["estimate", "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: radius must be")


def test_radius_below_the_shift_grid_is_infeasible(tmp_path, capsys):
    # 2**-10 is the smallest shift cylinder the grid holds; below it no
    # grid point lies in its own ball
    path = write_cfg(tmp_path, "fine.cfg", """system = shift:2
potential = zero
rule = periodic:1,2
kinds = all
depths = 1
epsilons = 0.0009
""")
    assert main(["estimate", "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("infeasible: ")


def test_overflowing_potential_sums_are_invalid(tmp_path, capsys):
    # each step value is finite, but two of them sum past the float range
    path = write_cfg(tmp_path, "huge.cfg", """system = shift:2
potential = constants:1e308
rule = periodic:1,2
kinds = all
depths = 2
epsilons = 0.125
""")
    assert main(["estimate", "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: ")


@pytest.mark.parametrize("system,potential", [
    ("diag:2,3|3,2", "constants:nan"),
    ("diag:2,3|3,2", "constants:inf,0"),
    ("toral:0,1,1,2;2,1,1,0", "random:3,nan"),
    ("toral:0,1,1,2;2,1,1,0", "random:3,inf"),
])
def test_non_finite_potentials_are_parse_errors(tmp_path, capsys, system,
                                                potential):
    path = write_cfg(tmp_path, "bad.cfg", """system = %s
potential = %s
kinds = amalgamated
depths = 2
epsilons = 0.25
""" % (system, potential))
    assert main(["estimate", "--config", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: line 2: ")
    assert "must be finite" in captured.err


@pytest.mark.parametrize("measure", ["lebesgue",
                                     "bernoulli:0.5,0.5 x lebesgue"])
def test_shift_systems_take_no_measure(tmp_path, capsys, measure):
    path = write_cfg(tmp_path, "loc.cfg", """system = shift:2
measure = %s
points = sample:5
""" % measure)
    assert main(["localent", "--config", path]) == 4
    assert "line 2: shift systems take no" in capsys.readouterr().err


def test_shift_systems_take_no_float_points(tmp_path, capsys):
    path = write_cfg(tmp_path, "loc.cfg", """system = shift:2
measure = dirac:0.5
points = 0.5
""")
    assert main(["localent", "--config", path]) == 4
    assert "line 2: shift systems take no dirac point" in \
        capsys.readouterr().err
    with pytest.raises(ParseError, match="line 7: shift systems"):
        _parse_points("0.5", 7, parse_system("shift:2"))


def test_verify_standard_checks_pass(tmp_path, capsys):
    path = write_cfg(tmp_path, "ver.cfg", VERIFY_CFG)
    assert main(["verify", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "chain:" in out and "shift" in out and "lipschitz" in out
    assert "lift:" in out
    assert ",no," not in out


def test_verify_negative_tolerance_fails_checks(tmp_path):
    path = write_cfg(tmp_path, "ver.cfg", VERIFY_CFG)
    assert main(["verify", "--config", path, "--tolerance", "-1"]) == 2


def test_verify_separation_reports_distinguishable(tmp_path, capsys):
    path = write_cfg(tmp_path, "sep.cfg", """system = diag:4,5|2,6
system_b = diag:2,10|3,4
checks = separation
n = 6
epsilon = 0.0416666666666667
seed = 0
threads = 1
""")
    assert main(["verify", "--config", path]) == 0
    assert "distinguishable: yes" in capsys.readouterr().out


def test_verify_unknown_check_reports_the_checks_line(tmp_path, capsys):
    # the name is rejected before any check runs, at the line of `checks`
    path = write_cfg(tmp_path, "bad.cfg", """system = diag:2,3|3,2
checks = chain,bogus
n = 3
epsilon = 0.125
""")
    assert main(["verify", "--config", path]) == 4
    assert capsys.readouterr().err == \
        "parse error: line 2: unknown check 'bogus'\n"
    path = write_cfg(tmp_path, "bad2.cfg", """system = diag:2,3|3,2
checks = bogus
""")
    assert main(["verify", "--config", path]) == 4
    assert "line 2: unknown check 'bogus'" in capsys.readouterr().err


def test_dimension_json_document(tmp_path, capsys):
    path = write_cfg(tmp_path, "dim.cfg", """system = cantor:3,3
n = 96
epsilon = 0.125
seed = 0
""")
    assert main(["dimension", "--config", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "dimension"
    assert abs(doc["t_uA"] - math.log(2) / math.log(3)) <= 0.02
    assert doc["bracket"][0] <= doc["t_uA"] <= doc["bracket"][1]
    assert doc["per_map_roots"] == [doc["t_uA"]]


def test_localent_lebesgue_table(tmp_path, capsys):
    path = write_cfg(tmp_path, "loc.cfg", """system = diag:2,3|3,2
measure = lebesgue
resolution = 64
epsilon = 0.125
n_range = 2..8
points = 0.37,0.61
seed = 0
""")
    assert main(["localent", "--config", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,y,h_exhaustive,h_lower,h_upper,epsilon,seed"
    parts = lines[1].split(",")
    assert float(parts[2]) <= float(parts[3]) <= float(parts[4])


def test_localent_under_resolved_is_infeasible(tmp_path, capsys):
    path = write_cfg(tmp_path, "loc3.cfg", """system = diag:2,3|3,2
measure = lebesgue
resolution = 8
epsilon = 0.125
n_range = 2..4
points = 0.5,0.5
seed = 0
""")
    assert main(["localent", "--config", path]) == 3


def test_localent_product_measure_bound(tmp_path, capsys):
    path = write_cfg(tmp_path, "locp.cfg", """system = cantor:2,2|2,2
measure = bernoulli:0.5,0.5 x lebesgue
resolution = 256
epsilon = 0.125
n_range = 8..24
points = sample:5
seed = 11
threads = 1
""")
    assert main(["localent", "--config", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,y,h_plus,h_lower,bound,tolerance,ok"
    assert len(lines) == 6
    for row in lines[1:]:
        assert row.endswith(",yes")


def test_sweep_appends_extrapolated_row(tmp_path, capsys):
    path = write_cfg(tmp_path, "swp.cfg", """system = diag:2,3|3,2
kinds = amalgamated
depths = 3,4,5,6
epsilons = 0.125
seed = 0
threads = 1
""")
    assert main(["sweep", "--config", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    tail = lines[-1].split(",")
    assert tail[0] == "amalgamated:extrapolated"
    assert tail[6] == "Extrapolated"
    assert float(tail[3]) <= math.log(6) <= float(tail[4])


def test_json_format_wraps_rows(tmp_path, capsys):
    path = write_cfg(tmp_path, "est.cfg", ESTIMATE_CFG)
    assert main(["estimate", "--config", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "estimate"
    assert len(doc["rows"]) == 8


def test_out_file_and_thread_count_leave_bytes_unchanged(tmp_path):
    path = write_cfg(tmp_path, "est.cfg", ESTIMATE_CFG)
    a, b, c = (str(tmp_path / n) for n in ("a.csv", "b.csv", "c.csv"))
    assert main(["estimate", "--config", path, "--out", a]) == 0
    assert main(["estimate", "--config", path, "--out", b]) == 0
    assert main(["estimate", "--config", path, "--out", c,
                 "--threads", "4"]) == 0
    blob = open(a, "rb").read()
    assert blob == open(b, "rb").read()
    assert blob == open(c, "rb").read()


def test_threads_env_var_is_honoured(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, "est.cfg", ESTIMATE_CFG.replace(
        "threads = 1\n", ""))
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    main(["estimate", "--config", path, "--out", a])
    monkeypatch.setenv("PRESSLAB_THREADS", "3")
    main(["estimate", "--config", path, "--out", b])
    assert open(a, "rb").read() == open(b, "rb").read()


def test_console_entry_point_runs(tmp_path):
    path = write_cfg(tmp_path, "est.cfg", ESTIMATE_CFG)
    proc = subprocess.run(
        [sys.executable, "-m", "presslab.cli", "estimate", "--config", path],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    assert proc.returncode == 0
    assert proc.stdout.startswith("kind,n,epsilon,")
