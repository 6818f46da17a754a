import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from presslab.cli import COMMAND_KEYS, COMMON_KEYS, _check_keys, \
    _parse_points, load_config, main
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
"""

VERIFY_CFG = """system = diag:2,3|3,2
potential = zero
checks = chain,shift,lipschitz,lift
n = 3
epsilon = 0.125
seed = 0
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
    # a ball along sigma**2 is a cylinder of 13 symbols at eps = 0.0009
    # and of 12 at eps = 0.001, past the 10-symbol cap.  At 0.001 a
    # 10-symbol grid gave every kind one ball per point (log 1024) with
    # exit 0.
    for epsilon, symbols in (("0.0009", 13), ("0.001", 12)):
        path = write_cfg(tmp_path, "fine.cfg", """system = shift:2
potential = zero
rule = periodic:1,2
kinds = all
depths = 1
epsilons = %s
""" % epsilon)
        assert main(["estimate", "--config", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "infeasible: a shift grid at depth 1 and radius %s needs %d "
            "symbols, past the 10-symbol cap\n" % (epsilon, symbols))


def test_non_dyadic_shift_radius_gets_the_exact_cylinder_count(tmp_path,
                                                              capsys):
    # at eps = 0.1 a ball is a cylinder of 4 symbols, so along
    # sigma**2 sigma**2 sigma**2 it has 10: the cap, not past it.  Every
    # ball is one grid point, and the condensed cover is all 2**10.
    path = write_cfg(tmp_path, "shift.cfg", """system = shift:2
potential = zero
kinds = condensed-upper,amalgamated
depths = 3
epsilons = 0.1
""")
    assert main(["estimate", "--config", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "kind,n,epsilon,lower,upper,cover_size,method,seed\n"
        "condensed-upper,3,0.1,2.0794415416798357,2.3104906018664844,1024,"
        "GenericGrid,0\n"
        "amalgamated,3,0.1,1.3862943611198906,1.617343421306539,128,"
        "GenericGrid,0\n")
    assert 2.3104906018664844 == math.log(2 ** 10) / 3


def test_shift_words_past_the_grid_are_refused_before_any_point(
        tmp_path, monkeypatch, capsys):
    """At eps = 1/4 a ball along sigma**2 ... sigma**2 is a cylinder of
    3 + 2n symbols: 11 at n = 4, past the 10-symbol cap.  The request
    exits 3 from the grid's shape, where a truncated grid printed
    [1.7329, 1.7329] against an exact cover rate of log(2**11)/4 =
    1.9062."""
    import presslab.pressure as pressure
    from presslab.systems import SemigroupSystem

    def no_points(self, base, rank):
        raise AssertionError("grid points were built for a refused shape")

    monkeypatch.setattr(SemigroupSystem, "grid_points", no_points)
    monkeypatch.setattr(pressure, "_ENGINE_CACHE", {})
    path = write_cfg(tmp_path, "deep.cfg", """system = shift:2
potential = zero
kinds = condensed-upper
depths = 4,5
epsilons = 0.25
""")
    assert main(["estimate", "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "infeasible: a shift grid at depth 5 and radius 0.25 needs 13 "
        "symbols, past the 10-symbol cap\n")


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
    path = write_cfg(tmp_path, "ver.cfg", VERIFY_CFG + "tolerance = -1\n")
    assert main(["verify", "--config", path]) == 2


@pytest.mark.parametrize("flag", ["--seed", "--tolerance"])
def test_config_settings_have_no_flag(tmp_path, capsys, flag):
    # seed and tolerance are config keys, so a flag cannot override them
    path = write_cfg(tmp_path, "ver.cfg", VERIFY_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", path, flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: %s 1" % flag in capsys.readouterr().err


def test_verify_separation_reports_distinguishable(tmp_path, capsys):
    path = write_cfg(tmp_path, "sep.cfg", """system = diag:4,5|2,6
system_b = diag:2,10|3,4
checks = separation
n = 6
epsilon = 0.0416666666666667
seed = 0
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


@pytest.mark.parametrize("extra, command", [
    ("potentail = constants:5", "estimate"),
    ("pool_random = 64", "estimate"),
    ("pool_seed = 3", "estimate"),
    ("threads = 1", "estimate"),
    ("kinds = all", "verify"),
    ("system_b = diag:2,10|3,4", "dimension"),
    ("potential = random:3", "dimension"),
    ("rule = constant:1", "dimension"),
    ("tolerance = 5", "dimension"),
    ("tolerance = 5", "estimate"),
    ("potential = zero", "localent"),
    ("out = rows.csv", "estimate"),
    ("format = json", "verify"),
])
def test_unread_keys_are_parse_errors(tmp_path, capsys, extra, command):
    # a misspelt or removed key would otherwise leave its default in
    # force without a word
    rest = {"estimate": "kinds = amalgamated\ndepths = 3\nepsilons = 0.125\n",
            "verify": "checks = chain\n", "dimension": "",
            "localent": ""}[command]
    path = write_cfg(tmp_path, "bad.cfg",
                     "system = diag:2,3|3,2\n%s\n%s" % (extra, rest))
    assert main([command, "--config", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: line 2: %s reads no key %r\n" \
        % (command, extra.split(" = ")[0])


def test_readme_key_table_is_the_cli_key_sets():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("| keys | read by |") + 2
    read = {command: set() for command in COMMAND_KEYS}
    for row in lines[start:]:
        if not row.startswith("|"):
            break
        keys, readers = (cell.strip() for cell in row.strip("|").split("|"))
        commands = list(COMMAND_KEYS) if readers == "every command" \
            else [c.strip(" `") for c in readers.split(",")]
        for command in commands:
            read[command] |= {k.strip(" `") for k in keys.split(",")}
    assert read == {command: set(COMMON_KEYS) | set(keys)
                    for command, keys in COMMAND_KEYS.items()}


def _benchmark_workloads():
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" \
        / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def test_benchmark_configs_read_only_their_keys():
    # the golden configs run in test_golden; these are too slow to run
    for make in _benchmark_workloads().values():
        for seed in (1, 7, 201):
            for req in make(seed):
                entries = {key: (value, i + 1) for i, (key, value)
                           in enumerate(req.config.items())}
                _check_keys(entries, req.command)


SHORT_RULE_CFG = """system = diag:2,3|3,2
kinds = %s
rule = %s
depths = 3
epsilons = 0.125
"""


def test_short_explicit_rules_are_parse_errors(tmp_path, capsys):
    path = write_cfg(tmp_path, "est.cfg",
                     SHORT_RULE_CFG % ("trajectory", "explicit:1,2"))
    assert main(["estimate", "--config", path]) == 4
    assert capsys.readouterr().err == "parse error: line 3: explicit rule " \
        "has 2 symbols, the trajectory at depth 3 needs 3\n"
    path = write_cfg(tmp_path, "ver.cfg", """system = diag:2,3|3,2
checks = shift
rule = explicit:1,2,1
n = 3
""")
    assert main(["verify", "--config", path]) == 4
    assert capsys.readouterr().err == "parse error: line 3: explicit rule " \
        "has 3 symbols, the shift check at n = 3 needs 4\n"
    path = write_cfg(tmp_path, "chain.cfg", """system = diag:2,3|3,2
checks = chain
rule = explicit:1,2
n = 3
""")
    assert main(["verify", "--config", path]) == 4
    assert capsys.readouterr().err == "parse error: line 3: explicit rule " \
        "has 2 symbols, the chain at n = 3 needs 3\n"


def test_short_explicit_rule_is_unread_without_a_trajectory(tmp_path,
                                                            capsys):
    path = write_cfg(tmp_path, "est.cfg",
                     SHORT_RULE_CFG % ("amalgamated", "explicit:1,2"))
    assert main(["estimate", "--config", path]) == 0
    assert capsys.readouterr().out.count("\n") == 2


@pytest.mark.parametrize("rule", ["explicit:1,2,1,2", "constant:1"])
def test_shift_check_with_a_long_enough_rule(tmp_path, capsys, rule):
    path = write_cfg(tmp_path, "ver.cfg", """system = diag:2,3|3,2
checks = shift
rule = %s
n = 3
""" % rule)
    assert main(["verify", "--config", path]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("shift,yes,")


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


@pytest.mark.parametrize("system, n, message", [
    ("cantor:2,4,4", 96, "generator 1 mixes slopes on the circle"),
    ("cantor:2,3", 48, "2eps exceeds the branch gap"),
])
def test_dimension_without_a_closed_form_is_infeasible(tmp_path, capsys,
                                                       system, n, message):
    # a grid at this depth holds one point per ball, so its root would
    # be noise; the command names what has no closed form instead
    path = write_cfg(tmp_path, "dim.cfg", """system = %s
n = %d
epsilon = 0.125
""" % (system, n))
    assert main(["dimension", "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_verify_marginal_rows_show_their_tolerance(tmp_path, capsys):
    path = write_cfg(tmp_path, "marg.cfg", """system = cantor:2,2|2,2
checks = marginal
n = 4
epsilon = 0.125
""")
    assert main(["verify", "--config", path, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 10
    for row in rows:
        assert row["check"] == "marginal" and row["ok"] == "yes"
        fields = dict(kv.split("=") for kv in row["detail"].split())
        assert set(fields) == {"h_plus", "h_lower", "bound", "tolerance"}
        assert float(fields["h_lower"]) <= \
            float(fields["bound"]) + float(fields["tolerance"])


def test_single_word_trajectory_runs_on_its_own_grid(tmp_path, capsys):
    # every word of length 9 on the 40x40 grid would need 512 x 1600**2
    # pair entries, over the grid budget; the trajectory kind needs one
    path = write_cfg(tmp_path, "traj.cfg", """system = toral:0,1,1,2;2,1,1,0
potential = random:3,0.25
kinds = trajectory
rule = periodic:1,2
depths = 9
epsilons = 0.0625
""")
    assert main(["estimate", "--config", path, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 1
    assert rows[0]["method"] == "GenericGrid"
    assert rows[0]["cover_size"] == 320
    assert rows[0]["lower"] <= rows[0]["upper"]


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


@pytest.mark.parametrize("system, reason", [
    ("toral:0,1,1,2;2,1,1,0", "need a diagonal torus"),
    ("cantor:2,4,4", "generator 1 mixes slopes on the circle"),
    ("cantor:3,3|3,3", "need a diagonal torus"),
])
def test_localent_lebesgue_without_exact_mass_is_infeasible(
        tmp_path, capsys, system, reason):
    path = write_cfg(tmp_path, "loc3.cfg", """system = %s
measure = lebesgue
epsilon = 0.125
n_range = 2..4
points = sample:2
seed = 0
""" % system)
    assert main(["localent", "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("infeasible: ")
    assert reason in captured.err


def test_localent_rates_do_not_depend_on_resolution(tmp_path, capsys):
    outputs = []
    for resolution in (8, 64):
        path = write_cfg(tmp_path, "loc%d.cfg" % resolution,
                         """system = diag:2,3|3,2
measure = lebesgue
resolution = %d
epsilon = 0.125
n_range = 2..4
points = 0.5,0.5;0.37,0.61
seed = 0
""" % resolution)
        assert main(["localent", "--config", path]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].strip().splitlines()) == 3
    # every depth-4 word box has area 4 eps**2 / 6**4 = 12**-4
    assert "0.5,0.5,2.2730821846911993,2.4849066497880004," in outputs[0]


def test_localent_product_measure_bound(tmp_path, capsys):
    path = write_cfg(tmp_path, "locp.cfg", """system = cantor:2,2|2,2
measure = bernoulli:0.5,0.5 x lebesgue
resolution = 256
epsilon = 0.125
n_range = 8..24
points = sample:5
seed = 11
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
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(["estimate", "--config", path, "--out", str(a)]) == 0
    assert main(["estimate", "--config", path, "--out", str(b)]) == 0
    assert main(["estimate", "--config", path, "--out", str(c),
                 "--threads", "4"]) == 0
    blob = a.read_bytes()
    assert blob == b.read_bytes()
    assert blob == c.read_bytes()


def test_console_entry_point_runs(tmp_path):
    path = write_cfg(tmp_path, "est.cfg", ESTIMATE_CFG)
    proc = subprocess.run(
        [sys.executable, "-m", "presslab.cli", "estimate", "--config", path],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    assert proc.returncode == 0
    assert proc.stdout.startswith("kind,n,epsilon,")


BUDGET_CFG = """system = toral:0,1,1,2;2,1,1,0
potential = zero
kinds = all
rule = periodic:1,2
depths = 2,5,9
epsilons = 0.0625
seed = 0
"""


def test_estimate_refuses_past_the_grid_budget_before_any_grid(
        tmp_path, monkeypatch, capsys):
    """The n=9 grid needs 512 x 1600^2 pair entries: the request exits 3
    before the n=2 and n=5 grids are built."""
    import presslab.pressure as pressure

    def no_metrics(self):
        raise AssertionError("a grid was built before the budget check")

    monkeypatch.setattr(pressure._GridEngine, "_build_metrics", no_metrics)
    monkeypatch.setattr(pressure, "_ENGINE_CACHE", {})
    path = write_cfg(tmp_path, "budget.cfg", BUDGET_CFG)
    assert main(["estimate", "--config", path]) == 3
    assert "512 x 1600^2 pair entries" in capsys.readouterr().err


def test_estimate_sizes_the_grid_before_building_its_points(
        tmp_path, monkeypatch, capsys):
    """shift:5 at n=3, eps=1/8 has 5**10 grid points: the budget is read
    from the grid's shape, so the request exits 3 before one exists."""
    import presslab.pressure as pressure
    from presslab.systems import SemigroupSystem

    def no_points(self, base, rank):
        raise AssertionError("grid points were built before the budget check")

    monkeypatch.setattr(SemigroupSystem, "grid_points", no_points)
    monkeypatch.setattr(pressure, "_ENGINE_CACHE", {})
    path = write_cfg(tmp_path, "shift5.cfg", """system = shift:5
potential = zero
kinds = amalgamated
depths = 3
epsilons = 0.125
seed = 0
""")
    assert main(["estimate", "--config", path]) == 3
    assert capsys.readouterr().err == (
        "infeasible: grid certificates need 8 x 9765625^2 pair entries; "
        "reduce the depth or use a closed-form system\n")


@pytest.mark.parametrize("checks, key, err", [
    ("lipschitz,shift,separation", "system_b = nosuch:1",
     "parse error: line 7: unknown system family 'nosuch'\n"),
    ("lipschitz,shift,marginal", "measure = bernoulli:0.5,0.5 x dirac",
     "parse error: line 7: product measures are bernoulli:... x lebesgue\n"),
    ("lipschitz,shift,marginal", "measure = lebesgue",
     "parse error: line 7: marginal check needs a product measure\n"),
], ids=["system_b", "measure-syntax", "measure-not-product"])
def test_verify_refuses_bad_check_inputs_before_any_grid(
        tmp_path, monkeypatch, capsys, checks, key, err):
    """The shear pair's lipschitz and shift checks build grids: a bad
    `system_b` or `measure` exits 4 before the first of them."""
    import presslab.pressure as pressure

    def no_metrics(self):
        raise AssertionError("a grid was built before the inputs parsed")

    monkeypatch.setattr(pressure._GridEngine, "_build_metrics", no_metrics)
    monkeypatch.setattr(pressure, "_ENGINE_CACHE", {})
    path = write_cfg(tmp_path, "ver.cfg", """system = toral:0,1,1,2;2,1,1,0
potential = random:1,0.25
checks = %s
n = 2
epsilon = 0.25
seed = 1
%s
""" % (checks, key))
    assert main(["verify", "--config", path]) == 4
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("seed", [0, 7])
def test_lipschitz_bound_is_the_sup_distance(tmp_path, capsys, seed):
    """random:seed,0.25 against random:seed+1,0.25 on the shear pair (a
    grid case): the bound is the exact sup 0.25 + 0.25, not a sampled
    one."""
    path = write_cfg(tmp_path, "lip.cfg", """system = toral:0,1,1,2;2,1,1,0
potential = random:%d,0.25
checks = lipschitz
n = 2
epsilon = 0.25
seed = %d
""" % (seed, seed))
    assert main(["verify", "--config", path]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row.startswith("lipschitz,yes,")
    assert row.endswith("bound=0.500000000001")
