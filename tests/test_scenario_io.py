from pathlib import Path

import numpy as np
import pytest

from combidyn import (
    ScenarioError,
    TargetBandCase,
    default_scenario,
    parse_scenario,
    write_scenario,
)

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"

MINIMAL = """\
schema_version: 1
fleet:
  m: 1
  a: {rows: 1, cols: 1, data: [0.6]}
  b: 26.0
  theta_ambient: 19.5
  theta_lo: 0.0
  theta_hi: 4.0
  delta: 1.0
  c: 10.0
  x0: 2.0
schedule:
  step_minutes: 15
  num_steps: 1
case:
  kind: target_band
  y_lo: 0.0
  y_hi: 10.0
"""


def _write(tmp_path, text, name="scenario.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_minimal_scenario_parses(tmp_path):
    sc = parse_scenario(_write(tmp_path, MINIMAL))
    assert sc.params.m == 1
    assert sc.params.b[0] == 26.0
    assert sc.num_steps == 1
    assert isinstance(sc.case, TargetBandCase)


def test_band_invariant_error_names_field_and_line(tmp_path):
    bad = MINIMAL.replace("theta_hi: 4.0", "theta_hi: -1.0")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(_write(tmp_path, bad))
    assert "theta_lo" in str(err.value)
    assert err.value.line is not None


def test_unknown_key_rejected(tmp_path):
    bad = MINIMAL + "extra_key: 1\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(_write(tmp_path, bad))
    assert "extra_key" in str(err.value)
    bad = MINIMAL.replace("  m: 1", "  m: 1\n  watts: 3")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(_write(tmp_path, bad))
    assert "watts" in str(err.value)


def test_missing_field_reported(tmp_path):
    bad = MINIMAL.replace("  b: 26.0\n", "")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(_write(tmp_path, bad))
    assert "fleet.b" in str(err.value)


def test_type_mismatch_reported_with_line(tmp_path):
    bad = MINIMAL.replace("num_steps: 1", "num_steps: lots")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(_write(tmp_path, bad))
    assert "num_steps" in str(err.value)
    assert err.value.line == MINIMAL.splitlines().index("  num_steps: 1") + 1


@pytest.mark.parametrize(
    "line, value, field",
    [
        ("  b: 26.0", "nan", "scenario.fleet.b"),
        ("  delta: 1.0", "nan", "scenario.fleet.delta"),
        ("  theta_hi: 4.0", "inf", "scenario.fleet.theta_hi"),
        ("  y_hi: 10.0", "nan", "scenario.case.y_hi"),
        ("  y_hi: 10.0", "inf", "scenario.case.y_hi"),
        ("  m: 1", "1e400", "scenario.fleet.m"),
        ("  num_steps: 1", "1e400", "scenario.schedule.num_steps"),
    ],
)
def test_non_finite_numbers_rejected(tmp_path, capsys, line, value, field):
    from combidyn.cli import main

    bad = MINIMAL.replace(line + "\n", line.split(":")[0] + f": {value}\n")
    path = _write(tmp_path, bad)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(path)
    assert err.value.field_path == field
    assert err.value.line == MINIMAL.splitlines().index(line) + 1
    assert "finite" in str(err.value)
    assert main(["optimize", "--scenario", path]) == 2
    assert f"error: ScenarioError: {field}" in capsys.readouterr().err


def test_tu_case_without_rows_rejected(tmp_path, capsys):
    from combidyn import ConstraintError, TuCase
    from combidyn.cli import main

    with pytest.raises(ConstraintError):
        TuCase(np.zeros((0, 3)), np.zeros(0), np.ones(1))
    text = MINIMAL.split("case:")[0] + (
        "case:\n  kind: tu\n  Q: {rows: 0, cols: 1, data: []}\n  r: []\n  z_bar: 1\n"
    )
    path = _write(tmp_path, text)
    with pytest.raises(ConstraintError):
        parse_scenario(path)
    assert main(["optimize", "--scenario", path]) == 2
    assert "error: ConstraintError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "q, message",
    [
        ("{rows: 0, cols: 1, data: []}\n  r: []",
         "operation rows need at least the per-step budget row"),
        ("{rows: 1, cols: 1, data: [0.5]}\n  r: [1]", "rows must be integer"),
    ],
    ids=["no_rows", "fractional_row"],
)
def test_case_invariants_name_the_case_and_line(tmp_path, capsys, q, message):
    # TuCase's own invariants keep their type and exit code and gain the
    # field path and the line of the case mapping (line 16: ``kind: tu``).
    from combidyn import ConstraintError
    from combidyn.cli import main

    text = MINIMAL.split("case:")[0] + f"case:\n  kind: tu\n  Q: {q}\n  z_bar: 1\n"
    path = _write(tmp_path, text)
    where = f"scenario.case (line 16): {message}"
    with pytest.raises(ConstraintError) as err:
        parse_scenario(path)
    assert str(err.value) == where
    assert main(["optimize", "--scenario", path]) == 2
    assert capsys.readouterr().err == f"error: ConstraintError: {where}\n"


def test_matrix_dimension_mismatch(tmp_path):
    bad = MINIMAL.replace("{rows: 1, cols: 1, data: [0.6]}", "{rows: 1, cols: 1, data: [0.6, 0.7]}")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(_write(tmp_path, bad))
    assert "data" in str(err.value)


def test_schema_version_checked(tmp_path):
    bad = MINIMAL.replace("schema_version: 1", "schema_version: 99")
    with pytest.raises(ScenarioError):
        parse_scenario(_write(tmp_path, bad))


def test_missing_file():
    with pytest.raises(ScenarioError):
        parse_scenario("/nonexistent/path.yaml")


def test_shipped_sample_matches_default_fleet():
    sc = parse_scenario(str(SCENARIO_DIR / "case1_m20.yaml"))
    ref = default_scenario(20, seed=7)
    assert np.array_equal(sc.params.a, ref.params.a)
    assert np.array_equal(sc.params.b, ref.params.b)
    assert np.array_equal(sc.params.x0, ref.params.x0)
    assert np.array_equal(sc.case.y_hi, ref.case.y_hi)
    assert sc.step_minutes == ref.step_minutes


def test_roundtrip_tu_and_transient(tmp_path):
    for case, transient in (("tu", False), ("target_band", True)):
        ref = default_scenario(20, seed=3, case=case, transient=transient)
        path = str(tmp_path / f"{case}_{transient}.yaml")
        write_scenario(ref, path)
        back = parse_scenario(path)
        assert np.array_equal(back.params.a, ref.params.a)
        if case == "tu":
            assert np.array_equal(back.case.rows, ref.case.rows)
            assert np.array_equal(back.case.z_bar, ref.case.z_bar)
        if transient:
            assert back.transient.members == ref.transient.members
            assert np.array_equal(
                np.asarray(back.transient.xi), np.asarray(ref.transient.xi)
            )


def test_transient_member_indices_are_one_based(tmp_path):
    text = MINIMAL + "transient:\n  xi: 100.0\n  members: [1]\n"
    sc = parse_scenario(_write(tmp_path, text))
    assert sc.transient.members == (0,)
    bad = MINIMAL + "transient:\n  xi: 100.0\n  members: [2]\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(_write(tmp_path, bad))
    assert "members" in str(err.value)


def test_short_slots_rejected(tmp_path):
    bad = MINIMAL.replace("step_minutes: 15", "step_minutes: 5")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(_write(tmp_path, bad))
    assert "10" in str(err.value)


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda p: p.stem)
def test_shipped_scenarios_write_back_byte_for_byte(tmp_path, path):
    # Pins the file layout: the field order and the number format of the writer.
    out = tmp_path / path.name
    write_scenario(parse_scenario(str(path)), str(out))
    assert out.read_bytes() == path.read_bytes()


def test_power_band_over_unequal_power_draws_is_refused_at_parse(tmp_path, capsys):
    # Unit 4 draws 12 kW: the count-band encoding of a power band does not
    # hold, so the file is refused whole at the power draws' line, naming no
    # step, whatever the command.
    from combidyn.cli import main

    path = tmp_path / "unequal.yaml"
    write_scenario(default_scenario(10, 2, num_steps=2), str(path))
    text = path.read_text()
    assert text.count("  c: [10.0, 10.0, 10.0, 10.0, ") == 1
    path.write_text(text.replace("  c: [10.0, 10.0, 10.0, 10.0, ", "  c: [10.0, 10.0, 10.0, 12.0, "))
    line = 1 + next(i for i, row in enumerate(text.splitlines()) if row.startswith("  c: "))
    message = f"scenario.fleet.c (line {line}): the target-band encodings need uniform unit power draws"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(str(path))
    assert str(err.value) == message
    for command in ("optimize", "check-submodular"):
        assert main([command, "--scenario", str(path), "--grid", "51"]) == 2
        assert capsys.readouterr().err == f"error: ScenarioError: {message}\n"


_C1, _TR = "case1_m10.yaml", "transient_m20.yaml"
_INVARIANTS = {
    # name: (file, old, new, field, message[, start of the line it names,
    # when not the replaced one]).  First the scenario types' own invariants,
    # then the checks the parser no longer repeats, with their old bytes.
    "a_negative": (_C1, "data: [0.25", "data: [-0.25", "scenario.fleet.a",
                   "heat-transfer coefficients must be nonnegative", "    rows:"),
    "b_not_positive": (_C1, "  b: [8.0,", "  b: [0.0,", "scenario.fleet.b",
                       "cooling rates b must be positive"),
    "delta_negative": (_C1, "  delta: [1.0,", "  delta: [-1.0,", "scenario.fleet.delta",
                       "penalty weights and power draws must be nonnegative"),
    "c_negative": (_C1, "  c: [10.0,", "  c: [-10.0,", "scenario.fleet.c",
                   "penalty weights and power draws must be nonnegative"),
    "c_not_uniform": (_C1, "  c: [10.0,", "  c: [12.0,", "scenario.fleet.c",
                      "the target-band encodings need uniform unit power draws"),
    "step_minutes_short": (_C1, "  step_minutes: 15.0", "  step_minutes: 5.0",
                           "scenario.schedule.step_minutes",
                           "step_minutes must be at least 10.0 minutes"),
    "xi_not_positive": (_TR, "  xi: [100.0,", "  xi: [0.0,", "scenario.transient.xi",
                        "transient decay rates must be positive"),
    "theta_band": (_C1, "  theta_hi: [4.0,", "  theta_hi: [-1.0,", "scenario.fleet.theta_lo",
                   "comfort band needs theta_lo < theta_hi entrywise", "  theta_lo:"),
    "y_lo_negative": (_C1, "  y_lo: [0.0,", "  y_lo: [-1.0,", "scenario.case.y_lo",
                      "target bands must be nonnegative"),
    "y_hi_negative": (_C1, "  y_hi: [50.0,", "  y_hi: [-50.0,", "scenario.case.y_lo",
                      "target bands must be nonnegative", "  y_lo:"),
    "y_lo_above_y_hi": (_C1, "  y_lo: [0.0,", "  y_lo: [60.0,", "scenario.case.y_lo",
                        "target band needs y_lo <= y_hi"),
    "member_out_of_range": (_TR, "  members: [1,", "  members: [21,",
                            "scenario.transient.members[0]", "unit index 21 out of range 1..20"),
    "member_duplicate": (_TR, "  members: [1, 3,", "  members: [1, 1,",
                         "scenario.transient.members", "duplicate unit index"),
}


@pytest.mark.parametrize("name", _INVARIANTS)
def test_invariant_errors_name_the_field_and_its_line(tmp_path, capsys, name):
    # The line is the one the field's value starts on: for the matrix a,
    # the line below its key.
    from combidyn.cli import main

    scenario, old, new, field, message, *at = _INVARIANTS[name]
    text = (SCENARIO_DIR / scenario).read_text()
    assert old in text
    path = _write(tmp_path, text.replace(old, new, 1))
    line = 1 + next(i for i, row in enumerate(text.splitlines()) if row.startswith((at or [old])[0]))
    where = f"{field} (line {line}): {message}"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(path)
    assert (err.value.field_path, str(err.value)) == (field, where)
    assert main(["optimize", "--scenario", path, "--grid", "21"]) == 2
    assert capsys.readouterr().err == f"error: ScenarioError: {where}\n"


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_non_positive_num_steps_is_refused_at_its_line(tmp_path, steps):
    # A negative count used to reach numpy as a vector length and escape as
    # a ValueError.
    bad = MINIMAL.replace("num_steps: 1", f"num_steps: {steps}")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(_write(tmp_path, bad))
    assert str(err.value) == "scenario.schedule.num_steps (line 14): num_steps must be positive"
