import argparse
import csv
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from combidyn import TuCase, default_scenario, parse_scenario, write_scenario
from combidyn import cli
from combidyn.cli import main

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"
README = Path(__file__).parent.parent / "README.md"


@pytest.fixture(scope="module")
def small_scenario(tmp_path_factory):
    path = tmp_path_factory.mktemp("scn") / "small.yaml"
    write_scenario(default_scenario(10, seed=2, num_steps=3), str(path))
    return str(path)


def _run(args):
    return main(args)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_optimize_csv_shape_and_consistency(small_scenario, tmp_path):
    out = str(tmp_path / "run.csv")
    code = _run(
        ["optimize", "--scenario", small_scenario, "--grid", "101", "--out", out]
    )
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 3 * 10
    assert list(rows[0].keys()) == [
        "step",
        "unit",
        "alpha",
        "temperature_end",
        "power_kw",
        "payoff",
        "rho_post",
    ]
    by_step = {}
    for row in rows:
        by_step.setdefault(row["step"], []).append(row)
    for step_rows in by_step.values():
        power = float(step_rows[0]["power_kw"])
        on_units = sum(int(r["alpha"]) for r in step_rows)
        assert abs(power - 10.0 * on_units) < 1e-9
        for r in step_rows:
            assert 0.0 <= float(r["rho_post"]) <= 1.0 + 1e-12


def test_optimize_deterministic_bytes(small_scenario, tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (out1, out2):
        assert _run(["optimize", "--scenario", small_scenario, "--grid", "101", "--out", out]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_oracle_ratio_column(small_scenario, tmp_path):
    out = str(tmp_path / "oracle.csv")
    assert _run(["oracle", "--scenario", small_scenario, "--grid", "101", "--out", out]) == 0
    rows = _read_csv(out)
    assert len(rows) == 3
    for row in rows:
        assert float(row["ratio"]) <= 1.0 + 1e-9
        assert float(row["ratio"]) + 1e-9 >= float(row["rho_post"]) or row["rho_post"] == "1"


def test_compare_derivatives_affine_gradients_match(small_scenario, tmp_path):
    out = str(tmp_path / "cmp.csv")
    assert _run(
        [
            "compare-derivatives",
            "--scenario",
            small_scenario,
            "--grid",
            "101",
            "--samples",
            "5",
            "--out",
            out,
        ]
    ) == 0
    text = Path(out).read_text().splitlines()
    assert text[0] == "sample,alpha_bar,payoff_standard,payoff_nonstandard,grad_max_diff"
    data = [line.split(",") for line in text[1:] if not line.startswith("#")]
    assert len(data) == 5
    for row in data:
        assert float(row[4]) <= 1e-8  # affine fleet: the two derivatives agree


def test_sweep_linearization(small_scenario, tmp_path):
    out = str(tmp_path / "sweep.csv")
    assert _run(
        [
            "sweep-linearization",
            "--scenario",
            small_scenario,
            "--grid",
            "101",
            "--samples",
            "4",
            "--seed",
            "3",
            "--out",
            out,
        ]
    ) == 0
    rows = _read_csv(out)
    assert len(rows) == 4
    assert rows[0]["alpha_bar"] == "0" * 10


def test_checks_report_pass_fail(small_scenario, tmp_path, capsys):
    assert _run(["check-concavity", "--scenario", small_scenario, "--grid", "101"]) == 0
    text = capsys.readouterr().out
    assert "concavity inequality" in text and "pass" in text
    assert _run(["check-submodular", "--scenario", small_scenario, "--grid", "101"]) == 0
    text = capsys.readouterr().out
    assert "submodularity: pass" in text


def test_certify_report(small_scenario, tmp_path):
    out = str(tmp_path / "cert.csv")
    assert _run(["certify", "--scenario", small_scenario, "--grid", "101", "--out", out]) == 0
    rows = _read_csv(out)
    assert len(rows) == 3
    assert all(0.0 <= float(r["rho_post"]) <= 1.0 + 1e-12 for r in rows)


@pytest.mark.parametrize("command", ["optimize", "certify"])
def test_oracle_report_says_the_exhaustive_optimum_is_applied(small_scenario, command, capsys):
    # The oracle route linearizes nothing, so no step may claim a certified
    # linearization point or base point.
    argv = [command, "--scenario", small_scenario, "--grid", "101", "--solver", "oracle"]
    assert _run([*argv, "--format", "report"]) == 0
    steps = capsys.readouterr().out.splitlines()[1:]
    assert len(steps) == 3
    assert all("exhaustive optimum applied" in line for line in steps)
    assert not any("linearization point" in line or "base optimal" in line for line in steps)


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema_version: 1\nfleet: {m: oops}\n")
    assert _run(["optimize", "--scenario", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_infeasible_exit_code(tmp_path, capsys):
    sc = default_scenario(10, seed=2, num_steps=2)
    import dataclasses

    from combidyn import TargetBandCase

    impossible = dataclasses.replace(
        sc, case=TargetBandCase(np.full(2, 95.0), np.full(2, 96.0))
    )
    path = tmp_path / "tight.yaml"
    write_scenario(impossible, str(path))
    assert _run(["optimize", "--scenario", str(path), "--grid", "51"]) == 3
    assert "error:" in capsys.readouterr().err


def test_infeasible_rows_found_by_the_lp_exit_code(tmp_path, capsys):
    # A negative budget passes step_constraints; only the LP finds that no
    # point of the box satisfies the budget row.
    import dataclasses

    sc = default_scenario(10, seed=2, num_steps=2, case="tu")
    negative = dataclasses.replace(
        sc, case=dataclasses.replace(sc.case, z_bar=np.full(2, -1.0))
    )
    path = tmp_path / "negative_budget.yaml"
    write_scenario(negative, str(path))
    assert _run(["optimize", "--scenario", str(path), "--grid", "51", "--solver", "tu"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "error: InfeasibleError" in err


def test_infeasible_rows_found_by_the_lp_name_the_step(tmp_path, capsys):
    # A negative budget in the named slot: the LP (or the oracle) finds it
    # infeasible, and the error names the slot as step_constraints does.
    import dataclasses

    sc = default_scenario(10, seed=2, num_steps=2, case="tu")
    for z_bar, step in (([-1.0, -1.0], 1), ([3.0, -1.0], 2)):
        negative = dataclasses.replace(sc, case=dataclasses.replace(sc.case, z_bar=np.array(z_bar)))
        path = tmp_path / f"negative_budget_{step}.yaml"
        write_scenario(negative, str(path))
        for solver in ("tu", "oracle"):
            argv = ["optimize", "--scenario", str(path), "--grid", "51", "--solver", solver]
            assert _run(argv) == 3
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: InfeasibleError: ")
            assert err.rstrip().endswith(f"(step {step})")


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_numeric_failure_exit_code(tmp_path, capsys):
    # An asserted-TU row matrix that is not actually TU surfaces as a
    # fractional LP vertex, which the CLI maps to the numeric-failure code.
    sc = default_scenario(10, seed=2, num_steps=2)
    import dataclasses

    from combidyn import TuCase

    odd_cycle = np.zeros((3, 10))
    odd_cycle[0, 0] = odd_cycle[0, 1] = 1.0
    odd_cycle[1, 1] = odd_cycle[1, 2] = 1.0
    odd_cycle[2, 0] = odd_cycle[2, 2] = 1.0
    bad = dataclasses.replace(
        sc, case=TuCase(odd_cycle, np.ones(3), np.ones(2))
    )
    path = tmp_path / "notreallytu.yaml"
    write_scenario(bad, str(path))
    assert _run(["optimize", "--scenario", str(path), "--grid", "51"]) == 4
    assert "TuViolationError" in capsys.readouterr().err

    # Heat-transfer rates scaled by 1e6: on the fine grid the forward pass
    # diverges in step 1; on the coarse grid the states stay finite but the
    # step-2 payoff overflows.  Both fail with the step named, printing nothing.
    sc = default_scenario(10, seed=0, num_steps=2)
    fast = dataclasses.replace(sc, params=dataclasses.replace(sc.params, a=sc.params.a * 1e6))
    path = tmp_path / "diverging.yaml"
    write_scenario(fast, str(path))
    for grid, message in (
        ("201", "IntegrationDivergedError: non-finite state at knot 106 (step 1)"),
        ("21", "(step 2)"),
    ):
        assert _run(["certify", "--scenario", str(path), "--solver", "l0", "--grid", grid]) == 4
        out, err = capsys.readouterr()
        assert out == "" and message in err


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_oracle_overflowing_payoff_is_a_numeric_failure(tmp_path, capsys):
    # Heat-transfer rates scaled by 1e6 on a coarse grid: the step-2 payoff
    # model overflows at every feasible row.  That is a numeric failure of
    # the slot, named as such, not an infeasible slot.
    import dataclasses

    sc = default_scenario(10, seed=0, num_steps=2)
    fast = dataclasses.replace(sc, params=dataclasses.replace(sc.params, a=sc.params.a * 1e6))
    path = tmp_path / "diverging.yaml"
    write_scenario(fast, str(path))
    argv = ["optimize", "--scenario", str(path), "--solver", "oracle", "--grid", "21"]
    assert _run(argv) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: NumericError: ")
    assert err.rstrip().endswith("(step 2)")


def test_solver_choices(small_scenario, tmp_path):
    for solver in ("l0", "tu"):
        out = str(tmp_path / f"{solver}.csv")
        assert _run(
            ["optimize", "--scenario", small_scenario, "--grid", "51", "--solver", solver, "--out", out]
        ) == 0
    # oracle solver applies the exhaustive optimum per step
    out = str(tmp_path / "oracle_solver.csv")
    assert _run(
        ["optimize", "--scenario", small_scenario, "--grid", "51", "--solver", "oracle", "--out", out]
    ) == 0


def test_optimize_shipped_case_one(tmp_path):
    out = str(tmp_path / "case1.csv")
    scenario = str(SCENARIO_DIR / "case1_m20.yaml")
    assert _run(["optimize", "--scenario", scenario, "--grid", "200", "--out", out]) == 0
    rows = _read_csv(out)
    assert len(rows) == 32 * 20
    assert all(0.0 <= float(r["rho_post"]) <= 1.0 + 1e-12 for r in rows)


def test_derivative_both_flag(small_scenario, tmp_path):
    out = str(tmp_path / "both.csv")
    assert _run(
        ["optimize", "--scenario", small_scenario, "--grid", "51", "--derivative", "both", "--out", out]
    ) == 0
    assert len(_read_csv(out)) == 3 * 10


def test_sampling_commands_deterministic_bytes(small_scenario, tmp_path):
    for command in ("sweep-linearization", "compare-derivatives"):
        outs = [str(tmp_path / f"{command}-{n}.csv") for n in (1, 2)]
        for out in outs:
            assert _run(
                [command, "--scenario", small_scenario, "--grid", "51", "--samples", "4", "--out", out]
            ) == 0
        assert Path(outs[0]).read_bytes() == Path(outs[1]).read_bytes()


def test_grid_below_two_points_exit_code(small_scenario, capsys):
    assert _run(["optimize", "--scenario", small_scenario, "--grid", "1"]) == 2
    assert "DimensionError" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep-linearization", "compare-derivatives"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_samples_below_one_exit_code(small_scenario, command, samples, capsys):
    with pytest.raises(SystemExit) as exit_info:
        _run([command, "--scenario", small_scenario, "--samples", samples])
    assert exit_info.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_transient_concavity_report_matches_per_row_loop(tmp_path, capsys):
    from combidyn import (
        TimeGrid,
        evaluate_payoff,
        integrate,
        linearize,
        standard_derivative,
        step_system,
    )

    sc = default_scenario(10, seed=2, num_steps=1, transient=True)
    path = tmp_path / "transient10.yaml"
    write_scenario(sc, str(path))
    assert _run(["check-concavity", "--scenario", str(path), "--scheme", "rk4", "--grid", "11"]) == 0
    lines = capsys.readouterr().out.splitlines()

    spec = step_system(sc, sc.params.x0)
    grid = TimeGrid(sc.step_hours, 11)
    abar = np.zeros(10)
    grad = standard_derivative(linearize(spec, abar, grid, "rk4"))
    worst, worst_alpha, holds = -np.inf, None, True
    for code in range(1 << 10):
        alpha = np.array([(code >> (9 - j)) & 1 for j in range(10)], dtype=float)
        j_alpha = evaluate_payoff(spec, integrate(spec, alpha, grid, "rk4"), alpha)
        violation = (j_alpha - grad.base_payoff) - float(grad.entries @ (alpha - abar))
        if violation > worst:
            worst, worst_alpha = violation, alpha
        holds = holds and not violation > 1e-7 * (1.0 + abs(j_alpha))
    bits = "".join(str(int(v)) for v in worst_alpha)
    assert lines == [
        f"concavity inequality (standard derivative, 1024 points): {'pass' if holds else 'FAIL'}",
        f"worst violator {bits} with gap {format(worst, '.9g')}",
    ]


def test_negative_seed_exit_code(small_scenario, capsys):
    with pytest.raises(SystemExit) as exit_info:
        _run(["sweep-linearization", "--scenario", small_scenario, "--seed", "-1"])
    assert exit_info.value.code == 2
    assert "error: argument --seed" in capsys.readouterr().err


def test_output_in_missing_directory_exit_code(small_scenario, tmp_path, capsys):
    out = str(tmp_path / "missing" / "run.csv")
    assert _run(["optimize", "--scenario", small_scenario, "--grid", "51", "--out", out]) == 2
    assert "error: cannot write the output file" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["oracle", "optimize"])
def test_transient_oracle_integrates_no_row(command, tmp_path, monkeypatch, capsys):
    # A transient fleet's slot payoff is the same exact quadratic at binary
    # points as the linear fleet's: the only stack integrated is the one
    # probe of m + 1 rows, and no enumerated row is integrated.
    from combidyn import gradient, refrigeration, system

    def no_integration(*_args):
        raise AssertionError("the oracle integrated the enumerated rows")

    rows = []

    def counted(spec, alpha, *args, _integrate=system.integrate):
        rows.append(np.atleast_2d(alpha).shape[0])
        return _integrate(spec, alpha, *args)

    monkeypatch.setattr(system, "payoff_function", no_integration)
    for module in (system, gradient, refrigeration):
        monkeypatch.setattr(module, "integrate", counted)
    sc = default_scenario(10, seed=2, num_steps=2, transient=True)
    path = tmp_path / "transient10.yaml"
    write_scenario(sc, str(path))
    args = [command, "--scenario", str(path), "--scheme", "rk4", "--grid", "21"]
    if command == "optimize":
        args += ["--solver", "oracle"]
    assert _run(args) == 0
    out, err = capsys.readouterr()
    assert out and err == ""
    assert max(rows) == 11 and rows.count(11) == 1


@pytest.mark.parametrize("command", ["sweep-linearization", "compare-derivatives"])
def test_sampled_commands_refuse_the_oracle_solver_before_any_slot(command, capsys):
    # They certify linearized picks, which have no oracle route: argparse
    # refuses the option before a scenario is parsed.
    argv = [command, "--scenario", str(SCENARIO_DIR / "case1_m10.yaml"), "--solver", "oracle"]
    with pytest.raises(SystemExit) as exc:
        _run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'oracle'" in err
    assert "(step" not in err


def _diverging_scenario(path):
    # Heat-transfer rates scaled by 1e6: numpy overflows on the way to the
    # package's own non-finite checks.
    sc = default_scenario(10, seed=0, num_steps=2)
    fast = dataclasses.replace(sc, params=dataclasses.replace(sc.params, a=sc.params.a * 1e6))
    write_scenario(fast, str(path))
    return str(path)


@pytest.mark.parametrize(
    "options, message",
    [
        (
            ["optimize", "--solver", "oracle", "--grid", "21"],
            "NumericError: the objective is -inf at every feasible binary vector (step 2)",
        ),
        (
            ["certify", "--solver", "l0", "--grid", "201"],
            "IntegrationDivergedError: non-finite state at knot 106 (step 1)",
        ),
        (
            ["check-submodular", "--scheme", "euler", "--grid", "51"],
            "NumericError: the payoff is not finite at some binary vector (step 1)",
        ),
        (
            ["check-concavity", "--scheme", "euler", "--grid", "51"],
            "AdjointDivergedError: non-finite costate at knot 10 (step 1)",
        ),
    ],
)
def test_numeric_failure_prints_only_the_error_line(tmp_path, options, message):
    # A separate interpreter, because pytest captures warnings in-process:
    # numpy's overflow warnings must not reach stderr ahead of the error.
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    command, *rest = options
    argv = [command, "--scenario", _diverging_scenario(tmp_path / "diverging.yaml"), *rest]
    proc = subprocess.run(
        [sys.executable, "-m", "combidyn.cli", *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


def _odd_cycle_rows():
    sc = default_scenario(10, seed=2, num_steps=2)
    odd_cycle = np.zeros((3, 10))
    odd_cycle[0, 0] = odd_cycle[0, 1] = 1.0
    odd_cycle[1, 1] = odd_cycle[1, 2] = 1.0
    odd_cycle[2, 0] = odd_cycle[2, 2] = 1.0
    return dataclasses.replace(sc, case=TuCase(odd_cycle, np.ones(3), np.ones(2)))


@pytest.mark.parametrize(
    "scenario, options, code, start, end",
    [
        (_odd_cycle_rows, ["optimize", "--grid", "51"], 4, "TuViolationError: ", "not TU (step 1)"),
        (
            lambda: default_scenario(30, 0, "tu", num_steps=2),
            ["oracle", "--grid", "21"],
            2,
            "EnumerationRefusedError: ",
            "m = 30 > 24 (step 1)",
        ),
        (
            lambda: default_scenario(10, 2, "tu", num_steps=2),
            ["optimize", "--solver", "l0", "--grid", "21"],
            2,
            "ConstraintError: ",
            "target-band cases only (step 1)",
        ),
        *[
            (_odd_cycle_rows, [command, "--grid", "51", "--samples", "2"], 4, "TuViolationError: ", "not TU (step 1)")
            for command in ("sweep-linearization", "compare-derivatives")
        ],
    ],
)
def test_slot_errors_name_their_step_once(tmp_path, capsys, scenario, options, code, start, end):
    path = tmp_path / "slot.yaml"
    write_scenario(scenario(), str(path))
    command, *rest = options
    assert _run([command, "--scenario", str(path), *rest]) == code
    out, err = capsys.readouterr()
    line = err.rstrip("\n")
    assert out == "" and "\n" not in line
    assert line.startswith(f"error: {start}") and line.endswith(end)
    assert line.count("(step") == 1


@pytest.mark.parametrize(
    "command", ["sweep-linearization", "compare-derivatives", "check-concavity", "check-submodular"]
)
def test_first_slot_commands_name_no_step_outside_the_slot(command, small_scenario, tmp_path, capsys):
    # Parsing the scenario and building the grid come before slot 1's work.
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema_version: 1\nfleet: {m: oops}\n")
    samples = ["--samples", "2"] if command in ("sweep-linearization", "compare-derivatives") else []
    for argv, start in (
        (["--scenario", str(bad)], "error: ScenarioError: "),
        (["--scenario", small_scenario, "--grid", "1"], "error: DimensionError: "),
    ):
        assert _run([command, *argv, *samples]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(start) and err.count("\n") == 1
        assert "(step" not in err


@pytest.mark.parametrize(
    "scenario, scheme, kind",
    [
        *[("case1_m10", scheme, kind) for scheme in ("euler", "rk4") for kind in ("standard", "nonstandard")],
        ("case2_tu_m20", "euler", "standard"),
        ("case2_tu_m20", "rk4", "standard"),
    ],
)
def test_check_concavity_agrees_with_the_proved_premise(scenario, scheme, kind, capsys):
    # A linear fleet's slot payoff is a concave quadratic (its Hessian is
    # negative semidefinite), so the premise is proved; the exhaustive check
    # must agree with it under both derivatives up to m = 20.
    argv = ["check-concavity", "--scenario", str(SCENARIO_DIR / f"{scenario}.yaml")]
    assert _run([*argv, "--scheme", scheme, "--derivative", kind]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith(f"concavity inequality ({kind} derivative, ") and first.endswith(": pass")


def _subparsers():
    (commands,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def _declared(subparser):
    """{option string: choices or None} of a subparser, without the
    --scenario and --out every command takes."""
    return {
        action.option_strings[0]: tuple(action.choices) if action.choices else None
        for action in subparser._actions
        if action.dest not in ("help", "scenario", "out")
    }


class _RecordingNamespace(argparse.Namespace):
    """Records every attribute read once ``reads`` is set to a set."""

    reads = None

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "reads")
        if reads is not None and not name.startswith("__"):
            reads.add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_each_handler_reads_exactly_the_options_it_declares(command):
    subparser = _subparsers()[command]
    declared = {action.dest for action in subparser._actions} - {"help", "scenario", "out"}
    scenario = parse_scenario(str(SCENARIO_DIR / "case1_m10.yaml"))
    handler = cli._COMMANDS[command][0]
    for fmt in ("csv", "report") if "format" in declared else (None,):
        argv = [command, "--scenario", str(SCENARIO_DIR / "case1_m10.yaml"), "--grid", "21"]
        config = cli._build_parser().parse_args(
            argv + (["--format", fmt] if fmt else []), namespace=_RecordingNamespace()
        )
        config.reads = reads = set()
        handler(config, scenario)
        assert reads - {"command", "scenario", "out"} == declared, fmt


_REFUSED = [
    *[
        (command, option)
        for command in ("optimize", "certify", "oracle")
        for option in (["--seed", "1"], ["--samples", "2"])
    ],
    ("compare-derivatives", ["--derivative", "standard"]),
    *[
        ("check-concavity", option)
        for option in (["--solver", "tu"], ["--seed", "1"], ["--samples", "2"], ["--format", "csv"])
    ],
    *[
        ("check-submodular", option)
        for option in (
            ["--derivative", "standard"], ["--solver", "tu"], ["--seed", "1"], ["--samples", "2"], ["--format", "csv"]
        )
    ],
    ("sweep-linearization", ["--derivative", "both"]),
    ("check-concavity", ["--derivative", "both"]),
]


@pytest.mark.parametrize("command, option", _REFUSED, ids=[f"{c}{' '.join(o)}" for c, o in _REFUSED])
def test_an_option_the_command_does_not_read_is_refused_before_the_scenario(command, option, tmp_path, capsys):
    # The scenario does not exist: argparse must refuse ahead of reading it.
    with pytest.raises(SystemExit) as exc:
        _run([command, "--scenario", str(tmp_path / "missing.yaml"), *option])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "invalid choice" in err
    assert "ScenarioError" not in err and "(step" not in err


def _readme_options():
    """{command: {option string: choices or None}} from the README's table."""
    text = README.read_text(encoding="utf-8")
    block = text.split("| command | options |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    table = {}
    for row in block.splitlines():
        commands, options = row.strip("| ").split(" | ")
        for command in re.findall(r"`([a-z-]+)`", commands):
            table[command] = {
                flag: tuple(choices.split(",")) if choices else None
                for flag, choices in re.findall(r"`(--[a-z]+)(?: \{([a-z0-9,]+)\}| [A-Z]+)`", options)
            }
    return table


def test_readme_option_table_matches_the_parser():
    subparsers = _subparsers()
    assert _readme_options() == {name: _declared(p) for name, p in subparsers.items()}
    text = README.read_text(encoding="utf-8")
    defaults = dict(re.findall(r"`--([a-z]+) ([a-z0-9]+)`", text.split("The defaults are", 1)[1].split(".", 1)[0]))
    for subparser in subparsers.values():
        options = {a.option_strings[0]: a for a in subparser._actions}
        assert "--scenario" in options and "--out" in options
        for dest, default in defaults.items():
            if f"--{dest}" in options:
                assert str(options[f"--{dest}"].default) == default
