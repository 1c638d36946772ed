"""Byte-for-byte CLI regression against recorded outputs.

Each file under ``tests/golden/`` is the recorded stdout of one command on a
shipped scenario, or on the generated m = 100 Case II fleet, whose 41-row LP
no shipped scenario has.  The m = 20 oracle and concavity runs enumerate
2^20 rows in sixteen blocks, so they cover the enumerator's block boundaries.
The transient m = 20 concavity run pins the standard derivative's premise
failure on that fleet (FAIL, gap 5.66).
Changes that promise identical numbers keep these bytes and the exit code; a
change that moves numbers on purpose re-records the affected files and says
so in CHANGES.md.
"""

from pathlib import Path

import pytest

from combidyn import default_scenario, write_scenario
from combidyn.cli import main

ROOT = Path(__file__).parent
SCENARIOS = ROOT.parent / "scenarios"
GOLDEN = ROOT / "golden"
RK4 = ["--scheme", "rk4"]
SAMPLES = ["--samples", "4", "--scheme", "rk4"]

RUNS = {
    "optimize_case1_m10": ["optimize", "case1_m10"],
    "certify_both_l0_report_case1_m20": [
        "certify", "case1_m20", *RK4, "--derivative", "both", "--solver", "l0", "--format", "report"
    ],
    "certify_both_l0_transient_m20": [
        "certify", "transient_m20", *RK4, "--derivative", "both", "--solver", "l0"
    ],
    "certify_nonstandard_case2_tu_m20": [
        "certify", "case2_tu_m20", *RK4, "--derivative", "nonstandard"
    ],
    "oracle_case1_m10": ["oracle", "case1_m10"],
    "oracle_rk4_case2_tu_m20": ["oracle", "case2_tu_m20", *RK4],
    "optimize_oracle_case1_m10": ["optimize", "case1_m10", "--solver", "oracle"],
    "sweep_case1_m10": ["sweep-linearization", "case1_m10", *SAMPLES],
    "compare_transient_m20": ["compare-derivatives", "transient_m20", *SAMPLES],
    "check_concavity_case1_m10": ["check-concavity", "case1_m10", *RK4],
    "check_concavity_rk4_case1_m20": ["check-concavity", "case1_m20", *RK4],
    "check_concavity_standard_rk4_transient_m20": [
        "check-concavity", "transient_m20", *RK4, "--grid", "21"
    ],
    "check_submodular_case1_m10": ["check-submodular", "case1_m10", *RK4],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_matches_recorded_bytes(name, capsys):
    command, scenario, *options = RUNS[name]
    argv = [command, "--scenario", str(SCENARIOS / f"{scenario}.yaml"), *options]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes()


def test_m100_tu_certificates_match_recorded_bytes(tmp_path, capsys):
    path = tmp_path / "tu_m100.yaml"
    write_scenario(default_scenario(100, 0, "tu"), str(path))
    argv = ["certify", "--scenario", str(path), "--derivative", "standard", "--solver", "tu", *RK4]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode("utf-8") == (GOLDEN / "certify_tu_m100.txt").read_bytes()
