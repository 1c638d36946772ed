"""Batch command-line front end.

Each command reads ``--scenario`` and writes CSV or a report to ``--out``
(stdout when omitted).  It accepts only the options it reads (``_COMMANDS``):

* optimize, certify, oracle: the receding horizon as CSV rows per step/unit,
  per-step certificates, or per-step exhaustive optimum and achieved ratio.
  --derivative {standard,nonstandard,both} (no effect under --solver oracle),
  --solver {l0,tu,oracle}, --grid, --scheme {euler,rk4}, --format {csv,report}
* sweep-linearization: payoff gains over sampled linearization points.
  --derivative {standard,nonstandard}, --solver {l0,tu}, --grid, --scheme,
  --seed, --format, --samples
* compare-derivatives: both derivatives side by side; sweep's options but --derivative
* check-concavity, check-submodular: exhaustive certificate-validity and
  diminishing-returns checks (first slot).  --grid, --scheme; check-concavity
  also --derivative {standard,nonstandard}

Exit codes: 0 ok, 2 parse/configuration/output error (argparse refuses an
option the command does not read before the scenario is read), 3 infeasible,
4 numeric failure.  An error raised in slot k's work ends in ``(step k)``; the
first-slot commands run as step 1.  Floats print with 9 significant digits;
outputs are byte-identical under a fixed seed and configuration.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

import numpy as np

from .certify import check_concavity_inequality, monotonicity_report, submodularity_report
from .errors import (
    CombidynError,
    ConstraintError,
    DimensionError,
    EnumerationRefusedError,
    InfeasibleError,
    ScenarioError,
    named_step,
)
from .gradient import DERIVATIVE_KINDS, derivative, linearize
from .refrigeration import (
    HORIZON_KINDS,
    HORIZON_SOLVERS,
    LINEARIZED_SOLVERS,
    Scenario,
    run_receding_horizon,
    slot_payoff,
    slot_picks,
    step_constraints,
    step_system,
)
from .scenario_io import parse_scenario
from .system import SCHEMES, TimeGrid, integrate

_CONFIG_ERRORS = (ScenarioError, ConstraintError, DimensionError, EnumerationRefusedError)


def _fnum(x) -> str:
    return format(float(x), ".9g")


def _bits(alpha) -> str:
    return "".join(str(int(v)) for v in alpha)


def _horizon(config: argparse.Namespace, scenario: Scenario):
    return run_receding_horizon(
        scenario,
        kind=config.derivative,
        solver=config.solver,
        grid_points=config.grid,
        scheme=config.scheme,
        with_oracle=config.command == "oracle",
    )


def _cmd_optimize(config: argparse.Namespace, scenario: Scenario):
    results = _horizon(config, scenario)
    if config.format == "csv":
        lines = ["step,unit,alpha,temperature_end,power_kw,payoff,rho_post"]
        for res in results:
            for unit in range(scenario.params.m):
                lines.append(
                    ",".join(
                        [
                            str(res.step),
                            str(unit + 1),
                            str(int(res.alpha[unit])),
                            _fnum(res.temperatures_end[unit]),
                            _fnum(res.power_kw),
                            _fnum(res.payoff),
                            _fnum(res.rho_post),
                        ]
                    )
                )
    else:
        lines = [f"receding horizon: {len(results)} steps, {scenario.params.m} units"]
        for res in results:
            # The oracle route linearizes nothing: it applies the exhaustive optimum.
            note = "exhaustive optimum applied" if res.kind == "oracle" else "base optimal"
            tag = f"  ({note})" if res.optimal else ""
            lines.append(
                f"step {res.step:3d}  on={int(res.alpha.sum()):3d}  "
                f"power={_fnum(res.power_kw)} kW  payoff={_fnum(res.payoff)}  "
                f"rho_post={_fnum(res.rho_post)}{tag}"
            )
    return lines


def _cmd_certify(config: argparse.Namespace, scenario: Scenario):
    results = _horizon(config, scenario)
    if config.format == "csv":
        lines = ["step,kind,payoff,base_payoff,rho,rho_post,optimal"]
        for res in results:
            lines.append(
                ",".join(
                    [
                        str(res.step),
                        res.kind,
                        _fnum(res.payoff),
                        _fnum(res.base_payoff),
                        _fnum(res.rho) if res.rho is not None else "",
                        _fnum(res.rho_post),
                        str(int(res.optimal)),
                    ]
                )
            )
    else:
        lines = ["per-step suboptimality certificates"]
        for res in results:
            if res.kind == "oracle":
                lines.append(f"step {res.step:3d}  exhaustive optimum applied")
            elif res.optimal:
                lines.append(f"step {res.step:3d}  linearization point certified optimal")
            else:
                lines.append(
                    f"step {res.step:3d}  rho_post={_fnum(res.rho_post)}  "
                    f"payoff gain={_fnum(res.payoff - res.base_payoff)}"
                )
    return lines


def _cmd_oracle(config: argparse.Namespace, scenario: Scenario):
    results = _horizon(config, scenario)
    if config.format == "csv":
        lines = ["step,payoff_gain,oracle_gain,ratio,rho_post"]
        for res in results:
            lines.append(
                ",".join(
                    [
                        str(res.step),
                        _fnum(res.payoff - res.base_payoff),
                        _fnum(res.oracle_payoff - res.base_payoff),
                        _fnum(res.oracle_ratio),
                        _fnum(res.rho_post),
                    ]
                )
            )
    else:
        ratios = [res.oracle_ratio for res in results]
        lines = ["per-step comparison against the exhaustive optimum"]
        for res in results:
            lines.append(
                f"step {res.step:3d}  ratio={_fnum(res.oracle_ratio)}  "
                f"rho_post={_fnum(res.rho_post)}"
            )
        lines.append(f"worst ratio {_fnum(min(ratios))}, mean {_fnum(float(np.mean(ratios)))}")
    return lines


@contextmanager
def _first_slot(config: argparse.Namespace, scenario: Scenario):
    """Slot 1's (spec, constraints, count band, grid) for a block run as step
    1; a bad ``--grid`` fails ahead of the step, as a configuration error."""
    grid = TimeGrid(scenario.step_hours, config.grid)
    with named_step(1):
        yield (step_system(scenario, scenario.params.x0), *step_constraints(scenario, 1), grid)


def _sampled_picks(config: argparse.Namespace, scenario: Scenario, kinds):
    """Certified first-slot picks at sampled linearization points: all-zeros
    first, then ``samples - 1`` uniform draws.  A list of (index, base, picks)
    with picks[kind] a :class:`SlotPick`."""
    m = scenario.params.m
    rng = np.random.default_rng(config.seed)
    bases = [np.zeros(m)] + [rng.integers(0, 2, m).astype(float) for _ in range(config.samples - 1)]
    with _first_slot(config, scenario) as (spec, con, band, grid):
        return [(idx, abar, slot_picks(spec, abar, con, band, kinds, config.solver, grid, config.scheme))
                for idx, abar in enumerate(bases)]


def _cmd_sweep(config: argparse.Namespace, scenario: Scenario):
    rows = []
    for idx, abar, picks in _sampled_picks(config, scenario, (config.derivative,)):
        pick = picks[config.derivative]
        if idx == 0:
            baseline = pick.cert.base_payoff  # sample 0 linearizes at all-off
        rows.append((idx, abar, pick.payoff - baseline, pick.cert.rho_post))
    if config.format == "csv":
        lines = ["sample,alpha_bar,payoff_gain,rho_post"]
        for idx, abar, gain, rho_post in rows:
            lines.append(f"{idx},{_bits(abar)},{_fnum(gain)},{_fnum(rho_post)}")
    else:
        gains = [row[2] for row in rows]
        lines = [
            f"linearization sweep over {len(rows)} base points (first slot)",
            f"payoff gain over all-off: min {_fnum(min(gains))}, "
            f"mean {_fnum(float(np.mean(gains)))}, max {_fnum(max(gains))}",
        ]
    return lines


def _cmd_compare(config: argparse.Namespace, scenario: Scenario):
    rows = []
    for idx, abar, picks in _sampled_picks(config, scenario, DERIVATIVE_KINDS):
        std, ns = (picks[kind] for kind in DERIVATIVE_KINDS)
        gdiff = float(np.max(np.abs(std.grad.entries - ns.grad.entries)))
        rows.append((idx, abar, std.payoff, ns.payoff, gdiff))
    avg_std = float(np.mean([r[2] for r in rows]))
    avg_ns = float(np.mean([r[3] for r in rows]))
    max_gdiff = max(r[4] for r in rows)
    if config.format == "csv":
        lines = ["sample,alpha_bar,payoff_standard,payoff_nonstandard,grad_max_diff"]
        for idx, abar, ps, pn, gd in rows:
            lines.append(f"{idx},{_bits(abar)},{_fnum(ps)},{_fnum(pn)},{_fnum(gd)}")
        lines.append(f"# mean_standard={_fnum(avg_std)} mean_nonstandard={_fnum(avg_ns)} "
                     f"grad_max_diff={_fnum(max_gdiff)}")
    else:
        lines = [
            f"derivative comparison over {len(rows)} base points (first slot)",
            f"mean payoff, standard:    {_fnum(avg_std)}",
            f"mean payoff, nonstandard: {_fnum(avg_ns)}",
            f"max gradient difference:  {_fnum(max_gdiff)}",
        ]
    return lines


def _cmd_check_concavity(config: argparse.Namespace, scenario: Scenario):
    abar = np.zeros(scenario.params.m)
    with _first_slot(config, scenario) as (spec, _con, _band, grid):
        lin = linearize(spec, abar, grid, config.scheme)
        payoff_fn, _fleet = slot_payoff(scenario, spec, config.scheme, lin.forward)
        grad = derivative(lin, config.derivative)
        report = check_concavity_inequality(payoff_fn, grad)
    verdict = "pass" if report.holds else "FAIL"
    return [
        f"concavity inequality ({grad.kind} derivative, {1 << abar.size} points): {verdict}",
        f"worst violator {_bits(report.witness)} with gap {_fnum(report.worst_gap)}",
    ]


def _cmd_check_submodular(config: argparse.Namespace, scenario: Scenario):
    m = scenario.params.m
    with _first_slot(config, scenario) as (spec, _con, _band, grid):
        base_path = integrate(spec, np.zeros(m), grid, config.scheme)
        payoff_fn, _fleet = slot_payoff(scenario, spec, config.scheme, base_path)
        sub = submodularity_report(payoff_fn, m)
        mono = monotonicity_report(payoff_fn, m)
    return [
        f"submodularity: {'pass' if sub.holds else 'FAIL'} "
        f"(worst second difference {_fnum(sub.worst_gap)} at {_bits(sub.witness)})",
        f"monotonicity: {'pass' if mono.holds else 'FAIL'} "
        f"(worst drop {_fnum(mono.worst_gap)} at {_bits(mono.witness)})",
    ]


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


# Every option's argparse spec by destination; the horizon commands widen two.
_OPTIONS = {
    "derivative": dict(default="standard", choices=DERIVATIVE_KINDS),
    "solver": dict(default="tu", choices=LINEARIZED_SOLVERS),
    "grid": dict(type=int, default=201, help="time points per slot"),
    "scheme": dict(default="euler", choices=SCHEMES),
    "seed": dict(type=nonnegative_int, default=0),
    "format": dict(default="csv", choices=("csv", "report")),
    "samples": dict(type=positive_int, default=100, help="sample count for sweeps"),
}
_HORIZON = ("derivative", "solver", "grid", "scheme", "format")
_WIDE = {"derivative": HORIZON_KINDS, "solver": HORIZON_SOLVERS}
_SAMPLED = ("solver", "grid", "scheme", "seed", "format", "samples")

# command: (handler, the options it reads besides --scenario and --out, widened choices)
_COMMANDS = {
    "optimize": (_cmd_optimize, _HORIZON, _WIDE),
    "certify": (_cmd_certify, _HORIZON, _WIDE),
    "oracle": (_cmd_oracle, _HORIZON, _WIDE),
    "sweep-linearization": (_cmd_sweep, ("derivative", *_SAMPLED), {}),
    "compare-derivatives": (_cmd_compare, _SAMPLED, {}),
    "check-concavity": (_cmd_check_concavity, ("derivative", "grid", "scheme"), {}),
    "check-submodular": (_cmd_check_submodular, ("grid", "scheme"), {}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combidyn",
        description="Optimize binary decisions governing an ODE fleet and certify the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, options, widened) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="scenario file path")
        for dest in options:
            spec = {**_OPTIONS[dest], "choices": widened[dest]} if dest in widened else _OPTIONS[dest]
            p.add_argument(f"--{dest}", **spec)
        p.add_argument("--out", default=None, help="output path (stdout when omitted)")
    return parser


def main(argv=None) -> int:
    config = _build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # the package's finiteness checks report instead
            lines = _COMMANDS[config.command][0](config, parse_scenario(config.scenario))
    except CombidynError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, _CONFIG_ERRORS):
            return 2
        return 3 if isinstance(exc, InfeasibleError) else 4
    text = "\n".join(lines) + "\n"
    if not config.out:
        sys.stdout.write(text)
        return 0
    try:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write the output file: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
