"""Receding-horizon benchmark of the combidyn command-line front end.

A workload writes one generated scenario file and runs ``combidyn.cli.main``
on it again and again, one closed-loop horizon after another, until the
requested number of seconds has passed.  Everything is observed from the
outside: the benchmark rebinds public function names inside the package
modules to thin wrappers and restores them afterwards.  No source file of
the package is changed.

* ``step_system`` is stamped on every call; a slot is the interval between
  two consecutive stamps, and the last slot of a horizon ends when ``main``
  returns, so CSV formatting and writing are part of it.
* ``cli.run_receding_horizon`` is wrapped to capture the ``StepResult``s,
  which the correctness gate re-checks after the timed region.
* Where few horizons fit in a run, set-up probes add set-up samples: each
  calls ``main`` and abandons it at its first slot.
* With tracing on, every public layer function named in ``TRACED`` records a
  span (name, start, end, parent) and the spec callables built by
  ``build_etp_system`` / ``build_transient_system`` count their calls.

Entry points (``run.py``, ``selftest.py``) pin BLAS threads before they
import this module, because numpy reads the pins once, at import.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import yaml
from run import PINS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

GRID = 201
SCHEME = "rk4"
MIN_HORIZONS = 2  # the CSV repeat check needs a second horizon
SETUP_SAMPLES = 15  # set-up samples per untraced run, topped up by set-up probes


class SourceMissing(RuntimeError):
    """The checkout holds no package source to benchmark."""


def import_package():
    """Import combidyn from this checkout's ``src`` and nowhere else."""
    init = SRC / "combidyn" / "__init__.py"
    if not init.is_file():
        raise SourceMissing(f"no package source at {init}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("combidyn")
    if Path(pkg.__file__).resolve() != init.resolve():
        raise SourceMissing(f"combidyn was imported from {pkg.__file__}, not {init}")
    # import_module, not ``import combidyn.certify as m``: the package
    # re-exports the function ``certify`` under the module's name.
    return {name: importlib.import_module(f"combidyn.{name}") for name in LAYERS}


LAYERS = (
    "system",
    "adjoint",
    "gradient",
    "solvers",
    "simplex",
    "certify",
    "refrigeration",
    "scenario_io",
    "cli",
)

# Public functions that get a span in the traced run, as module.function.
TRACED = (
    "system.integrate",
    "system.evaluate_payoff",
    "system.affine_state_model",
    "adjoint.solve_adjoint",
    "gradient.standard_derivative",
    "gradient.nonstandard_derivative",
    "simplex.solve_boxed_lp",
    "solvers.solve_tu",
    "solvers.solve_l0",
    "solvers.solve_bruteforce",
    "certify.certify",
    "refrigeration.quadratic_payoff_model",
    "refrigeration.run_receding_horizon",
    "scenario_io.parse_scenario",
    "cli.main",
)

# Spec callables whose calls are counted, keyed by the metric's short name.
CALLBACKS = {
    "field": "vector_field",
    "payoff": "running_payoff",
    "jac_f_x": "jac_f_x",
    "jac_r_x": "jac_r_x",
    "jac_f_alpha": "jac_f_alpha",
}


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    case: str
    transient: bool
    command: str
    derivative: str
    solver: str
    num_steps: int = 32  # the default_scenario horizon, peak steps 9..16 included

    def argv(self, scenario_path: Path, csv_path: Path) -> list:
        return [
            self.command,
            "--scenario", str(scenario_path),
            "--derivative", self.derivative,
            "--solver", self.solver,
            "--scheme", SCHEME,
            "--grid", str(GRID),
            "--out", str(csv_path),
        ]


# Why each workload exists: BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "horizon_tu_m100", m=100, case="tu", transient=False,
            command="certify", derivative="standard", solver="tu",
        ),
        Workload(
            "horizon_transient_both_m20", m=20, case="target_band", transient=True,
            command="certify", derivative="both", solver="l0",
        ),
        Workload(
            "oracle_tu_m20", m=20, case="tu", transient=False,
            command="oracle", derivative="standard", solver="tu",
        ),
    )
}

# Two slots at m = 20 through the oracle path: exercises every gate check.
SMOKE = Workload(
    "smoke", m=20, case="tu", transient=False,
    command="oracle", derivative="standard", solver="tu", num_steps=2,
)

END_TO_END = {
    "slot_ms_p50": "ms",
    "slot_ms_p90": "ms",
    "slots_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "comfort_gain_share": "share",
    "rho_post_mean": "ratio",
    "oracle_ratio_min": "ratio",
    "slot_ok_share": "share",
}


def per_layer_units() -> dict:
    units = {}
    for name in TRACED:
        if name == "cli.main":
            units["cli.self_ms_per_slot"] = "ms/slot"
            continue
        units[f"{name}.calls_per_slot"] = "calls/slot"
        units[f"{name}.self_ms_per_slot"] = "ms/slot"
    for short in CALLBACKS:
        units[f"system.{short}_calls_per_slot"] = "calls/slot"
    units["certify.improved_share"] = "share"
    units["gradient.nonstandard_win_share"] = "share"
    units["bench.trace_overhead_share"] = "share"
    return units


PER_LAYER = per_layer_units()


# ---------------------------------------------------------------------------
# Rebinding names inside the package


class Rebinder:
    """Replace a function object under every name that holds it in the
    package modules, and put the originals back on ``restore``."""

    def __init__(self, modules: list):
        self.modules = modules
        self._undo = []

    def rebind(self, original, replacement) -> None:
        hits = 0
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))
                    hits += 1
        if not hits:
            raise RuntimeError(f"{getattr(original, '__qualname__', original)} is bound nowhere")

    def set(self, module, attr: str, replacement) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)


def package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "combidyn" or name.startswith("combidyn.")]


class Tracer:
    """In-memory spans with self time, plus callback counters."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1)
        self._stack = []  # [span id, child seconds]
        self._next_id = 0
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.callbacks = Counter()
        self.certify_improved = 0

    def span(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                spans.append((span_id, name, start, end, parent))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        counts = self.callbacks

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def count_spec(self, spec):
        return replace(
            spec,
            **{attr: self.counted(key, getattr(spec, attr)) for key, attr in CALLBACKS.items()},
        )

    def on_certify(self, args, kwargs, cert) -> None:
        base = kwargs["alpha_bar"] if "alpha_bar" in kwargs else args[1]
        if np.array_equal(cert.alpha_post, cert.alpha_star) and not np.array_equal(
            cert.alpha_star, np.asarray(base, dtype=float)
        ):
            self.certify_improved += 1

    def install(self, rebinder: Rebinder, layers: dict) -> None:
        for name in TRACED:
            module, func = name.split(".")
            original = getattr(layers[module], func)
            hook = self.on_certify if name == "certify.certify" else None
            rebinder.rebind(original, self.span(name, original, hook))
        refrigeration = layers["refrigeration"]
        for builder in ("build_etp_system", "build_transient_system"):
            original = getattr(refrigeration, builder)
            rebinder.rebind(original, self._counting_builder(original))

    def _counting_builder(self, build: Callable) -> Callable:
        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            return self.count_spec(build(*args, **kwargs))

        return wrapper

    def dump(self, path: Path, extra: dict) -> None:
        t0 = min((s[2] for s in self.spans), default=0.0)
        doc = dict(extra)
        doc["spans"] = [
            {"id": i, "name": n, "start_s": s - t0, "end_s": e - t0, "parent": p}
            for i, n, s, e, p in sorted(self.spans)
        ]
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# One horizon through the CLI


@dataclass
class Horizon:
    """One ``main()`` call: timings, captured results and the CSV bytes."""

    traced: bool
    setup_s: float = math.nan
    slots_ms: list = field(default_factory=list)
    wall_s: float = math.nan
    results: Optional[list] = None
    csv: bytes = b""
    error: Optional[str] = None


class _SetupDone(Exception):
    """Raised at the first slot of a set-up probe to end the ``main()`` call."""


class Probe:
    """Stamps ``step_system`` calls and captures ``run_receding_horizon``
    results; ``plant`` may alter the captured results before the CLI prints
    them (the self-test uses it to plant a bad decision)."""

    def __init__(self, layers: dict, plant: Optional[Callable] = None):
        self.layers = layers
        self.plant = plant
        self.stamps = []
        self.results = None
        self.stop_at_first_slot = False

    def install(self, rebinder: Rebinder) -> None:
        refrigeration, cli = self.layers["refrigeration"], self.layers["cli"]
        step_system = refrigeration.step_system
        stamps = self.stamps

        @functools.wraps(step_system)
        def stamped(*args, **kwargs):
            stamps.append(time.perf_counter())
            if self.stop_at_first_slot:
                raise _SetupDone
            return step_system(*args, **kwargs)

        rebinder.rebind(step_system, stamped)

        # Only the CLI's binding is replaced, and run_receding_horizon is looked
        # up at call time, so a traced one sits below the capture.
        @functools.wraps(cli.run_receding_horizon)
        def captured(*args, **kwargs):
            results = refrigeration.run_receding_horizon(*args, **kwargs)
            if self.plant is not None:
                results = self.plant(results)
            self.results = results
            return results

        rebinder.set(cli, "run_receding_horizon", captured)

    def horizon(self, workload: Workload, scenario_path: Path, csv_path: Path, traced: bool) -> Horizon:
        main = self.layers["cli"].main
        self.stamps.clear()
        self.results = None
        out = Horizon(traced)
        if csv_path.exists():
            csv_path.unlink()
        start = time.perf_counter()
        try:
            code = main(workload.argv(scenario_path, csv_path))
        except Exception:
            out.error = traceback.format_exc(limit=3)
            return out
        end = time.perf_counter()
        if code != 0:
            out.error = f"main returned exit code {code}"
            return out
        stamps = self.stamps + [end]
        out.setup_s = stamps[0] - start
        out.slots_ms = [1000.0 * (b - a) for a, b in zip(stamps, stamps[1:])]
        out.wall_s = end - stamps[0]
        out.results = self.results
        out.csv = csv_path.read_bytes()
        return out

    def setup_probe(self, workload: Workload, scenario_path: Path, csv_path: Path) -> Optional[float]:
        """Time one ``main()`` call up to its first slot, then abandon it.
        None when ``main`` fails or ends first; the horizons report why."""
        main = self.layers["cli"].main
        self.stamps.clear()
        self.stop_at_first_slot = True
        start = time.perf_counter()
        try:
            main(workload.argv(scenario_path, csv_path))
        except _SetupDone:
            return self.stamps[0] - start
        except Exception:
            return None
        finally:
            self.stop_at_first_slot = False
        return None


# ---------------------------------------------------------------------------
# Correctness gate


def slot_failures(layers: dict, workload: Workload, scenario, results) -> list:
    """Failure reason (or None) for every slot of one captured horizon."""
    system, refrigeration, solvers = layers["system"], layers["refrigeration"], layers["solvers"]
    grid = system.TimeGrid(scenario.step_hours, GRID)
    reasons = []
    x = scenario.params.x0
    if len(results) != scenario.num_steps:
        return [f"{len(results)} results for {scenario.num_steps} slots"] * scenario.num_steps
    for k, res in enumerate(results, start=1):
        reason = None
        con, _band = refrigeration.step_constraints(scenario, k)
        alpha = np.asarray(res.alpha, dtype=float)
        if not (system.is_binary(alpha) and solvers.is_feasible(con, alpha)):
            reason = "applied decision breaks the slot constraints"
        elif not math.isfinite(res.payoff):
            reason = "payoff is not finite"
        else:
            spec = refrigeration.step_system(scenario, x)
            traj = system.integrate(spec, alpha, grid, SCHEME)
            again = system.evaluate_payoff(spec, traj, alpha)
            if not abs(again - res.payoff) <= 1e-9 * abs(again):
                reason = f"payoff {res.payoff!r} does not re-evaluate ({again!r})"
            elif not np.allclose(traj.final_state, res.temperatures_end, rtol=1e-9, atol=0.0):
                reason = "end temperatures do not re-evaluate"
        if reason is None and workload.command == "oracle":
            if res.oracle_ratio is None or not math.isfinite(res.oracle_ratio):
                reason = "no oracle ratio"
            elif not res.optimal and res.oracle_ratio + 1e-9 < res.rho_post:
                reason = f"oracle ratio {res.oracle_ratio!r} below rho_post {res.rho_post!r}"
        reasons.append(reason)
        x = res.temperatures_end
    return reasons


def same_slot(a, b) -> bool:
    return (
        np.array_equal(a.alpha, b.alpha)
        and np.array_equal(a.temperatures_end, b.temperatures_end)
        and a.payoff == b.payoff
        and a.rho_post == b.rho_post
        and a.kind == b.kind
        and a.oracle_ratio == b.oracle_ratio
    )


def gate(layers: dict, workload: Workload, scenario, horizons: list):
    """Return (failed slots per horizon, first failure message)."""
    reference = next((h for h in horizons if h.error is None), None)
    verdicts = (
        slot_failures(layers, workload, scenario, reference.results) if reference else None
    )
    failed, first = [], None
    for h in horizons:
        if h.error is not None:
            reasons = [h.error] * scenario.num_steps
        elif h.csv != reference.csv:
            reasons = ["CSV bytes differ between repeats"] * scenario.num_steps
        elif len(h.results) != len(reference.results):
            reasons = ["slot count differs between repeats"] * scenario.num_steps
        else:
            reasons = [
                v if same_slot(r, ref) else "slot differs between repeats"
                for v, r, ref in zip(verdicts, h.results, reference.results)
            ]
        bad = [(k, r) for k, r in enumerate(reasons, start=1) if r is not None]
        failed.append(len(bad))
        if bad and first is None:
            first = f"slot {bad[0][0]}: {bad[0][1]}"
    return failed, first


# ---------------------------------------------------------------------------
# Environment record


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_id = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "pins": {var: os.environ.get(var) for var in PINS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "blas": blas_id,
        "nproc": nproc,
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# Running a workload


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    plant: Optional[Callable] = None,
) -> dict:
    """Run one workload for ``seconds`` and return the result document.

    With ``trace`` off, every horizon is untraced and the end-to-end metrics
    are reported.  With ``trace`` on, untraced and traced horizons alternate
    and the per-layer metrics come from the traced ones.
    """
    layers = import_package()
    refrigeration, scenario_io = layers["refrigeration"], layers["scenario_io"]
    WORK.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{seed}-{os.getpid()}"
    scenario_path = WORK / f"{tag}.yaml"
    warm_path = WORK / f"{tag}-warm.yaml"
    csv_path = WORK / f"{tag}.csv"

    scenario = refrigeration.default_scenario(
        workload.m, seed, case=workload.case, num_steps=workload.num_steps,
        transient=workload.transient,
    )
    scenario_io.write_scenario(scenario, str(scenario_path))
    scenario_io.write_scenario(replace(scenario, num_steps=1, case=_first_slot_case(scenario)),
                               str(warm_path))

    rebinder = Rebinder(package_modules())
    probe = Probe(layers, plant)
    tracer = Tracer()
    horizons = []
    try:
        probe.install(rebinder)
        warm = probe.horizon(workload, warm_path, csv_path, traced=False)  # untimed warm-up
        # Set-up probes run before each horizon where few horizons fit, so that
        # the set-up samples span the run, as the slots do; the machine's speed
        # drifts within a run.
        probes_per_horizon = 0
        if not trace and warm.error is None:
            horizon_s = warm.setup_s + workload.num_steps * warm.wall_s
            expected = max(MIN_HORIZONS, seconds / horizon_s)
            probes_per_horizon = max(0, round(SETUP_SAMPLES / expected) - 1)
        setups = []
        traced_next = False
        start = time.perf_counter()
        # Start a horizon only while it is expected to end within the budget.
        while len(horizons) < MIN_HORIZONS or (
            (time.perf_counter() - start) * (len(horizons) + 1) / len(horizons) <= seconds
        ):
            if traced_next:
                tracing = Rebinder(package_modules())
                tracer.install(tracing, layers)
                try:
                    horizons.append(probe.horizon(workload, scenario_path, csv_path, traced=True))
                finally:
                    tracing.restore()
            else:
                for _ in range(probes_per_horizon):
                    setups.append(probe.setup_probe(workload, scenario_path, csv_path))
                horizons.append(probe.horizon(workload, scenario_path, csv_path, traced=False))
            traced_next = trace and not traced_next
        setups += [h.setup_s for h in horizons if h.error is None and not h.traced]
        if not trace and any(h.error is None for h in horizons):
            for _ in range(SETUP_SAMPLES - len(setups)):
                setups.append(probe.setup_probe(workload, scenario_path, csv_path))
        setups = [t for t in setups if t is not None]
    finally:
        rebinder.restore()

    failed, first_failure = gate(layers, workload, scenario, horizons)
    attempted = scenario.num_steps * len(horizons)
    metrics = (per_layer(horizons, tracer) if trace
               else end_to_end(workload, horizons, setups, failed, attempted))
    detail = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "grid": GRID,
        "scheme": SCHEME,
        "horizons": len(horizons),
        "slots": attempted,
        "setup_samples": len(setups),
        "first_failure": first_failure,
        "environment": environment(),
    }
    if trace:
        tracer.dump(WORK / f"trace-{workload.name}-seed{seed}.json", detail)
    for path in (scenario_path, warm_path, csv_path):
        path.unlink(missing_ok=True)
    return {
        "detail": detail,
        "result": {
            "correct": sum(failed) == 0,
            "attempted": attempted,
            "failed": sum(failed),
            "metrics": metrics,
        },
    }


def _first_slot_case(scenario):
    """The constraint case cut down to its first slot (for the warm-up)."""
    case = scenario.case
    if hasattr(case, "z_bar"):
        return replace(case, z_bar=case.z_bar[:1])
    return replace(case, y_lo=case.y_lo[:1], y_hi=case.y_hi[:1])


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def comfort_gain_share(results) -> float:
    """Share of the base point's band penalty that the applied decisions
    remove, summed over the slots of one horizon.  Unlike the raw payoff sum
    it is comparable across fleets drawn from different seeds."""
    gain = sum(r.payoff - r.base_payoff for r in results)
    return gain / -sum(r.base_payoff for r in results)


def end_to_end(workload: Workload, horizons: list, setups: list, failed: list,
               attempted: int) -> dict:
    good = [h for h in horizons if h.error is None]
    slots = [ms for h in good for ms in h.slots_ms]
    reference = good[0].results if good else []
    if workload.command == "oracle":
        ratios = [r.oracle_ratio for r in reference if r.oracle_ratio is not None]
        oracle_min = min(ratios) if ratios else math.nan
    else:
        oracle_min = 1.0  # no oracle runs on this workload
    values = {
        "slot_ms_p50": percentile(slots, 50) if slots else math.nan,
        "slot_ms_p90": percentile(slots, 90) if slots else math.nan,
        "slots_per_s": len(slots) / sum(h.wall_s for h in good) if good else 0.0,
        "setup_s": statistics.median(setups) if setups else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "comfort_gain_share": comfort_gain_share(reference) if reference else math.nan,
        "rho_post_mean": statistics.fmean(r.rho_post for r in reference) if reference else math.nan,
        "oracle_ratio_min": oracle_min,
        "slot_ok_share": 1.0 - sum(failed) / attempted,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(horizons: list, tracer: Tracer) -> dict:
    traced = [h for h in horizons if h.traced and h.error is None]
    plain = [h for h in horizons if not h.traced and h.error is None]
    n = sum(len(h.slots_ms) for h in traced) or 1
    values = {}
    for name in TRACED:
        self_ms = 1000.0 * tracer.self_s[name] / n
        if name == "cli.main":
            values["cli.self_ms_per_slot"] = self_ms
            continue
        values[f"{name}.calls_per_slot"] = tracer.calls[name] / n
        values[f"{name}.self_ms_per_slot"] = self_ms
    for short in CALLBACKS:
        values[f"system.{short}_calls_per_slot"] = tracer.callbacks[short] / n
    certified = tracer.calls["certify.certify"]
    values["certify.improved_share"] = tracer.certify_improved / certified if certified else 0.0
    kinds = [r.kind for h in traced for r in h.results]
    values["gradient.nonstandard_win_share"] = (
        kinds.count("nonstandard") / len(kinds) if kinds else 0.0
    )
    p50_traced = percentile([ms for h in traced for ms in h.slots_ms], 50) if traced else math.nan
    p50_plain = percentile([ms for h in plain for ms in h.slots_ms], 50) if plain else math.nan
    values["bench.trace_overhead_share"] = p50_traced / p50_plain - 1.0
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER.items()}
