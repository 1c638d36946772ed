"""Scenario files: a versioned, hand-editable structured-text format.

The format is YAML restricted to mappings, sequences and scalars, with an
explicit ``schema_version`` field.  Matrices are written row-major with
declared dimensions ({rows, cols, data}).  Parsing walks the composed node
graph instead of plain ``safe_load`` so every validation error can name the
field path and the line it came from, and unknown keys are rejected at every
level.

Unit indices in files (the transient ``members`` list) are 1-based, matching
the unit numbering in reports; they are converted at this boundary.  The
parser and the writer walk one table of the fleet's vectors, in file order.

Top-level layout::

    schema_version: 1
    fleet:
      m, a {rows, cols, data}, b, theta_ambient, theta_lo, theta_hi,
      delta, c, x0            # scalars broadcast to length m
    schedule:
      step_minutes, num_steps
    case:
      kind: target_band       # y_lo, y_hi (scalars broadcast to num_steps)
      kind: tu                # Q {rows, cols, data}, r, z_bar
    transient:                # optional: xi (scalar or per unit), members
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
import yaml

from .errors import ConstraintError, DimensionError, ScenarioError
from .refrigeration import (
    _FLEET_VECTORS,
    EtpParams,
    Scenario,
    TargetBandCase,
    TransientConfig,
    TuCase,
)

SCHEMA_VERSION = 1
# libyaml composes the same node graph, marks included, an order of magnitude faster.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class _Node:
    """A composed YAML node plus the path that led to it."""

    def __init__(self, node, path):
        self.node = node
        self.path = path

    @property
    def line(self) -> int:
        return self.node.start_mark.line + 1

    def fail(self, message) -> ScenarioError:
        return ScenarioError(self.path, message, self.line)

    def mapping(self) -> dict:
        if not isinstance(self.node, yaml.MappingNode):
            raise self.fail("expected a mapping")
        out = {}
        for key_node, value_node in self.node.value:
            key = key_node.value
            if key in out:
                raise ScenarioError(f"{self.path}.{key}", "duplicate key", key_node.start_mark.line + 1)
            out[key] = _Node(value_node, f"{self.path}.{key}")
        return out

    def sequence(self) -> list:
        if not isinstance(self.node, yaml.SequenceNode):
            raise self.fail("expected a list")
        return [_Node(n, f"{self.path}[{i}]") for i, n in enumerate(self.node.value)]

    def scalar_float(self) -> float:
        if not isinstance(self.node, yaml.ScalarNode):
            raise self.fail("expected a number")
        try:
            value = float(self.node.value)
        except ValueError:
            raise self.fail(f"expected a number, got {self.node.value!r}") from None
        if not math.isfinite(value):
            raise self.fail(f"expected a finite number, got {self.node.value!r}")
        return value

    def scalar_int(self) -> int:
        v = self.scalar_float()
        if v != int(v):
            raise self.fail(f"expected an integer, got {self.node.value!r}")
        return int(v)

    def scalar_str(self) -> str:
        if not isinstance(self.node, yaml.ScalarNode):
            raise self.fail("expected a string")
        return str(self.node.value)


def _take(mapping: dict, key: str, parent: _Node) -> _Node:
    if key not in mapping:
        raise ScenarioError(f"{parent.path}.{key}", "missing field", parent.line)
    return mapping.pop(key)


def _reject_unknown(mapping: dict) -> None:
    for key, node in mapping.items():
        raise node.fail("unknown key")


def _vector(node: _Node, length: int, name: str) -> np.ndarray:
    """A scalar (broadcast) or a list of exactly ``length`` numbers."""
    if isinstance(node.node, yaml.ScalarNode):
        return np.full(length, node.scalar_float())
    items = node.sequence()
    if len(items) != length:
        raise node.fail(f"{name} must have {length} entries, got {len(items)}")
    return np.array([it.scalar_float() for it in items])


def _matrix(node: _Node, rows: int, cols: int) -> np.ndarray:
    fields = node.mapping()
    r = _take(fields, "rows", node).scalar_int()
    c = _take(fields, "cols", node).scalar_int()
    data_node = _take(fields, "data", node)
    _reject_unknown(fields)
    if r != rows or c != cols:
        raise node.fail(f"expected a {rows} x {cols} matrix, got {r} x {c}")
    items = data_node.sequence()
    if len(items) != rows * cols:
        raise data_node.fail(f"matrix data must have {rows * cols} entries, got {len(items)}")
    flat = np.array([it.scalar_float() for it in items])
    return flat.reshape(rows, cols)


def _built(build, nodes: dict, enclosing: _Node, *args, **kwargs):
    """``build(*args, **kwargs)`` for a scenario type.  An invariant error
    naming a field in ``nodes`` becomes a ScenarioError at its path and line;
    any other keeps its type and gains the path and line of ``enclosing``."""
    try:
        return build(*args, **kwargs)
    except (ConstraintError, DimensionError) as exc:
        if exc.field in nodes:
            raise nodes[exc.field].fail(str(exc)) from exc
        raise type(exc)(f"{enclosing.path} (line {enclosing.line}): {exc}") from exc


def parse_scenario(path: str) -> Scenario:
    """Parse and fully validate a scenario file.

    Every error carries the offending field path and line; unknown keys are
    rejected.  The scenario types check their own invariants once, and the
    parser points each error at the field it names.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            node = yaml.compose(fh, Loader=_LOADER)
    except OSError as exc:
        raise ScenarioError(str(path), f"cannot read scenario file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(str(path), f"malformed file: {exc}") from exc
    if node is None:
        raise ScenarioError(str(path), "empty scenario file")

    root = _Node(node, "scenario")
    top = root.mapping()

    version = _take(top, "schema_version", root).scalar_int()
    if version != SCHEMA_VERSION:
        raise ScenarioError("scenario.schema_version", f"unsupported version {version}", root.line)

    fleet_node = _take(top, "fleet", root)
    fleet = fleet_node.mapping()
    m = _take(fleet, "m", fleet_node).scalar_int()
    if m < 1:
        raise fleet_node.fail("m must be positive")
    nodes = {"a": _take(fleet, "a", fleet_node)}
    a = _matrix(nodes["a"], m, m)
    vectors = {}
    for name in _FLEET_VECTORS:
        nodes[name] = _take(fleet, name, fleet_node)
        vectors[name] = _vector(nodes[name], m, name)
    _reject_unknown(fleet)
    params = _built(EtpParams, nodes, fleet_node, a=a, **vectors)

    schedule_node = _take(top, "schedule", root)
    schedule = schedule_node.mapping()
    step_node = _take(schedule, "step_minutes", schedule_node)
    step_minutes = step_node.scalar_float()
    steps_node = _take(schedule, "num_steps", schedule_node)
    num_steps = steps_node.scalar_int()
    if num_steps < 1:  # the case's vectors have num_steps entries
        raise steps_node.fail("num_steps must be positive")
    _reject_unknown(schedule)

    case_node = _take(top, "case", root)
    case_fields = case_node.mapping()
    kind = _take(case_fields, "kind", case_node).scalar_str()
    case_nodes = {}
    if kind == "target_band":
        case_nodes = {name: _take(case_fields, name, case_node) for name in ("y_lo", "y_hi")}
        case_args = [_vector(node, num_steps, name) for name, node in case_nodes.items()]
        _reject_unknown(case_fields)
        case_type = TargetBandCase
    elif kind == "tu":
        q_node = _take(case_fields, "Q", case_node)
        # Peek at the declared row count, then parse with the full helper.
        nrows = _take(q_node.mapping(), "rows", q_node).scalar_int()
        Q = _matrix(q_node, nrows, m)
        r_node = _take(case_fields, "r", case_node)
        r = _vector(r_node, nrows, "r")
        z_node = _take(case_fields, "z_bar", case_node)
        z_bar = _vector(z_node, num_steps, "z_bar")
        _reject_unknown(case_fields)
        case_nodes = {"rows": q_node, "rhs": r_node, "z_bar": z_node}  # TuCase's names for Q and r
        case_type, case_args = TuCase, (Q, r, z_bar)
    else:
        raise case_node.fail(f"unknown case kind {kind!r}")
    case = _built(case_type, case_nodes, case_node, *case_args)

    # The fields a Scenario's own checks name, as they name them.
    scenario_nodes = {"step_minutes": step_node, "params.c": nodes["c"]}
    transient: Optional[TransientConfig] = None
    if "transient" in top:
        tr_node = top.pop("transient")
        tr = tr_node.mapping()
        xi_node = _take(tr, "xi", tr_node)
        xi = _vector(xi_node, m, "xi")
        members_node = _take(tr, "members", tr_node)
        _reject_unknown(tr)
        items = members_node.sequence()
        scenario_nodes.update({"transient.xi": xi_node, "transient.members": members_node})
        scenario_nodes.update((f"transient.members[{j}]", it) for j, it in enumerate(items))
        transient = TransientConfig(xi, tuple(it.scalar_int() - 1 for it in items))  # files are 1-based

    _reject_unknown(top)

    return _built(Scenario, scenario_nodes, root, params=params, step_minutes=step_minutes,
                  num_steps=num_steps, case=case, transient=transient)


def write_scenario(scenario: Scenario, path: str) -> None:
    """Write a scenario in the versioned file format (inverse of
    :func:`parse_scenario` up to float round-trip, which is exact)."""
    p = scenario.params
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "fleet": {
            "m": p.m,
            "a": {"rows": p.m, "cols": p.m, "data": p.a.ravel().tolist()},
            **{name: getattr(p, name).tolist() for name in _FLEET_VECTORS},
        },
        "schedule": {
            "step_minutes": float(scenario.step_minutes),
            "num_steps": scenario.num_steps,
        },
    }
    if isinstance(scenario.case, TargetBandCase):
        doc["case"] = {
            "kind": "target_band",
            "y_lo": scenario.case.y_lo.tolist(),
            "y_hi": scenario.case.y_hi.tolist(),
        }
    else:
        Q = scenario.case.rows
        doc["case"] = {
            "kind": "tu",
            "Q": {"rows": Q.shape[0], "cols": Q.shape[1], "data": Q.ravel().tolist()},
            "r": scenario.case.rhs.tolist(),
            "z_bar": scenario.case.z_bar.tolist(),
        }
    if scenario.transient is not None:
        doc["transient"] = {
            "xi": scenario.transient.xi.tolist(),
            "members": [i + 1 for i in scenario.transient.members],
        }
    class _FlowListDumper(yaml.SafeDumper):
        """Keep scalar lists on one line so matrices stay hand-editable."""

    def _represent_list(dumper, data):
        flow = all(isinstance(v, (int, float)) for v in data)
        return dumper.represent_sequence("tag:yaml.org,2002:seq", data, flow_style=flow)

    _FlowListDumper.add_representer(list, _represent_list)
    with open(path, "w", encoding="utf-8") as fh:
        yaml.dump(doc, fh, Dumper=_FlowListDumper, sort_keys=False, width=100)
