"""Scenario files: a strict, versioned YAML schema for runs.

Strict means strict: unknown keys anywhere are errors, as are missing
required keys, wrong types, and time grids that do not nest (the
sample interval must be an integer multiple of dt, and t_end an integer
multiple of the sample interval; under time_tol, dt at least 2^-12 of
the sample interval).  Parse errors carry line and column.

The sections grid, params, ic, control and diagnostics are the
constructor fields of Grid, Params, ICSpec, StepControl and
DiagnosticsConfig: each field's name is a key, its annotation the
type the loader accepts, and a field without a default a required key.
params takes no dim; grid.dim sets it.  The echo ``Scenario.to_dict``
lists the same fields in declaration order.

Each rule lives with the object it constrains: those classes check
their own fields, the run's clock (``stepper.SampleStepper``) checks
the time grid, and Scenario builds a clock to validate, checks the
other rules that span sections and normalizes its checks.  A Scenario
built by hand or by ``with_value`` is therefore held to the same rules
as a loaded one.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from functools import cache
from pathlib import Path
from typing import Any, get_args, get_type_hints

import yaml

from .checks import CHECKS
from .checks import REQUIRED as _REQUIRED
from .diagnostics import check_guard
from .grid import Grid
from .icfactory import ICSpec, check_placement
from .params import Params
from .stepper import SampleStepper, StepControl

__all__ = [
    "SCHEMA_VERSION",
    "ScenarioError",
    "DiagnosticsConfig",
    "Scenario",
    "load_scenario",
    "scenario_from_dict",
    "bundled_scenario_names",
    "bundled_scenario_path",
]

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Malformed scenario file or dictionary."""


@dataclass(frozen=True)
class DiagnosticsConfig:
    """Sampling cadence and measurement knobs.

    front_level None means a / (2 b).  snapshot_every = 0 disables
    snapshot storage; k > 0 stores every k-th sample.
    """

    sample_interval: float
    front_level: float | None = None
    guard: float = 0.1
    snapshot_every: int = 0

    def __post_init__(self) -> None:
        if not self.sample_interval > 0:
            raise ValueError(f"sample_interval must be positive, got {self.sample_interval}")
        check_guard(self.guard)
        if self.snapshot_every < 0:
            raise ValueError(f"snapshot_every must be >= 0, got {self.snapshot_every}")
        if self.front_level is not None and not 0 < self.front_level < math.inf:
            raise ValueError(f"front_level must be finite and positive, got {self.front_level}")


@dataclass(frozen=True)
class Scenario:
    """A validated run configuration; checks are stored normalized
    (every schema parameter present, numbers as floats)."""

    name: str
    grid: Grid
    params: Params
    ic: ICSpec
    control: StepControl
    diagnostics: DiagnosticsConfig
    checks: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        # run_experiment writes under <output root>/<name>
        name = self.name
        if not isinstance(name, str) or name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise ScenarioError(
                "name must be one plain path component: not empty, '.' or '..', "
                f"and no '/', '\\' or NUL; got {name!r}"
            )
        try:  # the time grid, as the run's clock checks it
            SampleStepper(self.params, self.control, self.diagnostics.sample_interval)
        except ValueError as e:
            raise ScenarioError(f"control: {e}") from None
        try:  # the rule realize enforces across grid, ic and diagnostics
            check_placement(self.ic, self.grid, self.diagnostics.guard)
        except ValueError as e:
            raise ScenarioError(f"ic: {e}") from None
        if self.diagnostics.front_level is None and self.params.a == 0:
            raise ScenarioError(
                "diagnostics.front_level: the default level a / (2 b) "
                "degenerates when a = 0; set it explicitly"
            )
        object.__setattr__(self, "checks", normalize_checks(self.checks))

    def to_dict(self) -> dict:
        """Normalized echo of the configuration (defaults filled in)."""
        out = {"schema_version": self.schema_version, "name": self.name}
        for sec in _SECTIONS:
            obj = getattr(self, sec)
            out[sec] = {k: getattr(obj, k) for k in _section_schema(sec)}
        out["checks"] = {k: dict(v) for k, v in self.checks.items()}
        return out


#: the scenario file's sections and the classes whose constructor
#: fields are their schemas, in file and echo order
_SECTIONS = {
    "grid": Grid,
    "params": Params,
    "ic": ICSpec,
    "control": StepControl,
    "diagnostics": DiagnosticsConfig,
}

_KINDS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


@cache
def _fields(cls) -> dict:
    """Constructor fields of a dataclass in declaration order:
    name -> (resolved type, required)."""
    hints = get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
        if f.init
    }


@cache
def _section_schema(sec: str) -> dict:
    """The keys of one section: its class's constructor fields, less
    params.dim, which grid.dim sets."""
    return {k: v for k, v in _fields(_SECTIONS[sec]).items() if (sec, k) != ("params", "dim")}


def _coerce(val: Any, tp, where: str):
    """val as a value of the field type tp, else a ScenarioError naming
    where.  Booleans are not numbers; ints are accepted for floats."""
    args = get_args(tp)
    if args:  # float | None
        if val is None:
            return None
        tp = args[0]
    accepted, noun = _KINDS[tp]
    if not isinstance(val, accepted) or isinstance(val, bool):
        raise ScenarioError(f"{where} must be {noun}, got {val!r}")
    return tp(val)


def _expect_mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _check_keys(d: dict, allowed, required, where: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ScenarioError(f"unknown key(s) {unknown} in {where}")
    missing = sorted(set(required) - set(d))
    if missing:
        raise ScenarioError(f"missing required key(s) {missing} in {where}")


def scenario_from_dict(data: Any, source: str = "scenario") -> Scenario:
    data = _expect_mapping(data, source)
    top = _fields(Scenario)
    _check_keys(data, top, [k for k in top if k != "checks"], source)
    version = _coerce(data["schema_version"], int, f"{source}.schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported schema_version {version}; this build reads {SCHEMA_VERSION}"
        )

    built = {}
    for sec, cls in _SECTIONS.items():
        where = f"{source}.{sec}"
        d = _expect_mapping(data[sec], where)
        schema = _section_schema(sec)
        _check_keys(d, schema, [k for k, (_, req) in schema.items() if req], where)
        kwargs = {k: _coerce(d[k], tp, f"{where}.{k}") for k, (tp, _) in schema.items() if k in d}
        if cls is Params:
            kwargs["dim"] = built["grid"].dim
        built[sec] = _build(cls, where, **kwargs)

    return _build(
        Scenario,
        source,
        name=data["name"],
        checks=data.get("checks", {}),
        schema_version=version,
        **built,
    )


def _build(cls, where: str, **kwargs):
    """cls(**kwargs), with the ValueError of its own validation raised
    as a ScenarioError that names where."""
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ScenarioError(f"{where}: {e}") from None


def load_scenario(path) -> Scenario:
    """Read and validate one scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ScenarioError(f"cannot read {path}: {e}") from None
    try:
        data = yaml.safe_load(text)
    except yaml.MarkedYAMLError as e:
        mark = e.problem_mark
        where = f"line {mark.line + 1}, column {mark.column + 1}" if mark else "unknown position"
        raise ScenarioError(f"{path}: parse error at {where}: {e.problem}") from None
    except yaml.YAMLError as e:
        raise ScenarioError(f"{path}: parse error: {e}") from None
    return scenario_from_dict(data, source=str(path))


def normalize_checks(checks) -> dict:
    """Validate a checks mapping against the schemas and limits in
    ``CHECKS`` and fill omitted parameters with their defaults."""
    checks = _expect_mapping(checks, "checks")
    out = {}
    for name, cfg in checks.items():
        if name not in CHECKS:
            raise ScenarioError(f"unknown check {name!r} in checks; known: {sorted(CHECKS)}")
        where = f"checks.{name}"
        cfg = {} if cfg is None else _expect_mapping(cfg, where)
        schema = CHECKS[name].schema
        _check_keys(cfg, schema, [k for k, d in schema.items() if d is _REQUIRED], where)
        out[name] = {k: _coerce(cfg[k], float, f"{where}.{k}") if k in cfg else d for k, d in schema.items()}
        for k, (holds, what) in CHECKS[name].limits.items():
            if not holds(out[name][k]):
                raise ScenarioError(f"{where}.{k} must be {what}, got {out[name][k]!r}")
        rule = CHECKS[name].rule
        if rule is not None and not rule[0](out[name]):
            raise ScenarioError(f"{where} must have {rule[1]}, got {out[name]!r}")
    return out


def _bundle_dir() -> Path:
    return Path(__file__).parent / "scenarios"


def bundled_scenario_names() -> list:
    """Names of the scenario files shipped with the package."""
    return sorted(f.stem for f in _bundle_dir().glob("*.yaml"))


def bundled_scenario_path(name: str) -> Path:
    path = _bundle_dir() / f"{name}.yaml"
    if not path.is_file():
        raise ScenarioError(
            f"no bundled scenario {name!r}; available: {bundled_scenario_names()}"
        )
    return path


def with_value(scenario: Scenario, axis: str, value) -> Scenario:
    """Return a copy with one numeric field replaced.

    axis is a section.field path into params, control, grid or ic
    (params.chi, control.dt, grid.n, ic.amplitude).  Only constructor
    fields are axes, so derived ones such as grid.h are not.  The copy
    is the loader's reading of the edited echo, so it is validated, and
    params.dim set, like a loaded scenario.
    """
    sections = {sec: getattr(scenario, sec) for sec in ("params", "control", "grid", "ic")}
    sec_name, dot, fname = axis.partition(".")
    if not dot or sec_name not in sections:
        raise ScenarioError(
            f"axis {axis!r} must be section.field with section one of {sorted(sections)}"
        )
    obj = sections[sec_name]
    if fname not in _fields(type(obj)):
        raise ScenarioError(f"axis {axis!r}: {sec_name} has no field {fname!r}")
    current = getattr(obj, fname)
    if isinstance(current, bool) or (
        current is not None and not isinstance(current, (int, float))
    ):
        raise ScenarioError(f"axis {axis!r} is not numeric (current value {current!r})")
    if isinstance(current, int):
        if not (math.isfinite(value) and float(value) == int(value)):
            raise ScenarioError(f"axis {axis!r} needs an integer, got {value!r}")
        value = int(value)
    data = scenario.to_dict()
    data[sec_name][fname] = value
    try:
        return scenario_from_dict(data)
    except ScenarioError as e:
        raise ScenarioError(f"axis {axis!r} value {value!r} rejected: {e}") from None


def front_level_of(scenario: Scenario) -> float:
    """diagnostics.front_level, else a / (2 b)."""
    lvl = scenario.diagnostics.front_level
    if lvl is None:
        lvl = scenario.params.a / (2.0 * scenario.params.b)
    return lvl
