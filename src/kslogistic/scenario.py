"""Scenario files: a strict, versioned YAML schema for runs.

Strict means strict: unknown keys anywhere are errors, as are missing
required keys, wrong types, and timing grids that do not nest (the
sample interval must be an integer multiple of dt, and t_end an integer
multiple of the sample interval).  Parse errors carry line and column.

Each rule lives with the object it constrains: Grid, Params, ICSpec,
StepControl and DiagnosticsConfig check their own fields, and Scenario
checks the rules that span sections and normalizes its checks.  A
Scenario built by hand or by ``with_value`` is therefore held to the
same rules as a loaded one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Optional

import yaml

from .checks import CHECKS
from .checks import REQUIRED as _REQUIRED
from .grid import Grid
from .icfactory import ICSpec
from .params import Params
from .stepper import StepControl

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
    snapshot storage; k > 0 stores every k-th sample.  cstar_inner_factor
    sets the inner radius of the far-field functional scan as a multiple
    of the current front radius.
    """

    sample_interval: float
    front_level: Optional[float] = None
    guard: float = 0.1
    snapshot_every: int = 0
    equilibrium_radius: Optional[float] = None
    cstar_inner_factor: float = 1.5

    def __post_init__(self) -> None:
        if not self.sample_interval > 0:
            raise ValueError(f"sample_interval must be positive, got {self.sample_interval}")
        if not 0.0 < self.guard < 0.5:
            raise ValueError(f"guard must lie in (0, 1/2), got {self.guard}")
        if self.front_level is not None and not self.front_level > 0:
            raise ValueError(f"front_level must be positive when set, got {self.front_level}")
        if self.snapshot_every < 0:
            raise ValueError(f"snapshot_every must be >= 0, got {self.snapshot_every}")


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
        timing(self)
        if self.diagnostics.front_level is None and self.params.a == 0:
            raise ScenarioError(
                "diagnostics.front_level: the default level a / (2 b) "
                "degenerates when a = 0; set it explicitly"
            )
        object.__setattr__(self, "checks", normalize_checks(self.checks))

    def to_dict(self) -> dict:
        """Normalized echo of the configuration (defaults filled in)."""
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "grid": {
                "dim": self.grid.dim,
                "n": self.grid.n,
                "half_width": self.grid.half_width,
            },
            "params": {"chi": self.params.chi, "a": self.params.a, "b": self.params.b},
            "ic": {
                "kind": self.ic.kind,
                "amplitude": self.ic.amplitude,
                "center": list(self.ic.center)
                if isinstance(self.ic.center, tuple)
                else self.ic.center,
                "radius": self.ic.radius,
                "width": self.ic.width,
                "floor": self.ic.floor,
                "seed": self.ic.seed,
            },
            "control": {
                "dt": self.control.dt,
                "t_end": self.control.t_end,
                "dealias": self.control.dealias,
                "negativity_budget": self.control.negativity_budget,
                "blowup_threshold": self.control.blowup_threshold,
            },
            "diagnostics": {
                "sample_interval": self.diagnostics.sample_interval,
                "front_level": self.diagnostics.front_level,
                "guard": self.diagnostics.guard,
                "snapshot_every": self.diagnostics.snapshot_every,
                "equilibrium_radius": self.diagnostics.equilibrium_radius,
                "cstar_inner_factor": self.diagnostics.cstar_inner_factor,
            },
            "checks": {k: dict(v) for k, v in self.checks.items()},
        }


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


def _number(d: dict, key: str, where: str, *, default=_REQUIRED, allow_none=False):
    if key not in d:
        if default is _REQUIRED:
            raise ScenarioError(f"missing required key(s) ['{key}'] in {where}")
        return default
    val = d[key]
    if val is None and allow_none:
        return None
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ScenarioError(f"{where}.{key} must be a number, got {val!r}")
    return float(val)


def _integer(d: dict, key: str, where: str, *, default=_REQUIRED):
    if key not in d:
        if default is _REQUIRED:
            raise ScenarioError(f"missing required key(s) ['{key}'] in {where}")
        return default
    val = d[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ScenarioError(f"{where}.{key} must be an integer, got {val!r}")
    return int(val)


def _boolean(d: dict, key: str, where: str, *, default=_REQUIRED):
    if key not in d:
        if default is _REQUIRED:
            raise ScenarioError(f"missing required key(s) ['{key}'] in {where}")
        return default
    val = d[key]
    if not isinstance(val, bool):
        raise ScenarioError(f"{where}.{key} must be a boolean, got {val!r}")
    return val


def _multiple_of(big: float, small: float, big_name: str, small_name: str) -> int:
    ratio = big / small
    k = round(ratio)
    if k < 1 or abs(ratio - k) > 1e-9 * max(1.0, ratio):
        raise ScenarioError(
            f"{big_name} ({big}) must be a positive integer multiple of "
            f"{small_name} ({small})"
        )
    return k


def scenario_from_dict(data: Any, source: str = "scenario") -> Scenario:
    data = _expect_mapping(data, source)
    _check_keys(
        data,
        allowed=[
            "schema_version",
            "name",
            "grid",
            "params",
            "ic",
            "control",
            "diagnostics",
            "checks",
        ],
        required=["schema_version", "name", "grid", "params", "ic", "control", "diagnostics"],
        where=source,
    )
    version = _integer(data, "schema_version", source)
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported schema_version {version}; this build reads {SCHEMA_VERSION}"
        )
    name = data["name"]
    if not isinstance(name, str) or not name:
        raise ScenarioError(f"{source}.name must be a nonempty string")

    gd = _expect_mapping(data["grid"], f"{source}.grid")
    _check_keys(gd, ["dim", "n", "half_width"], ["dim", "n", "half_width"], f"{source}.grid")
    grid = _build(
        Grid,
        f"{source}.grid",
        dim=_integer(gd, "dim", f"{source}.grid"),
        n=_integer(gd, "n", f"{source}.grid"),
        half_width=_number(gd, "half_width", f"{source}.grid"),
    )

    pd = _expect_mapping(data["params"], f"{source}.params")
    _check_keys(pd, ["chi", "a", "b"], ["chi", "a", "b"], f"{source}.params")
    params = _build(
        Params,
        f"{source}.params",
        chi=_number(pd, "chi", f"{source}.params"),
        a=_number(pd, "a", f"{source}.params"),
        b=_number(pd, "b", f"{source}.params"),
        dim=grid.dim,
    )

    icd = _expect_mapping(data["ic"], f"{source}.ic")
    _check_keys(
        icd,
        ["kind", "amplitude", "center", "radius", "width", "floor", "seed"],
        ["kind"],
        f"{source}.ic",
    )
    kind = icd["kind"]
    if not isinstance(kind, str):
        raise ScenarioError(f"{source}.ic.kind must be a string")
    center: Any = icd.get("center", 0.0)
    if isinstance(center, list):
        center = tuple(
            _number({"c": c}, "c", f"{source}.ic.center[{i}]") for i, c in enumerate(center)
        )
    else:
        center = _number(icd, "center", f"{source}.ic", default=0.0)
    ic = _build(
        ICSpec,
        f"{source}.ic",
        kind=kind,
        amplitude=_number(icd, "amplitude", f"{source}.ic", default=1.0),
        center=center,
        radius=_number(icd, "radius", f"{source}.ic", default=1.0),
        width=_number(icd, "width", f"{source}.ic", default=0.5),
        floor=_number(icd, "floor", f"{source}.ic", default=0.0),
        seed=_integer(icd, "seed", f"{source}.ic", default=0),
    )

    cd = _expect_mapping(data["control"], f"{source}.control")
    _check_keys(
        cd,
        ["dt", "t_end", "dealias", "negativity_budget", "blowup_threshold"],
        ["dt", "t_end"],
        f"{source}.control",
    )
    control = _build(
        StepControl,
        f"{source}.control",
        dt=_number(cd, "dt", f"{source}.control"),
        t_end=_number(cd, "t_end", f"{source}.control"),
        dealias=_boolean(cd, "dealias", f"{source}.control", default=True),
        negativity_budget=_number(
            cd, "negativity_budget", f"{source}.control", default=None, allow_none=True
        ),
        blowup_threshold=_number(
            cd, "blowup_threshold", f"{source}.control", default=None, allow_none=True
        ),
    )

    dd = _expect_mapping(data["diagnostics"], f"{source}.diagnostics")
    _check_keys(
        dd,
        [
            "sample_interval",
            "front_level",
            "guard",
            "snapshot_every",
            "equilibrium_radius",
            "cstar_inner_factor",
        ],
        ["sample_interval"],
        f"{source}.diagnostics",
    )
    diag = _build(
        DiagnosticsConfig,
        f"{source}.diagnostics",
        sample_interval=_number(dd, "sample_interval", f"{source}.diagnostics"),
        front_level=_number(
            dd, "front_level", f"{source}.diagnostics", default=None, allow_none=True
        ),
        guard=_number(dd, "guard", f"{source}.diagnostics", default=0.1),
        snapshot_every=_integer(dd, "snapshot_every", f"{source}.diagnostics", default=0),
        equilibrium_radius=_number(
            dd, "equilibrium_radius", f"{source}.diagnostics", default=None, allow_none=True
        ),
        cstar_inner_factor=_number(
            dd, "cstar_inner_factor", f"{source}.diagnostics", default=1.5
        ),
    )

    return _build(
        Scenario,
        source,
        name=name,
        grid=grid,
        params=params,
        ic=ic,
        control=control,
        diagnostics=diag,
        checks=data.get("checks", {}),
        schema_version=version,
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
    """Validate a checks mapping against the schemas in ``CHECKS`` and
    fill omitted parameters with their defaults."""
    checks = _expect_mapping(checks, "checks")
    out = {}
    for name, cfg in checks.items():
        if name not in CHECKS:
            raise ScenarioError(f"unknown check {name!r} in checks; known: {sorted(CHECKS)}")
        where = f"checks.{name}"
        cfg = {} if cfg is None else _expect_mapping(cfg, where)
        schema = CHECKS[name].schema
        _check_keys(cfg, schema, [k for k, d in schema.items() if d is _REQUIRED], where)
        out[name] = {
            k: _number(cfg, k, where, default=d, allow_none=d is None) for k, d in schema.items()
        }
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

    axis is a dotted path (params.chi, control.dt, grid.n, ic.amplitude)
    or a bare field name that resolves uniquely across those sections.
    Only constructor fields are axes, so derived ones such as grid.h are
    not.  The copy is validated like a loaded scenario.
    """
    sections = {
        "params": scenario.params,
        "control": scenario.control,
        "grid": scenario.grid,
        "ic": scenario.ic,
    }

    def init_fields(obj) -> set:
        return {f.name for f in fields(obj) if f.init}

    if "." in axis:
        sec_name, _, fname = axis.partition(".")
        if sec_name not in sections:
            raise ScenarioError(
                f"axis section {sec_name!r} unknown; use one of {sorted(sections)}"
            )
        hits = [(sec_name, fname)]
    else:
        hits = [(sname, axis) for sname, obj in sections.items() if axis in init_fields(obj)]
        if len(hits) > 1:
            raise ScenarioError(
                f"axis {axis!r} is ambiguous across sections "
                f"{sorted(s for s, _ in hits)}; qualify it"
            )
    if not hits:
        raise ScenarioError(f"axis {axis!r} does not name a scenario field")
    sec_name, fname = hits[0]
    obj = sections[sec_name]
    if fname not in init_fields(obj):
        raise ScenarioError(f"axis {axis!r}: {sec_name} has no field {fname!r}")
    current = getattr(obj, fname)
    if isinstance(current, bool) or (
        current is not None and not isinstance(current, (int, float))
    ):
        raise ScenarioError(f"axis {axis!r} is not numeric (current value {current!r})")
    if isinstance(current, int):
        if float(value) != int(value):
            raise ScenarioError(f"axis {axis!r} needs an integer, got {value!r}")
        value = int(value)
    else:  # float-valued, or an optional numeric field currently unset
        value = float(value)
    try:
        changes = {sec_name: replace(obj, **{fname: value})}
        if sec_name == "grid":
            changes["params"] = replace(scenario.params, dim=changes["grid"].dim)
        return replace(scenario, **changes)
    except ValueError as e:
        raise ScenarioError(f"axis {axis!r} value {value!r} rejected: {e}") from None


def timing(scenario: Scenario) -> tuple:
    """(steps per sample, number of samples) for the run loop."""
    per = _multiple_of(
        scenario.diagnostics.sample_interval, scenario.control.dt, "sample_interval", "dt"
    )
    total = _multiple_of(
        scenario.control.t_end, scenario.diagnostics.sample_interval, "t_end", "sample_interval"
    )
    return per, total


def front_level_of(scenario: Scenario) -> float:
    """diagnostics.front_level, else a / (2 b)."""
    lvl = scenario.diagnostics.front_level
    if lvl is None:
        lvl = scenario.params.a / (2.0 * scenario.params.b)
    return lvl
