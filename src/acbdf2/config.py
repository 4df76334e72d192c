"""Line-oriented run configuration: ``section.key = value``.

Blank lines and ``#`` comments are ignored.  Parsing validates the whole
document and reports every problem at once, each with its line number,
rather than stopping at the first.  The schema is small on purpose: it maps
one to one onto the solver knobs and diffs cleanly in experiment logs.  Each
key is a field of a section dataclass, parsed by that field's annotation.
Validation checks values only: a fixed time mesh is built and checked when
the run starts, before any artifact is written, not at parse.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass

from .adaptive import AdaptiveConfig
from .experiments import MMS_EPS2, random_mesh
from .stepper import NewtonConfig
from .time_mesh import TimeMesh


class ConfigError(ValueError):
    """Bad input, exit code 2: carries every message found, one per line."""

    def __init__(self, *errors: str):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class DomainConfig:
    L: float = 1.0
    M: int = 128
    eps: float = 0.01
    origin: float = 0.0


@dataclass
class TimeConfig:
    T: float = 1.0
    scheme: str = "uniform"  # uniform | adaptive | random-mesh
    tau: float = 1e-2
    n: int = 100  # step count of the random-mesh scheme
    seed: int = 0

    def mesh(self) -> TimeMesh | None:
        """The fixed mesh of a uniform or random-mesh run; None when adaptive."""
        if self.scheme == "uniform":
            return TimeMesh.uniform(self.T, max(1, round(self.T / self.tau)))
        if self.scheme == "random-mesh":
            return random_mesh(self.n, self.T, self.seed)
        return None


@dataclass
class InitConfig:
    kind: str = "coarsening"  # four_bubble | coarsening | mms | file
    base: float = 0.0
    amp: float = 0.05
    seed: int = 0
    path: str = ""


@dataclass
class ConstraintPolicy:
    s0: str = "warn"
    s1: str = "warn"
    energy_law: str = "warn"
    max_principle: str = "warn"


@dataclass
class OutputConfig:
    dir: str = "out"
    snapshots: list[float] = field(default_factory=list)


@dataclass
class RunConfig:
    domain: DomainConfig = field(default_factory=DomainConfig)
    time: TimeConfig = field(default_factory=TimeConfig)
    adaptive: AdaptiveConfig = field(default_factory=AdaptiveConfig)
    init: InitConfig = field(default_factory=InitConfig)
    newton: NewtonConfig = field(default_factory=NewtonConfig)
    constraints: ConstraintPolicy = field(default_factory=ConstraintPolicy)
    output: OutputConfig = field(default_factory=OutputConfig)
    explicit_keys: set[str] = field(default_factory=set, repr=False, compare=False)


def _parse_float(raw: str) -> float:
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError
    return val


def _parse_int(raw: str) -> int:
    if raw.strip().lstrip("+-").isdigit():
        return int(raw)
    raise ValueError


def _parse_float_list(raw: str) -> list[float]:
    raw = raw.strip()
    if not raw:
        return []
    return [_parse_float(part) for part in raw.split(",")]


# field annotation, as written -> (parser, human-readable type)
_PARSERS: dict[str, tuple[object, str]] = {
    "float": (_parse_float, "float"),
    "int": (_parse_int, "int"),
    "str": (str.strip, "string"),
    "list[float]": (_parse_float_list, "float list"),
}

# key "section.field" -> (parser, human-readable type), one per section field
_SCHEMA: dict[str, tuple[object, str]] = {
    f"{section.name}.{f.name}": _PARSERS[f.type]
    for section in fields(RunConfig)
    if is_dataclass(section.default_factory)
    for f in fields(section.default_factory)
}

_SCHEMES = ("uniform", "adaptive", "random-mesh")
_INIT_KINDS = ("four_bubble", "coarsening", "mms", "file")
_POLICIES = ("enforce", "warn", "off")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document; collect every error."""
    cfg = RunConfig()
    errors: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'section.key = value'")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        entry = _SCHEMA.get(key)
        if entry is None:
            errors.append(f"line {lineno}: unknown key '{key}'")
            continue
        parser, typename = entry
        try:
            parsed = parser(value)
        except ValueError:
            errors.append(
                f"line {lineno}: value '{value}' for '{key}' is not {typename}"
            )
            continue
        section, _, attr = key.partition(".")
        setattr(getattr(cfg, section), attr, parsed)
        cfg.explicit_keys.add(key)
    return validated(cfg, errors)


def validated(cfg: RunConfig, errors=()) -> RunConfig:
    """``cfg`` once it passes validation; else every problem, ``errors`` first."""
    errors = [*errors, *_validate(cfg)]
    if errors:
        raise ConfigError(*errors)
    return cfg


def _time_problems(time: TimeConfig) -> list[str]:
    """The time section's problems: its values, not the mesh they build."""
    errs = []
    if time.T <= 0.0:
        errs.append("time.T must be positive")
    if time.scheme not in _SCHEMES:
        errs.append(f"time.scheme must be one of {', '.join(_SCHEMES)}")
    if time.tau <= 0.0:
        errs.append("time.tau must be positive")
    if time.n < 1:
        errs.append("time.n must be at least 1")
    if time.seed < 0:
        errs.append("time.seed cannot be negative")
    return errs


def _validate(cfg: RunConfig) -> list[str]:
    errs: list[str] = []
    if cfg.domain.L <= 0.0:
        errs.append("domain.L must be positive")
    if cfg.domain.M < 2:
        errs.append("domain.M must be at least 2")
    if cfg.domain.eps <= 0.0:
        errs.append("domain.eps must be positive")
    errs.extend(_time_problems(cfg.time))
    errs.extend(cfg.adaptive.problems("adaptive.{}".format))
    if cfg.init.kind not in _INIT_KINDS:
        errs.append(f"init.kind must be one of {', '.join(_INIT_KINDS)}")
    if cfg.init.amp < 0.0:
        errs.append("init.amp cannot be negative")
    if cfg.init.seed < 0:
        errs.append("init.seed cannot be negative")
    if cfg.init.kind == "file" and not cfg.init.path:
        errs.append("init.kind = file needs init.path")
    if cfg.init.kind == "mms":
        if cfg.domain.L != 1.0 or cfg.domain.origin != 0.0:
            errs.append("init.kind = mms requires the unit square at origin 0")
        if "domain.eps" not in cfg.explicit_keys:
            cfg.domain.eps = math.sqrt(MMS_EPS2)
        elif abs(cfg.domain.eps**2 - MMS_EPS2) > 1e-12:
            errs.append(
                "init.kind = mms fixes domain.eps to 1/sqrt(8 pi^2) "
                f"(= {math.sqrt(MMS_EPS2):.17g})"
            )
    errs.extend(cfg.newton.problems("newton.{}".format))
    for name, policy in asdict(cfg.constraints).items():
        if policy not in _POLICIES:
            errs.append(f"constraints.{name} must be one of {', '.join(_POLICIES)}")
    for t in cfg.output.snapshots:
        if not 0.0 <= t <= cfg.time.T:
            errs.append(f"snapshot time {t:g} outside [0, {cfg.time.T:g}]")
    return errs
