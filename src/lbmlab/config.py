"""Structured run configuration: INI-style sections with hard key validation.

Sections are [lattice], [equilibrium], [scheme], [grid], [initial], [study].
Unknown sections or keys are hard errors (a silently ignored typo in, say,
a relaxation rate would poison a convergence study), and the diagnostic
names the offending key with its line where available.  Every RunConfig,
parsed or built in Python, is validated as a whole, so invalid [study] values
fail ``run`` and ``analyze`` too.  dt is not a key: it is always dx / lambda.
A parsed config serializes back to a canonical text whose re-parse is identical.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass

import numpy as np

from .equilibrium import build_equilibrium
from .errors import ConfigError
from .fields import InitialField, SineComponent
from .lattice import build_moment_matrix, build_velocity_set
from .scheme import SchemeParams

MIN_COARSE_STEPS = 20
# values of [study] name, in the order ``lbmlab verify`` documents them
STUDY_NAMES = ("prop3", "prop4", "prop5", "prop6", "viscosity", "all")


@dataclass(frozen=True)
class RunConfig:
    """Validated effective configuration; plain values so equality means 'same run'."""

    # [lattice]
    lattice_name: str = "d2q9"
    vectors: tuple[tuple[int, ...], ...] | None = None
    higher_rows: tuple[tuple[float, ...], ...] | None = None
    # [equilibrium]
    cs2: float | None = None
    weights: tuple[float, ...] | None = None
    # [scheme]
    lam: float = 1.0
    s: tuple[float, ...] = (1.5,)
    steps: int = 0
    # [grid]
    nx: int = 64
    ny: int | None = None
    length: float = 1.0
    # [initial]
    initial_kind: str = "sine"
    rho0: float = 1.0
    rho_amplitude: float = 0.001
    rho_mode: int = 1
    ux_offset: float = 0.0
    ux_amplitude: float = 0.0005773502691896258
    ux_mode: int = 1
    uy_offset: float = 0.0
    uy_amplitude: float = 0.001
    uy_mode: int = 1
    # [study]
    study_name: str = "all"
    resolutions: tuple[int, ...] = (32, 64, 128, 256)
    coarse_steps: int = 32
    viscosity_s: tuple[float, ...] = (1.2, 1.5, 1.8, 2.0)
    viscosity_n: int = 64

    def __post_init__(self):
        _validate(self)


def _items(convert, sep=","):
    """Parser of a non-empty list of ``sep``-separated items."""
    def parse(raw: str):
        items = tuple(convert(part.strip()) for part in raw.split(sep) if part.strip())
        if not items:
            raise ValueError("empty list")
        return items
    return parse


# One row per config key, in canonical order: (section, key, RunConfig field,
# parser).  A parser turns the raw text into the field's value or raises
# ValueError; a key that is absent keeps the field's default.
_KEYS = (
    ("lattice", "name", "lattice_name", str.lower),
    ("lattice", "vectors", "vectors", _items(_items(int), ";")),
    ("lattice", "higher_rows", "higher_rows", _items(_items(float), ";")),
    ("equilibrium", "cs2", "cs2", float),
    ("equilibrium", "weights", "weights", _items(float)),
    ("scheme", "lambda", "lam", float),
    ("scheme", "s", "s", _items(float)),
    ("scheme", "steps", "steps", int),
    ("grid", "nx", "nx", int),
    ("grid", "ny", "ny", int),
    ("grid", "length", "length", float),
    ("initial", "kind", "initial_kind", str.lower),
    ("initial", "rho0", "rho0", float),
    ("initial", "rho_amplitude", "rho_amplitude", float),
    ("initial", "rho_mode", "rho_mode", int),
    ("initial", "ux_offset", "ux_offset", float),
    ("initial", "ux_amplitude", "ux_amplitude", float),
    ("initial", "ux_mode", "ux_mode", int),
    ("initial", "uy_offset", "uy_offset", float),
    ("initial", "uy_amplitude", "uy_amplitude", float),
    ("initial", "uy_mode", "uy_mode", int),
    ("study", "name", "study_name", str.lower),
    ("study", "resolutions", "resolutions", _items(int)),
    ("study", "coarse_steps", "coarse_steps", int),
    ("study", "viscosity_s", "viscosity_s", _items(float)),
    ("study", "viscosity_n", "viscosity_n", int),
)
_SECTIONS = tuple(dict.fromkeys(section for section, _, _, _ in _KEYS))


def _line_of(text: str, section: str, key: str | None = None) -> int | None:
    """Line of ``key`` in ``section``, or of the section header when key is None.

    Keys match case-insensitively, as configparser lower-cases them.
    """
    in_section = False
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("["):
            in_section = stripped.startswith(f"[{section}]")
            if in_section and key is None:
                return i
        elif in_section and re.match(rf"^\s*{re.escape(key)}\s*[=:]", line,
                                     re.IGNORECASE):
            return i
    return None


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.ParsingError as exc:
        line = exc.errors[0][0] if getattr(exc, "errors", None) else None
        raise ConfigError(f"cannot parse config: {exc.message.splitlines()[0]}",
                          line=line) from exc
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError("cannot parse config: content before any [section]",
                          line=exc.lineno) from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]",
                              line=_line_of(text, section))
        known = {key for sec, key, _, _ in _KEYS if sec == section}
        for key in parser[section]:
            if key not in known:
                raise ConfigError(f"unknown key '{key}' in section [{section}]",
                                  line=_line_of(text, section, key))

    values = {}
    for section, key, field, parse in _KEYS:
        if not parser.has_option(section, key):
            continue
        raw = parser[section][key].strip()
        line = _line_of(text, section, key)
        try:
            value = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"key '{key}': cannot parse {raw!r}", line=line) from exc
        if not _finite(value):
            raise ConfigError(f"key '{key}': values must be finite", line=line)
        values[field] = value
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    with open(path, "r") as fh:
        return parse_config(fh.read())


def _finite(value) -> bool:
    if isinstance(value, tuple):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _validate(cfg: RunConfig) -> None:
    if cfg.initial_kind not in ("uniform", "sine"):
        raise ConfigError(f"key 'kind': unknown initial field {cfg.initial_kind!r}")
    if cfg.nx <= 0 or (cfg.ny is not None and cfg.ny <= 0):
        raise ConfigError("grid sizes must be positive")
    if cfg.length <= 0:
        raise ConfigError("key 'length': domain length must be positive")
    if cfg.lam <= 0:
        raise ConfigError("key 'lambda': celerity must be positive")
    if cfg.steps < 0:
        raise ConfigError("key 'steps': step count must be non-negative")
    if cfg.study_name not in STUDY_NAMES:
        raise ConfigError(f"key 'name': unknown study {cfg.study_name!r}; "
                          f"expected one of {STUDY_NAMES}")
    validate_ladder(cfg.resolutions, cfg.coarse_steps)
    if cfg.viscosity_n < 1:
        raise ConfigError(f"key 'viscosity_n': must be >= 1, got {cfg.viscosity_n}")


def validate_ladder(resolutions, coarse_steps: int) -> tuple[int, ...]:
    """The ladder as ints: at least 4 doubling grids of >= 1 node, >= MIN_COARSE_STEPS steps."""
    ns = tuple(int(n) for n in resolutions)
    if len(ns) < 4:
        raise ConfigError(f"key 'resolutions': need at least 4 resolutions, got {len(ns)}")
    if ns[0] < 1:
        raise ConfigError(f"key 'resolutions': coarsest grid must be >= 1, got {ns[0]}")
    for a, b in zip(ns, ns[1:]):
        if b != 2 * a:
            raise ConfigError(f"key 'resolutions': resolutions must double, got {a} -> {b}")
    if coarse_steps < MIN_COARSE_STEPS:
        raise ConfigError(f"key 'coarse_steps': must be >= {MIN_COARSE_STEPS}, "
                          f"got {coarse_steps}")
    return ns


def _fmt(value) -> str:
    if isinstance(value, tuple):
        sep = "; " if value and isinstance(value[0], tuple) else ","
        return sep.join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_text(cfg: RunConfig) -> str:
    """Canonical serialization; parsing it back yields an equal RunConfig."""
    sections = []
    for name in _SECTIONS:
        lines = [f"[{name}]\n"]
        for section, key, field, _ in _KEYS:
            value = getattr(cfg, field)
            if section == name and value is not None:
                lines.append(f"{key} = {_fmt(value)}\n")
        sections.append("".join(lines))
    return "\n".join(sections)


@dataclass(frozen=True)
class ComponentBundle:
    """Everything one config builds; ``length`` is the exact domain length."""

    vs: object
    mm: object
    model: object
    params: SchemeParams
    grid_shape: tuple[int, ...]
    field: InitialField
    steps: int
    length: float


def build_field(cfg: RunConfig, d: int) -> InitialField:
    sine = cfg.initial_kind == "sine"
    if d == 1:
        # uy_* keys are meaningless on a 1-D lattice unless left untouched,
        # whatever the kind
        touched = {
            "uy_offset": cfg.uy_offset != 0.0,
            "uy_amplitude": cfg.uy_amplitude not in (0.0, RunConfig.uy_amplitude),
            "uy_mode": cfg.uy_mode != RunConfig.uy_mode,
        }
        for key, changed in touched.items():
            if changed:
                raise ConfigError(f"key '{key}': no transverse component in 1-D")

    def component(offset, amplitude, mode) -> SineComponent:
        return SineComponent(offset, amplitude, mode) if sine else SineComponent(offset)

    velocity = (component(cfg.ux_offset, cfg.ux_amplitude, cfg.ux_mode),
                component(cfg.uy_offset, cfg.uy_amplitude, cfg.uy_mode))
    return InitialField(rho=component(cfg.rho0, cfg.rho_amplitude, cfg.rho_mode),
                        velocity=velocity[:d])


def build_components(cfg: RunConfig) -> ComponentBundle:
    """Materialize lattice, matrix, model, parameters, grid and initial field."""
    vs = build_velocity_set(cfg.vectors if cfg.vectors is not None
                            else cfg.lattice_name)
    mm = build_moment_matrix(vs, cfg.lam, higher_rows=cfg.higher_rows)
    model = build_equilibrium(vs, cfg.lam, cs2=cfg.cs2, weights=cfg.weights)
    dx = cfg.length / cfg.nx
    n_relaxed = vs.J - vs.d
    if len(cfg.s) == 1:
        s = np.full(n_relaxed, cfg.s[0])
    elif len(cfg.s) == n_relaxed:
        s = np.asarray(cfg.s, dtype=float)
    else:
        raise ConfigError(
            f"key 's': expected 1 or {n_relaxed} relaxation ratios, got {len(cfg.s)}"
        )
    params = SchemeParams(dx=dx, dt=dx / cfg.lam, s=s)
    if vs.d == 1:
        if cfg.ny is not None:
            raise ConfigError("key 'ny': no second grid axis on a 1-D lattice")
        grid_shape: tuple[int, ...] = (cfg.nx,)
    else:
        grid_shape = (cfg.nx, cfg.ny if cfg.ny is not None else cfg.nx)
    field = build_field(cfg, vs.d)
    return ComponentBundle(vs=vs, mm=mm, model=model, params=params,
                           grid_shape=grid_shape, field=field, steps=cfg.steps,
                           length=cfg.length)
