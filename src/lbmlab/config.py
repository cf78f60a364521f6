"""Structured run configuration: INI-style sections with hard key validation.

Sections are [lattice], [equilibrium], [scheme], [grid], [initial], [study].
Unknown sections or keys are hard errors (a silently ignored typo in, say,
a relaxation rate would poison a convergence study), and the diagnostic
names the offending key with its line where available.  Every RunConfig,
parsed or built in Python, is validated as a whole, so invalid [study] values
fail ``run`` and ``analyze`` too.  [lattice] ``name`` picks a built-in
lattice, D2Q9 where neither it nor ``vectors`` is given; beside ``vectors``
it must name those same vectors.  [grid] has the one key ``nx``: a grid has
nx nodes per axis (nx x nx on a 2-D lattice) over a periodic domain of unit
length, so dx = 1 / nx.  dt is not a key: it is always dx / lambda.
A parsed config serializes back to a canonical text whose re-parse is identical.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass

import numpy as np

from .equilibrium import build_equilibrium
from .errors import MIN_NODES_PER_AXIS, ConfigError, read_utf8
from .fields import InitialField, SineComponent
from .lattice import _BUILTIN_DIRECTIONS, build_moment_matrix, build_velocity_set
from .scheme import SchemeParams

MIN_COARSE_STEPS = 20
# values of [study] name, in the order ``lbmlab verify`` documents them
STUDY_NAMES = ("prop3", "prop4", "prop5", "prop6", "viscosity", "all")


@dataclass(frozen=True)
class RunConfig:
    """Validated effective configuration; plain values so equality means 'same run'."""

    # [lattice]
    # None tells an absent key from a given one: D2Q9 unless vectors are given
    lattice_name: str | None = None
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
    # [initial]
    rho0: float = 1.0
    rho_amplitude: float = 0.001
    ux_offset: float = 0.0
    ux_amplitude: float = 0.0005773502691896258
    uy_offset: float = 0.0
    # None tells an absent key from a given one; 2-D lattices read it as 0.001
    uy_amplitude: float | None = None
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
    ("initial", "rho0", "rho0", float),
    ("initial", "rho_amplitude", "rho_amplitude", float),
    ("initial", "ux_offset", "ux_offset", float),
    ("initial", "ux_amplitude", "ux_amplitude", float),
    ("initial", "uy_offset", "uy_offset", float),
    ("initial", "uy_amplitude", "uy_amplitude", float),
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
    # "\r\n" and "\r" end lines, as in a text-mode read
    text = read_utf8(path, ConfigError)
    return parse_config(text.replace("\r\n", "\n").replace("\r", "\n"))


def _finite(value) -> bool:
    if isinstance(value, tuple):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _validate(cfg: RunConfig) -> None:
    if cfg.nx <= 0:
        raise ConfigError("key 'nx': grid size must be positive")
    if cfg.lam <= 0:
        raise ConfigError("key 'lambda': celerity must be positive")
    if cfg.cs2 is not None and cfg.cs2 <= 0:
        raise ConfigError("key 'cs2': squared sound speed must be positive")
    if cfg.steps < 0:
        raise ConfigError("key 'steps': step count must be non-negative")
    if cfg.lattice_name is not None:
        vectors = _BUILTIN_DIRECTIONS.get(cfg.lattice_name.lower())
        if vectors is None:
            raise ConfigError(f"key 'name': unknown lattice {cfg.lattice_name!r}; "
                              f"expected one of {tuple(_BUILTIN_DIRECTIONS)}")
        if cfg.vectors is not None and tuple(map(tuple, cfg.vectors)) != vectors:
            raise ConfigError(f"key 'name': lattice {cfg.lattice_name!r} does not "
                              f"have the vectors given beside it")
    if cfg.study_name not in STUDY_NAMES:
        raise ConfigError(f"key 'name': unknown study {cfg.study_name!r}; "
                          f"expected one of {STUDY_NAMES}")
    validate_ladder(cfg.resolutions, cfg.coarse_steps)
    if cfg.viscosity_n < MIN_NODES_PER_AXIS:
        raise ConfigError(f"key 'viscosity_n': need at least "
                          f"{MIN_NODES_PER_AXIS} nodes, got {cfg.viscosity_n}")
    for key, ratios in (("s", cfg.s), ("viscosity_s", cfg.viscosity_s)):
        if not all(0.0 < s <= 2.0 for s in ratios):
            raise ConfigError(f"key '{key}': relaxation ratios {list(ratios)} "
                              f"violate the stability bound 0 < s <= 2")


def validate_ladder(resolutions, coarse_steps: int) -> tuple[int, ...]:
    """The ladder as ints: at least 4 doubling grids of >= MIN_NODES_PER_AXIS nodes,
    >= MIN_COARSE_STEPS steps."""
    ns = tuple(int(n) for n in resolutions)
    if len(ns) < 4:
        raise ConfigError(f"key 'resolutions': need at least 4 resolutions, got {len(ns)}")
    if ns[0] < MIN_NODES_PER_AXIS:
        raise ConfigError(f"key 'resolutions': coarsest grid must be >= "
                          f"{MIN_NODES_PER_AXIS}, got {ns[0]}")
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
    """Everything one config builds."""

    vs: object
    mm: object
    model: object
    params: SchemeParams
    grid_shape: tuple[int, ...]
    field: InitialField


def build_field(cfg: RunConfig, d: int) -> InitialField:
    if d == 1:
        # a 1-D lattice has no transverse velocity for a non-zero uy_* to set
        for key in ("uy_offset", "uy_amplitude"):
            if getattr(cfg, key) not in (None, 0.0):
                raise ConfigError(f"key '{key}': no transverse component in 1-D")
    uy_amplitude = 0.001 if cfg.uy_amplitude is None else cfg.uy_amplitude
    velocity = (SineComponent(cfg.ux_offset, cfg.ux_amplitude),
                SineComponent(cfg.uy_offset, uy_amplitude))
    return InitialField(rho=SineComponent(cfg.rho0, cfg.rho_amplitude),
                        velocity=velocity[:d])


def build_components(cfg: RunConfig) -> ComponentBundle:
    """Materialize lattice, matrix, model, parameters, grid and initial field."""
    vs = build_velocity_set(cfg.vectors if cfg.vectors is not None
                            else cfg.lattice_name or "d2q9")
    dx = 1.0 / cfg.nx
    lam2 = cfg.lam * cfg.lam
    # the built-in moment bases scale their rows by up to lambda**4, and cs2
    # defaults to lambda**2 / 3
    for derived, value in (("dx / lambda", dx / cfg.lam), ("lambda**4", lam2 * lam2)):
        if not math.isfinite(value):
            raise ConfigError(f"key 'lambda': {derived} = {value!r} is not finite")
    # the equilibrium divides by 2 cs2**2
    cs2, key = (cfg.cs2, "cs2") if cfg.cs2 is not None else (lam2 / 3.0, "lambda")
    two_cs4 = 2.0 * cs2 * cs2
    if not (math.isfinite(two_cs4) and two_cs4 > 0.0):
        raise ConfigError(f"key '{key}': 2 cs2**2 = {two_cs4!r} is not finite and > 0")
    # the equilibrium's Jacobian divides by 2 cs2**2 rho**2 and 2 cs2 rho**2,
    # which must not underflow at the least density of the initial field
    rho_min = cfg.rho0 - abs(cfg.rho_amplitude)
    tiny = np.finfo(float).tiny
    if not (two_cs4 * rho_min * rho_min >= tiny and 2.0 * cs2 * rho_min * rho_min >= tiny):
        raise ConfigError(f"key 'rho0': the least density rho0 - |rho_amplitude| = "
                          f"{rho_min!r} makes 2 cs2**2 rho**2 or 2 cs2 rho**2 underflow")
    mm = build_moment_matrix(vs, cfg.lam, higher_rows=cfg.higher_rows)
    model = build_equilibrium(vs, cfg.lam, cs2=cfg.cs2, weights=cfg.weights)
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
    # pde_report prints mu_k = dt (1/s_k - 1/2) and the viscosity cs2 dt (1/s_k - 1/2),
    # and the viscometer predicts the latter on its own grid: every case is
    # checked here, before anything steps
    for key, dt, ratios in (("s", params.dt, cfg.s),
                            ("viscosity_s", 1.0 / cfg.viscosity_n / cfg.lam, cfg.viscosity_s)):
        for sk in ratios:
            rate = 1.0 / sk - 0.5
            if not (math.isfinite(dt * rate) and math.isfinite(cs2 * dt * rate)):
                raise ConfigError(f"key '{key}': dt (1/s - 1/2) or cs2 times it is not "
                                  f"finite at s = {sk!r}")
    field = build_field(cfg, vs.d)
    return ComponentBundle(vs=vs, mm=mm, model=model, params=params,
                           grid_shape=(cfg.nx,) * vs.d, field=field)
