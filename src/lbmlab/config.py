"""Structured run configuration: INI-style sections with hard key validation.

Sections are [lattice], [equilibrium], [scheme], [grid], [initial], [study].
Unknown sections or keys are hard errors (a silently ignored typo in, say,
a relaxation rate would poison a convergence study), and the diagnostic
names the offending key with its line where available.  A parsed config
serializes back to a canonical text whose re-parse is identical.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, fields, replace

import numpy as np

from .equilibrium import build_equilibrium
from .errors import ConfigError
from .fields import InitialField, SineComponent
from .lattice import build_moment_matrix, build_velocity_set
from .scheme import SchemeParams

_SCHEMA = {
    "lattice": ("name", "vectors", "higher_rows"),
    "equilibrium": ("kind", "cs2", "weights"),
    "scheme": ("lambda", "dt", "s", "steps"),
    "grid": ("nx", "ny", "length"),
    "initial": ("kind", "rho0", "rho_amplitude", "rho_mode",
                "ux_offset", "ux_amplitude", "ux_mode",
                "uy_offset", "uy_amplitude", "uy_mode"),
    "study": ("name", "resolutions", "coarse_steps", "viscosity_s",
              "viscosity_n", "viscosity_mode", "viscosity_amplitude",
              "horizon_decay_times"),
}


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration; plain values so equality means 'same run'."""

    # [lattice]
    lattice_name: str = "d2q9"
    vectors: tuple[tuple[int, ...], ...] | None = None
    higher_rows: tuple[tuple[float, ...], ...] | None = None
    # [equilibrium]
    eq_kind: str | None = None
    cs2: float | None = None
    weights: tuple[float, ...] | None = None
    # [scheme]
    lam: float = 1.0
    dt: float | None = None
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
    viscosity_mode: int = 1
    viscosity_amplitude: float = 0.001
    horizon_decay_times: float = 1.5


def _line_of(text: str, section: str, key: str) -> int | None:
    in_section = False
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("["):
            in_section = stripped.lower() == f"[{section}]"
        elif in_section and re.match(rf"^\s*{re.escape(key)}\s*[=:]", line):
            return i
    return None


def _parse_sequence(raw: str, convert, key: str):
    try:
        return tuple(convert(part.strip()) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"key '{key}': cannot parse {raw!r}") from exc


def _parse_rows(raw: str, convert, key: str):
    rows = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if chunk:
            rows.append(_parse_sequence(chunk, convert, key))
    return tuple(rows)


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
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]",
                                  line=_line_of(text, section, key))

    def get(section, key, default=None):
        if parser.has_section(section) and key in parser[section]:
            return parser[section][key].strip()
        return default

    def number(section, key, convert, default):
        raw = get(section, key)
        if raw is None:
            return default
        try:
            return convert(raw)
        except ValueError as exc:
            raise ConfigError(f"key '{key}': cannot parse {raw!r}",
                              line=_line_of(text, section, key)) from exc

    cfg = RunConfig()
    vectors_raw = get("lattice", "vectors")
    higher_raw = get("lattice", "higher_rows")
    weights_raw = get("equilibrium", "weights")
    s_raw = get("scheme", "s")
    resolutions_raw = get("study", "resolutions")
    visc_s_raw = get("study", "viscosity_s")
    cfg = replace(
        cfg,
        lattice_name=get("lattice", "name", cfg.lattice_name).lower(),
        vectors=_parse_rows(vectors_raw, int, "vectors") if vectors_raw else None,
        higher_rows=_parse_rows(higher_raw, float, "higher_rows") if higher_raw else None,
        eq_kind=get("equilibrium", "kind", cfg.eq_kind),
        cs2=number("equilibrium", "cs2", float, cfg.cs2),
        weights=_parse_sequence(weights_raw, float, "weights") if weights_raw else None,
        lam=number("scheme", "lambda", float, cfg.lam),
        dt=number("scheme", "dt", float, cfg.dt),
        s=_parse_sequence(s_raw, float, "s") if s_raw else cfg.s,
        steps=number("scheme", "steps", int, cfg.steps),
        nx=number("grid", "nx", int, cfg.nx),
        ny=number("grid", "ny", int, cfg.ny),
        length=number("grid", "length", float, cfg.length),
        initial_kind=get("initial", "kind", cfg.initial_kind).lower(),
        rho0=number("initial", "rho0", float, cfg.rho0),
        rho_amplitude=number("initial", "rho_amplitude", float, cfg.rho_amplitude),
        rho_mode=number("initial", "rho_mode", int, cfg.rho_mode),
        ux_offset=number("initial", "ux_offset", float, cfg.ux_offset),
        ux_amplitude=number("initial", "ux_amplitude", float, cfg.ux_amplitude),
        ux_mode=number("initial", "ux_mode", int, cfg.ux_mode),
        uy_offset=number("initial", "uy_offset", float, cfg.uy_offset),
        uy_amplitude=number("initial", "uy_amplitude", float, cfg.uy_amplitude),
        uy_mode=number("initial", "uy_mode", int, cfg.uy_mode),
        study_name=get("study", "name", cfg.study_name).lower(),
        resolutions=_parse_sequence(resolutions_raw, int, "resolutions")
        if resolutions_raw else cfg.resolutions,
        coarse_steps=number("study", "coarse_steps", int, cfg.coarse_steps),
        viscosity_s=_parse_sequence(visc_s_raw, float, "viscosity_s")
        if visc_s_raw else cfg.viscosity_s,
        viscosity_n=number("study", "viscosity_n", int, cfg.viscosity_n),
        viscosity_mode=number("study", "viscosity_mode", int, cfg.viscosity_mode),
        viscosity_amplitude=number("study", "viscosity_amplitude", float,
                                   cfg.viscosity_amplitude),
        horizon_decay_times=number("study", "horizon_decay_times", float,
                                   cfg.horizon_decay_times),
    )
    _validate(cfg)
    return cfg


def load_config(path) -> RunConfig:
    with open(path, "r") as fh:
        return parse_config(fh.read())


def _finite(value) -> bool:
    if isinstance(value, tuple):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _validate(cfg: RunConfig) -> None:
    for field in fields(cfg):
        if not _finite(getattr(cfg, field.name)):
            key = "lambda" if field.name == "lam" else field.name
            raise ConfigError(f"key '{key}': values must be finite")
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
    if cfg.dt is not None:
        dx = cfg.length / cfg.nx
        implied = dx / cfg.dt
        if abs(implied - cfg.lam) > 1e-12 * cfg.lam:
            raise ConfigError(
                f"inconsistent scales: dx/dt = {implied!r} but lambda = {cfg.lam!r}"
            )


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_text(cfg: RunConfig) -> str:
    """Canonical serialization; parsing it back yields an equal RunConfig."""
    out = ["[lattice]"]
    if cfg.vectors is not None:
        out.append("vectors = " + "; ".join(",".join(str(c) for c in v)
                                            for v in cfg.vectors))
    else:
        out.append(f"name = {cfg.lattice_name}")
    if cfg.higher_rows is not None:
        out.append("higher_rows = " + "; ".join(
            ",".join(_fmt(x) for x in row) for row in cfg.higher_rows))
    out.append("")
    out.append("[equilibrium]")
    if cfg.eq_kind is not None:
        out.append(f"kind = {cfg.eq_kind}")
    if cfg.cs2 is not None:
        out.append(f"cs2 = {_fmt(cfg.cs2)}")
    if cfg.weights is not None:
        out.append("weights = " + ",".join(_fmt(w) for w in cfg.weights))
    out.append("")
    out.append("[scheme]")
    out.append(f"lambda = {_fmt(cfg.lam)}")
    if cfg.dt is not None:
        out.append(f"dt = {_fmt(cfg.dt)}")
    out.append("s = " + ",".join(_fmt(x) for x in cfg.s))
    out.append(f"steps = {cfg.steps}")
    out.append("")
    out.append("[grid]")
    out.append(f"nx = {cfg.nx}")
    if cfg.ny is not None:
        out.append(f"ny = {cfg.ny}")
    out.append(f"length = {_fmt(cfg.length)}")
    out.append("")
    out.append("[initial]")
    out.append(f"kind = {cfg.initial_kind}")
    out.append(f"rho0 = {_fmt(cfg.rho0)}")
    out.append(f"rho_amplitude = {_fmt(cfg.rho_amplitude)}")
    out.append(f"rho_mode = {cfg.rho_mode}")
    out.append(f"ux_offset = {_fmt(cfg.ux_offset)}")
    out.append(f"ux_amplitude = {_fmt(cfg.ux_amplitude)}")
    out.append(f"ux_mode = {cfg.ux_mode}")
    out.append(f"uy_offset = {_fmt(cfg.uy_offset)}")
    out.append(f"uy_amplitude = {_fmt(cfg.uy_amplitude)}")
    out.append(f"uy_mode = {cfg.uy_mode}")
    out.append("")
    out.append("[study]")
    out.append(f"name = {cfg.study_name}")
    out.append("resolutions = " + ",".join(str(n) for n in cfg.resolutions))
    out.append(f"coarse_steps = {cfg.coarse_steps}")
    out.append("viscosity_s = " + ",".join(_fmt(x) for x in cfg.viscosity_s))
    out.append(f"viscosity_n = {cfg.viscosity_n}")
    out.append(f"viscosity_mode = {cfg.viscosity_mode}")
    out.append(f"viscosity_amplitude = {_fmt(cfg.viscosity_amplitude)}")
    out.append(f"horizon_decay_times = {_fmt(cfg.horizon_decay_times)}")
    out.append("")
    return "\n".join(out)


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
    if d == 1 and cfg.initial_kind == "sine":
        # uy_* keys are meaningless on a 1-D lattice unless left untouched
        if cfg.uy_offset != 0.0 or cfg.uy_amplitude not in (0.0, RunConfig.uy_amplitude):
            raise ConfigError("key 'uy_amplitude': no transverse component in 1-D")
    if cfg.initial_kind == "uniform":
        rho = SineComponent(offset=cfg.rho0)
        comps = [SineComponent(offset=cfg.ux_offset)]
        if d == 2:
            comps.append(SineComponent(offset=cfg.uy_offset))
    else:
        rho = SineComponent(offset=cfg.rho0, amplitude=cfg.rho_amplitude,
                            mode=cfg.rho_mode)
        comps = [SineComponent(offset=cfg.ux_offset, amplitude=cfg.ux_amplitude,
                               mode=cfg.ux_mode)]
        if d == 2:
            comps.append(SineComponent(offset=cfg.uy_offset,
                                       amplitude=cfg.uy_amplitude,
                                       mode=cfg.uy_mode))
    return InitialField(rho=rho, velocity=tuple(comps))


def build_components(cfg: RunConfig) -> ComponentBundle:
    """Materialize lattice, matrix, model, parameters, grid and initial field."""
    vs = build_velocity_set(cfg.vectors if cfg.vectors is not None
                            else cfg.lattice_name)
    mm = build_moment_matrix(vs, cfg.lam, higher_rows=cfg.higher_rows)
    kind = cfg.eq_kind
    model = build_equilibrium(vs, cfg.lam, kind=kind, cs2=cfg.cs2,
                              weights=cfg.weights)
    dx = cfg.length / cfg.nx
    dt = cfg.dt if cfg.dt is not None else dx / cfg.lam
    n_relaxed = vs.J - vs.d
    if len(cfg.s) == 1:
        s = np.full(n_relaxed, cfg.s[0])
    elif len(cfg.s) == n_relaxed:
        s = np.asarray(cfg.s, dtype=float)
    else:
        raise ConfigError(
            f"key 's': expected 1 or {n_relaxed} relaxation ratios, got {len(cfg.s)}"
        )
    params = SchemeParams(dx=dx, dt=dt, s=s)
    if vs.d == 1:
        grid_shape: tuple[int, ...] = (cfg.nx,)
    else:
        grid_shape = (cfg.nx, cfg.ny if cfg.ny is not None else cfg.nx)
    field = build_field(cfg, vs.d)
    return ComponentBundle(vs=vs, mm=mm, model=model, params=params,
                           grid_shape=grid_shape, field=field, steps=cfg.steps,
                           length=cfg.length)
