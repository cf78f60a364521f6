"""Manufactured-solution refinement studies and shear-wave viscometry.

Every study runs the configured initial profile on a ladder of grids with
the celerity lam = dx/dt held fixed, so dt shrinks with dx and the observed
decay of a residual norm against dt is the order of the corresponding
expansion claim.  Residuals are measured after a fixed physical time (at
least 20 coarse-grid steps) so the relaxation transient left by the
equilibrium initialization has died out.

Each resolution is simulated once: ``run`` for n - 1 steps, then two
``step`` calls, so the measurement step n is bracketed by one step on
either side.  All five residuals come from that one run: the moment
disequilibrium and the defect-corrected moment prediction from the step-n
state, the mass and momentum balances from a centered time difference
across steps n - 1, n and n + 1.  ``refinement_studies`` fits all five over
the ladder; ``run_verification`` builds the components from a ``RunConfig``,
takes the study parameters from its [study] fields and keeps the outcomes
the requested study needs.

Expected orders: moment disequilibrium decays at first order; the
(dt/s) theta correction makes the prediction second order; the momentum
balance closes at first order with the bare flux and at second order with
the corrected flux; mass closes at second order.  The shear-wave viscometer
checks the relaxation-rate/viscosity relation nu = cs2 dt (1/s - 1/2) on
the configured 2-D lattice.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analysis
from .analysis import (
    SmoothField,
    euler_flux_divergence,
    fd_gradient,
    ns_flux_correction,
    technical_lemma_prediction,
)
from .config import ComponentBundle, RunConfig, build_components
from .equilibrium import equilibrium_moments
from .errors import ConfigError, FitRejected, IllConditionedWarning, SimulationDiverged
from .fields import shear_wave_field
from .scheme import (
    SchemeParams,
    check_finite,
    conservation_audit,
    initialize_equilibrium,
    moments_of,
    run,
    step,
)

FIRST_ORDER_BAND = (0.8, 1.2)
SECOND_ORDER_BAND = (1.75, 2.25)
MIN_R_SQUARED = 0.99
MIN_COARSE_STEPS = 20
VISCOSITY_RTOL = 0.02
ILL_CONDITIONED_S = 1.95
# Grids of 2-D lattices are N x CROSS_AXIS_NODES: the profiles vary along x only.
CROSS_AXIS_NODES = 8

# The mass balance has no upper slope bound: with the built-in equilibria
# (cs2 = lam^2/3) the dt^2 coefficient of the centered-difference mass
# residual cancels identically, so the default preset superconverges at
# slope ~3 and only "second order or better" can be asserted.  Equilibrium
# tables with cs2 != lam^2/3 show the generic slope 2.
STUDY_BANDS = {
    "prop3": FIRST_ORDER_BAND,
    "prop4": FIRST_ORDER_BAND,
    "prop5": SECOND_ORDER_BAND,
    "prop6": SECOND_ORDER_BAND,
    "mass": (SECOND_ORDER_BAND[0], None),
}
REFINEMENT_EXPERIMENTS = tuple(STUDY_BANDS)


def resolution_residuals(components: ComponentBundle, N: int, steps: int) -> dict:
    """All five residual norms from one simulation on an N-node grid.

    The run takes ``steps`` + 1 steps.  The step-``steps`` state gives the
    max-norm moment disequilibrium |m - m_eq| ('prop3') and the max-norm
    error of the first-order prediction m_eq - (dt/s) theta ('prop5').  A
    centered time difference across the neighbouring steps, with spatial
    terms on the middle state, gives the mass balance residual ('mass') and
    the momentum balance residual with the bare flux ('prop4') and with the
    corrected flux ('prop6').  'mass_drift' is the relative drift of the
    global mass over the whole run.
    """
    vs, mm, model = components.vs, components.mm, components.model
    dx = components.length / N
    params = SchemeParams(dx=dx, dt=dx / mm.lam, s=components.params.s)
    grid = (N,) if vs.d == 1 else (N, CROSS_AXIS_NODES)
    state = initialize_equilibrium(model, vs, components.field.conserved(grid, dx))
    initial = state
    args = (vs, mm, model, params)
    nc = mm.d + 1
    state = run(state, steps - 1, *args)
    W_prev = moments_of(state, mm)[..., :nc]
    state = step(state, *args)
    m = moments_of(state, mm)
    W = m[..., :nc]
    state = step(state, *args)
    W_next = moments_of(state, mm)[..., :nc]

    m_eq = equilibrium_moments(model, vs, mm, W)
    fld = SmoothField(W=W, dx=dx)
    # looked up on the module, where bench/tracing.py counts its calls
    defect = analysis.conservation_defect(fld, model, vs, mm)
    pred = technical_lemma_prediction(defect, model, vs, mm, params)
    dtW = (W_next - W_prev) / (2.0 * params.dt)
    efd = euler_flux_divergence(fld, model, vs)
    corrected = ns_flux_correction(defect, model, vs, mm, params)
    div_corr = np.zeros(W.shape[:-1] + (mm.d,))
    for a in range(mm.d):
        for b in range(mm.d):
            div_corr[..., a] += fd_gradient(corrected[..., a, b], b, dx)
    return {
        "prop3": float(np.abs(m[..., nc:] - m_eq[..., nc:]).max()),
        "prop4": float(np.abs(dtW[..., 1:] + efd[..., 1:]).max()),
        "prop5": float(np.abs(m[..., nc:] - pred[..., nc:]).max()),
        "prop6": float(np.abs(dtW[..., 1:] + div_corr).max()),
        "mass": float(np.abs(dtW[..., 0] + efd[..., 0]).max()),
        "mass_drift": conservation_audit(initial, state, mm)["mass_drift"],
    }


def fit_linear(x, y) -> tuple[float, float, float]:
    """Least-squares slope, intercept and R^2 of y against x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def fit_loglog(x, y) -> tuple[float, float, float]:
    """Least-squares slope, intercept and R^2 of log y against log x."""
    return fit_linear(np.log(np.asarray(x, dtype=float)),
                      np.log(np.asarray(y, dtype=float)))


@dataclass(frozen=True)
class RefinementStudy:
    """Residuals over a resolution ladder plus the fitted log-log slope.

    ``slope`` is None when the regression was rejected (residuals hit zero
    or R^2 fell below 0.99); ``note`` says why.
    """

    experiment: str
    resolutions: tuple[int, ...]
    dx: tuple[float, ...]
    dt: tuple[float, ...]
    residuals: tuple[float, ...]
    mass_drifts: tuple[float, ...]
    slope: Optional[float]
    intercept: Optional[float]
    r2: Optional[float]
    ok: bool
    note: str = ""

    def running_slopes(self) -> tuple[float, ...]:
        out = [math.nan]
        for i in range(1, len(self.resolutions)):
            num = math.log(self.residuals[i] / self.residuals[i - 1])
            den = math.log(self.dt[i] / self.dt[i - 1])
            out.append(num / den)
        return tuple(out)


def _validate_ladder(resolutions, coarse_steps: int) -> tuple[int, ...]:
    ns = tuple(int(n) for n in resolutions)
    if len(ns) < 4:
        raise ConfigError(f"refinement study needs at least 4 resolutions, got {len(ns)}")
    for a, b in zip(ns, ns[1:]):
        if b != 2 * a:
            raise ConfigError(f"resolutions must double, got {a} -> {b}")
    if coarse_steps < MIN_COARSE_STEPS:
        raise ConfigError(
            f"coarse_steps must be at least {MIN_COARSE_STEPS}, got {coarse_steps}"
        )
    return ns


def _assemble(experiment: str, components: ComponentBundle, ns, residuals,
              drifts) -> RefinementStudy:
    dxs = tuple(components.length / n for n in ns)
    dts = tuple(dx / components.mm.lam for dx in dxs)
    if min(residuals) <= 0.0:
        return RefinementStudy(experiment, ns, dxs, dts, tuple(residuals),
                               tuple(drifts), None, None, None, False,
                               note="residuals vanished; nothing to fit")
    slope, intercept, r2 = fit_loglog(dts, residuals)
    if r2 < MIN_R_SQUARED:
        return RefinementStudy(experiment, ns, dxs, dts, tuple(residuals),
                               tuple(drifts), None, None, r2, False,
                               note=f"regression rejected, R2={r2:.4f}")
    band = STUDY_BANDS[experiment]
    lo, hi = band
    ok = slope >= lo and (hi is None or slope <= hi)
    note = "" if ok else f"slope {slope:.3f} outside {band}"
    return RefinementStudy(experiment, ns, dxs, dts, tuple(residuals),
                           tuple(drifts), slope, intercept, r2, ok, note)


def refinement_studies(components: ComponentBundle, resolutions,
                       coarse_steps: int) -> dict[str, RefinementStudy]:
    """Fit the order of all five residuals over a doubling resolution ladder.

    The coarsest grid runs ``coarse_steps`` steps and each finer grid
    proportionally more, so every grid is measured at the same physical time;
    each grid is simulated once (see ``resolution_residuals``).
    """
    ns = _validate_ladder(resolutions, coarse_steps)
    rows = [resolution_residuals(components, n, coarse_steps * n // ns[0])
            for n in ns]
    drifts = [r["mass_drift"] for r in rows]
    return {
        name: _assemble(name, components, ns, [r[name] for r in rows], drifts)
        for name in REFINEMENT_EXPERIMENTS
    }


# The per-study entry points of earlier versions.  The benchmark's tracer
# (bench/tracing.py) still wraps them by name to time the refinement layer.
def study_prop3(components: ComponentBundle, resolutions,
                coarse_steps: int) -> RefinementStudy:
    return refinement_studies(components, resolutions, coarse_steps)["prop3"]


def study_prop5(components: ComponentBundle, resolutions,
                coarse_steps: int) -> RefinementStudy:
    return refinement_studies(components, resolutions, coarse_steps)["prop5"]


def study_conservation_laws(components: ComponentBundle, resolutions,
                            coarse_steps: int) -> dict[str, RefinementStudy]:
    studies = refinement_studies(components, resolutions, coarse_steps)
    return {key: studies[key] for key in ("prop4", "prop6", "mass")}


# ---------------------------------------------------------------------------
# Shear-wave viscometry


@dataclass(frozen=True)
class ShearWaveConfig:
    """Transverse-wave decay experiment: u_y(x, 0) = amplitude sin(2 pi mode x / L)."""

    mode: int = 1
    amplitude: float = 1e-3
    s_shear: float = 1.5
    horizon_decay_times: float = 1.5

    def __post_init__(self):
        if not 0 < self.amplitude <= 1e-3:
            raise ConfigError(
                f"amplitude {self.amplitude} outside the linear regime (0, 1e-3]"
            )
        if self.mode < 1:
            raise ConfigError(f"mode must be >= 1, got {self.mode}")
        if self.horizon_decay_times <= 0:
            raise ConfigError("horizon must be positive")


@dataclass(frozen=True)
class ViscosityMeasurement:
    s_shear: float
    N: int
    dx: float
    dt: float
    nu_measured: float
    nu_predicted: float
    resolution_floor: float
    fit_r2: float
    steps: int
    mass_drift: float

    @property
    def below_floor(self) -> bool:
        return abs(self.nu_measured) < self.resolution_floor

    @property
    def relative_error(self) -> float:
        return abs(self.nu_measured / self.nu_predicted - 1.0)


def resolution_floor(cs2: float, dt: float, k: float, dx: float) -> float:
    """Smallest viscosity the grid can attribute to the relaxation rate.

    The first neglected correction to the decay rate is O((k dx)^2) relative,
    so rates predicting less than cs2*dt*(k dx)^2 drown in discretization
    effects and a measurement can only bound them.
    """
    return cs2 * dt * (k * dx) ** 2


def _mode_amplitude(f: np.ndarray, velocities: np.ndarray, mode: int) -> float:
    rho = f.sum(axis=-1)
    q_y = f @ velocities[:, 1]
    u_y = q_y / rho
    column = u_y.mean(axis=1) if u_y.ndim > 1 else u_y
    coef = np.fft.rfft(column)[mode]
    return 2.0 * abs(coef) / column.shape[0]


def _fit_decay(times: np.ndarray, amplitudes: np.ndarray,
               floor_rate: float) -> tuple[float, float]:
    """Slope and R^2 of ln(amplitude) against t, rejecting contaminated decays.

    A decay faster than the resolution floor must be essentially monotone;
    in that regime a non-trivial total uptick means another mode (acoustic
    contamination) is beating against the shear wave and the fit would not
    measure a viscosity.
    """
    if len(amplitudes) < 8:
        raise FitRejected("too few samples to fit a decay rate")
    if not np.all(np.isfinite(amplitudes)) or np.any(amplitudes <= 0.0):
        raise SimulationDiverged("amplitude series is not finite and positive")
    slope, _, r2 = fit_linear(times, np.log(amplitudes))
    increments = np.diff(amplitudes)
    upticks = float(increments[increments > 0].sum())
    span = float(amplitudes[0] - amplitudes[-1])
    if -slope > floor_rate and (span <= 0.0 or upticks > 0.05 * span):
        raise FitRejected(
            f"amplitude decay is non-monotone (upticks {upticks:.3e} vs span {span:.3e})"
        )
    return slope, r2


def measure_viscosity(components: ComponentBundle, wave: ShearWaveConfig,
                      N: int) -> ViscosityMeasurement:
    """Measure the shear kinematic viscosity from the wave's amplitude decay.

    Runs the configured 2-D lattice, moment matrix and equilibrium on an
    N x CROSS_AXIS_NODES grid spanning the configured domain length, with
    every relaxed moment at ``wave.s_shear``.  Fits ln(amplitude) against
    time and returns nu = -slope/k^2 next to the predicted
    cs2 * dt * (1/s_shear - 1/2).  Rates at s_shear >= 1.95 predict decays
    below the resolution floor and are flagged as ill conditioned.
    """
    vs, mm, model = components.vs, components.mm, components.model
    if vs.d != 2:
        raise ConfigError(
            f"shear-wave viscometry needs a 2-D lattice, got d={vs.d}"
        )
    if wave.s_shear >= ILL_CONDITIONED_S:
        warnings.warn(
            f"s_shear={wave.s_shear} leaves the predicted decay below the "
            f"resolution floor; the measurement only bounds it",
            IllConditionedWarning,
            stacklevel=2,
        )
    dx = components.length / N
    dt = dx / mm.lam
    k = 2.0 * np.pi * wave.mode / components.length
    params = SchemeParams(dx=dx, dt=dt, s=np.full(vs.J - vs.d, wave.s_shear))
    nu_pred = model.cs2 * dt * (1.0 / wave.s_shear - 0.5)
    floor = resolution_floor(model.cs2, dt, k, dx)
    rate_ref = max(nu_pred, floor) * k * k
    steps = int(np.ceil(wave.horizon_decay_times / rate_ref / dt))

    field = shear_wave_field(1.0, wave.amplitude, wave.mode)
    grid = (N, CROSS_AXIS_NODES)
    state = initialize_equilibrium(model, vs, field.conserved(grid, dx))
    initial = state
    amps = np.empty(steps + 1)
    amps[0] = _mode_amplitude(state.f, model.velocities, wave.mode)
    for i in range(steps):
        state = step(state, vs, mm, model, params)
        amps[i + 1] = _mode_amplitude(state.f, model.velocities, wave.mode)
    check_finite(state)
    audit = conservation_audit(initial, state, mm)

    skip = max(32, steps // 20)
    times = dt * np.arange(steps + 1)
    slope, r2 = _fit_decay(times[skip:], amps[skip:], floor * k * k)
    return ViscosityMeasurement(
        s_shear=wave.s_shear, N=N, dx=dx, dt=dt,
        nu_measured=-slope / (k * k), nu_predicted=nu_pred,
        resolution_floor=floor, fit_r2=r2, steps=steps,
        mass_drift=audit["mass_drift"],
    )


# ---------------------------------------------------------------------------
# Named-study orchestration (shared by the CLI and the experiment scripts)

# study name -> the experiments it reports, in report order
STUDY_EXPERIMENTS = {
    "prop3": ("prop3",),
    "prop4": ("prop4",),
    "prop5": ("prop5",),
    "prop6": ("prop6", "mass"),
    "viscosity": ("viscosity",),
    "all": REFINEMENT_EXPERIMENTS + ("viscosity",),
}
STUDY_NAMES = tuple(STUDY_EXPERIMENTS)

REFINEMENT_HEADER = ("N", "dx", "dt", "residual", "slope_running")
VISCOSITY_HEADER = ("s_shear", "N", "dx", "dt", "nu_predicted", "nu_measured",
                    "rel_error", "fit_r2")


@dataclass(frozen=True)
class StudyOutcome:
    experiment: str
    header: tuple[str, ...]
    rows: tuple[tuple, ...]
    summary_value: Optional[float]
    r2: Optional[float]
    passed: bool
    note: str = ""

    def summary_line(self) -> str:
        value = "nan" if self.summary_value is None else f"{self.summary_value:.6g}"
        r2 = "nan" if self.r2 is None else f"{self.r2:.6g}"
        verdict = "pass" if self.passed else "fail"
        tail = f"  ({self.note})" if self.note else ""
        return f"{self.experiment:>14}  value={value:>12}  r2={r2:>10}  {verdict}{tail}"


def _outcome_from_study(study: RefinementStudy) -> StudyOutcome:
    rows = tuple(
        (n, dx, dt, res, sr)
        for n, dx, dt, res, sr in zip(study.resolutions, study.dx, study.dt,
                                      study.residuals, study.running_slopes())
    )
    return StudyOutcome(
        experiment=study.experiment,
        header=REFINEMENT_HEADER,
        rows=rows,
        summary_value=study.slope,
        r2=study.r2,
        passed=study.ok,
        note=study.note,
    )


def _viscosity_outcome(components: ComponentBundle, cfg: RunConfig) -> StudyOutcome:
    rows = []
    worst = 0.0
    worst_r2 = 1.0
    passed = True
    notes = []
    N = cfg.viscosity_n
    for s in cfg.viscosity_s:
        wave = ShearWaveConfig(mode=cfg.viscosity_mode,
                               amplitude=cfg.viscosity_amplitude, s_shear=s,
                               horizon_decay_times=cfg.horizon_decay_times)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            meas = measure_viscosity(components, wave, N)
        if s >= ILL_CONDITIONED_S:
            ok = meas.below_floor
            rel = math.nan
            if not ok:
                notes.append(f"s={s}: decay above resolution floor")
        else:
            rel = meas.relative_error
            worst = max(worst, rel)
            worst_r2 = min(worst_r2, meas.fit_r2)
            ok = rel <= VISCOSITY_RTOL
            if not ok:
                notes.append(f"s={s}: error {rel:.3%}")
        passed = passed and ok
        rows.append((s, N, meas.dx, meas.dt, meas.nu_predicted,
                     meas.nu_measured, rel, meas.fit_r2))
    return StudyOutcome(
        experiment="viscosity",
        header=VISCOSITY_HEADER,
        rows=tuple(rows),
        summary_value=worst,
        r2=worst_r2,
        passed=passed,
        note="; ".join(notes),
    )


def run_verification(study: str, cfg: RunConfig) -> list[StudyOutcome]:
    """Run one named study (or all of them) on a config; printable outcomes.

    The components come from ``build_components(cfg)``; the ladder, the
    coarse-grid step count and the viscometry cases from its [study] fields.
    """
    if study not in STUDY_EXPERIMENTS:
        raise ConfigError(f"unknown study {study!r}; expected one of {STUDY_NAMES}")
    experiments = STUDY_EXPERIMENTS[study]
    components = build_components(cfg)
    outcomes: dict[str, StudyOutcome] = {}
    # viscometry first, so a lattice it cannot run fails before the ladder does
    if "viscosity" in experiments:
        outcomes["viscosity"] = _viscosity_outcome(components, cfg)
    if any(name in STUDY_BANDS for name in experiments):
        studies = refinement_studies(components, cfg.resolutions, cfg.coarse_steps)
        for name, refined in studies.items():
            outcomes[name] = _outcome_from_study(refined)
    return [outcomes[name] for name in experiments]
