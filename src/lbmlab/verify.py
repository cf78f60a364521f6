"""Manufactured-solution refinement studies and shear-wave viscometry.

Every study runs the configured initial profile on a ladder of grids with
the celerity lam = dx/dt held fixed, so dt shrinks with dx and the observed
decay of a residual norm against dt is the order of the corresponding
expansion claim.  Residuals are measured after a fixed physical time, at
least 20 coarse-grid steps.  That does not remove the relaxation transient
left by the equilibrium initialization: it decays as |1 - s|^n after n
steps, so about 3% of it is left after 32 steps at s = 1.9, where the prop5
and mass residuals no longer fall on a straight line.

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
the corrected flux; mass closes at second order.

The shear-wave viscometer checks every relaxation rate s the same way on the
configured 2-D lattice.  Each case starts from the scheme's own shear
eigenmode (von Neumann analysis of one step), so no other mode is excited
and ln(amplitude) is a straight line from step 0, at s = 2 too:
VISCOMETER_STEPS steps serve every case, with no transient to skip.  Both
checks compare decays per step, k^2 nu dt, up to EIGENVALUE_ROUNDING: (a)
the measured nu must match the scheme's exact nu_exact to VISCOSITY_ATOL
cs2 dt, and (b) nu_exact must match the paper's nu = cs2 dt (1/s - 1/2) to
VISCOSITY_RTOL.  Only the grid (viscosity_n) and the rates (viscosity_s) are
configured; the wave is mode 1 with amplitude SHEAR_WAVE_AMPLITUDE, deep in
the linear regime.  No capability is lost by fixing the mode: the per-step
amplification depends only on k dx and s, so mode m on N nodes decays per
step as mode 1 on N/m nodes, and both errors, in units of cs2 dt, come out
the same.

Every study reports one ``StudyOutcome``: the rows of its CSV, a summary
value (the fitted slope, or the worst viscometry error) and R^2, where nan
means "not available".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import analysis
from .analysis import (
    divergence,
    euler_flux_divergence,
    ns_flux_correction,
    technical_lemma_prediction,
)
from .config import (
    STUDY_NAMES,
    ComponentBundle,
    RunConfig,
    build_components,
    validate_ladder,
)
from .equilibrium import equilibrium_jacobian, equilibrium_moments
from .errors import ConfigError, SimulationDiverged
from .scheme import (
    SchemeParams,
    SchemeState,
    conservation_audit,
    initialize_equilibrium,
    moments_of,
    run,
    step,
)

FIRST_ORDER_BAND = (0.8, 1.2)
SECOND_ORDER_BAND = (1.75, 2.25)
MIN_R_SQUARED = 0.99
VISCOSITY_RTOL = 0.02
VISCOSITY_ATOL = 1e-9  # in units of cs2 dt
EIGENVALUE_ROUNDING = 64 * np.finfo(float).eps
SHEAR_WAVE_AMPLITUDE = 1e-3
VISCOMETER_STEPS = 64
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
    dx = 1.0 / N
    params = SchemeParams(dx=dx, dt=dx / mm.lam, s=components.params.s)
    grid = (N,) if vs.d == 1 else (N, CROSS_AXIS_NODES)
    state = initialize_equilibrium(model, vs, components.field.conserved(grid, dx))
    initial = state
    args = (vs, mm, model, params)
    nc = mm.d + 1
    # copies of the conserved rows, so that the whole moment arrays are freed
    state = run(state, steps - 1, *args)
    W_prev = moments_of(state, mm)[..., :nc].copy()
    state = step(state, *args)
    m = moments_of(state, mm)
    W = m[..., :nc]
    prop3 = float(np.abs(m[..., nc:] - equilibrium_moments(model, vs, mm, W)[..., nc:]).max())
    state = step(state, *args)
    W_next = moments_of(state, mm)[..., :nc].copy()

    # looked up on the module, where bench/tracing.py counts its calls
    theta = analysis.conservation_defect(W, analysis.fd_gradients(W, dx), model, vs, mm)
    pred = technical_lemma_prediction(theta, W, model, vs, mm, params)
    dtW = (W_next - W_prev) / (2.0 * params.dt)
    efd = euler_flux_divergence(W, dx, model, vs)
    corrected = ns_flux_correction(theta, W, model, vs, mm, params)
    div_corr = divergence(corrected, dx)
    return {
        "prop3": prop3,
        "prop4": float(np.abs(dtW[..., 1:] + efd[..., 1:]).max()),
        "prop5": float(np.abs(m[..., nc:] - pred[..., nc:]).max()),
        "prop6": float(np.abs(dtW[..., 1:] + div_corr).max()),
        "mass": float(np.abs(dtW[..., 0] + efd[..., 0]).max()),
        "mass_drift": conservation_audit(initial, state, mm)["mass_drift"],
    }


def fit_linear(x, y) -> tuple[float, float]:
    """Least-squares slope and R^2 of y against x; R^2 is nan when the spread
    of y is not finite, and 1 when y is constant."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if not math.isfinite(ss_tot):
        r2 = math.nan
    elif ss_tot > 0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0
    return float(slope), r2


def fit_loglog(x, y) -> tuple[float, float]:
    """Least-squares slope and R^2 of log y against log x."""
    return fit_linear(np.log(np.asarray(x, dtype=float)),
                      np.log(np.asarray(y, dtype=float)))


def running_slopes(residuals, dts) -> tuple[float, ...]:
    """Slope between neighbouring grids; nan first and across a residual that
    is zero or not finite."""
    r, dt = residuals, dts
    return (math.nan,) + tuple(
        math.log(r[i] / r[i - 1]) / math.log(dt[i] / dt[i - 1])
        if 0.0 < r[i - 1] < math.inf and 0.0 < r[i] < math.inf else math.nan
        for i in range(1, len(r)))


REFINEMENT_HEADER = ("N", "dx", "dt", "residual", "slope_running")


@dataclass(frozen=True)
class StudyOutcome:
    """One study's CSV rows, summary value and R^2, and its verdict.

    A refinement study's summary value is the fitted log-log slope, nan when
    the regression was rejected (residuals were not finite or hit zero, or
    R^2 fell below MIN_R_SQUARED); ``note`` says why.  Viscometry has no R^2
    (nan).
    """

    experiment: str
    header: tuple[str, ...]
    rows: tuple[tuple, ...]
    summary_value: float
    r2: float
    passed: bool
    note: str = ""

    def summary_line(self) -> str:
        verdict = "pass" if self.passed else "fail"
        tail = f"  ({self.note})" if self.note else ""
        return (f"{self.experiment:>14}  value={self.summary_value:>12.6g}  "
                f"r2={self.r2:>10.6g}  {verdict}{tail}")


def _assemble(experiment: str, components: ComponentBundle, ns,
              residuals) -> StudyOutcome:
    dxs = tuple(1.0 / n for n in ns)
    dts = tuple(dx / components.mm.lam for dx in dxs)
    rows = tuple(zip(ns, dxs, dts, residuals, running_slopes(residuals, dts)))
    outcome = partial(StudyOutcome, experiment, REFINEMENT_HEADER, rows)
    if not all(map(math.isfinite, residuals)):
        return outcome(math.nan, math.nan, False, "residuals not finite; nothing to fit")
    if min(residuals) <= 0.0:
        return outcome(math.nan, math.nan, False, "residuals vanished; nothing to fit")
    slope, r2 = fit_loglog(dts, residuals)
    if r2 < MIN_R_SQUARED:
        return outcome(math.nan, r2, False, f"regression rejected, R2={r2:.4f}")
    lo, hi = band = STUDY_BANDS[experiment]
    ok = slope >= lo and (hi is None or slope <= hi)
    return outcome(slope, r2, ok, "" if ok else f"slope {slope:.3f} outside {band}")


def refinement_studies(components: ComponentBundle, resolutions,
                       coarse_steps: int) -> dict[str, StudyOutcome]:
    """Fit the order of all five residuals over a doubling resolution ladder.

    The coarsest grid runs ``coarse_steps`` steps and each finer grid
    proportionally more, so every grid is measured at the same physical time;
    each grid is simulated once (see ``resolution_residuals``).
    """
    ns = validate_ladder(resolutions, coarse_steps)
    rows = [resolution_residuals(components, n, coarse_steps * n // ns[0])
            for n in ns]
    return {
        name: _assemble(name, components, ns, [r[name] for r in rows])
        for name in REFINEMENT_EXPERIMENTS
    }


# The per-study entry points of earlier versions.  The benchmark's tracer
# (bench/tracing.py) still wraps them by name to time the refinement layer.
def study_prop3(components: ComponentBundle, resolutions,
                coarse_steps: int) -> StudyOutcome:
    return refinement_studies(components, resolutions, coarse_steps)["prop3"]


def study_prop5(components: ComponentBundle, resolutions,
                coarse_steps: int) -> StudyOutcome:
    return refinement_studies(components, resolutions, coarse_steps)["prop5"]


def study_conservation_laws(components: ComponentBundle, resolutions,
                            coarse_steps: int) -> dict[str, StudyOutcome]:
    studies = refinement_studies(components, resolutions, coarse_steps)
    return {key: studies[key] for key in ("prop4", "prop6", "mass")}


# ---------------------------------------------------------------------------
# Shear-wave viscometry


@dataclass(frozen=True)
class ViscosityMeasurement:
    s_shear: float
    N: int
    dx: float
    dt: float
    k: float
    nu_measured: float
    nu_exact: float
    nu_predicted: float
    fit_r2: float
    steps: int
    mass_drift: float


def amplification_matrix(components: ComponentBundle, params: SchemeParams,
                         k: float) -> np.ndarray:
    """(J+1) x (J+1) matrix of one step acting on populations f ~ exp(i k x).

    von Neumann analysis of one step linearized about rest (rho = 1, q = 0),
    after Lallemand & Luo, Phys. Rev. E 61, 6546 (2000): relaxation in moment
    space towards the linearized equilibrium, back to populations, then
    streaming, which multiplies population j by exp(-i k e_j^x dx).
    """
    vs, mm, model = components.vs, components.mm, components.model
    nc = mm.d + 1
    eq = np.zeros((vs.J + 1, vs.J + 1))
    eq[:, :nc] = mm.M @ equilibrium_jacobian(model, vs, np.eye(nc)[0])
    relax = np.concatenate([np.zeros(nc), params.s])
    collision = np.eye(vs.J + 1) - relax[:, None] * (np.eye(vs.J + 1) - eq)
    shift = np.exp(-1j * k * params.dx * vs.e[:, 0])
    return shift[:, None] * (mm.M_inv @ collision @ mm.M)


def _shear_eigenpair(components: ComponentBundle, params: SchemeParams, k: float):
    """The eigenpair (lambda, v) of ``amplification_matrix`` whose
    eigenvector has the largest momentum_y share: the shear wave."""
    mm = components.mm
    eigvals, eigvecs = np.linalg.eig(amplification_matrix(components, params, k))
    moments = np.abs(mm.M @ eigvecs)
    share = moments[mm.names.index("momentum_y")] / np.linalg.norm(moments, axis=0)
    i = np.argmax(share)
    return eigvals[i], eigvecs[:, i]


def _mode_amplitude(f: np.ndarray, velocities: np.ndarray) -> float:
    # the momentum, not q_y / rho: dividing by the density's second-order
    # fluctuation reads a decay that the shear eigenvalue does not have
    column = (f @ velocities[:, 1]).mean(axis=1)
    coef = np.fft.rfft(column)[1]
    return 2.0 * abs(coef) / column.shape[0]


def measure_viscosity(components: ComponentBundle, N: int,
                      s_shear: float) -> ViscosityMeasurement:
    """Measure the shear kinematic viscosity from a shear wave's amplitude decay.

    Runs the configured 2-D lattice, moment matrix and equilibrium with every
    relaxed moment at ``s_shear`` on an N by CROSS_AXIS_NODES grid for
    VISCOMETER_STEPS steps, from the scheme's own shear eigenmode
    f = w + Re(a v exp(i k x)): w = f_eq(rho = 1, q = 0), (lambda, v) is the
    shear eigenpair for k = 2 pi on the unit domain, and a makes the
    momentum_y wave SHEAR_WAVE_AMPLITUDE sin(k x).  Returns nu = -slope/k^2
    of ln(amplitude) against time, fitted from step 0, next to the exact
    -ln|lambda| / (k^2 dt) and the predicted cs2 dt (1/s_shear - 1/2).  A
    lattice that is not 2-D and a k^2 dt that is not finite and > 0 are
    ConfigErrors, raised before any step; a RunConfig rejects a viscosity_n
    below MIN_NODES_PER_AXIS, and ``build_components`` a predicted nu that is
    not finite for every configured s.
    """
    vs, mm, model = components.vs, components.mm, components.model
    if vs.d != 2:
        raise ConfigError(f"shear-wave viscometry needs a 2-D lattice, got d={vs.d}")
    dx = 1.0 / N
    k = 2.0 * np.pi
    dt = dx / mm.lam
    per_step = k * k * dt
    if not (math.isfinite(per_step) and per_step > 0.0):
        raise ConfigError(f"key 'lambda': k**2 dt = {per_step!r} is not finite and > 0")
    params = SchemeParams(dx=dx, dt=dt, s=np.full(vs.J - vs.d, s_shear))
    nu_predicted = model.cs2 * dt * (1.0 / s_shear - 0.5)
    eigval, v = _shear_eigenpair(components, params, k)
    a = -1j * SHEAR_WAVE_AMPLITUDE / (mm.M @ v)[mm.names.index("momentum_y")]
    wave = np.real(a * np.exp(1j * k * dx * np.arange(N))[:, None] * v)
    initial = state = SchemeState(
        f=np.repeat((model.weights + wave)[:, None], CROSS_AXIS_NODES, axis=1))
    amps = np.empty(VISCOMETER_STEPS + 1)
    amps[0] = _mode_amplitude(state.f, model.velocities)
    for i in range(VISCOMETER_STEPS):
        state = step(state, vs, mm, model, params)
        amps[i + 1] = _mode_amplitude(state.f, model.velocities)
    audit = conservation_audit(initial, state, mm)
    if not np.all(amps > 0.0):
        raise SimulationDiverged("amplitude series is not finite and positive")

    slope, r2 = fit_linear(dt * np.arange(VISCOMETER_STEPS + 1), np.log(amps))
    return ViscosityMeasurement(
        s_shear=s_shear, N=N, dx=dx, dt=dt, k=k,
        nu_measured=-slope / (k * k), nu_exact=-math.log(abs(eigval)) / (k * k * dt),
        nu_predicted=nu_predicted,
        fit_r2=r2, steps=VISCOMETER_STEPS, mass_drift=audit["mass_drift"],
    )


# ---------------------------------------------------------------------------
# Named-study orchestration: the studies that ``lbmlab verify`` runs

# study name (config.STUDY_NAMES) -> the experiments it reports, in report order
STUDY_EXPERIMENTS = dict(zip(STUDY_NAMES, (
    ("prop3",),
    ("prop4",),
    ("prop5",),
    ("prop6", "mass"),
    ("viscosity",),
    REFINEMENT_EXPERIMENTS + ("viscosity",),
), strict=True))

VISCOSITY_HEADER = ("s_shear", "N", "dx", "dt", "nu_predicted", "nu_exact",
                    "nu_measured", "measured_error", "formula_error", "fit_r2")


def _viscosity_outcome(components: ComponentBundle, cfg: RunConfig) -> StudyOutcome:
    """One viscometry case per s; each must pass checks (a) and (b) of the
    module docstring.  'measured_error' = |nu_measured - nu_exact| and
    'formula_error' = |nu_exact - nu_predicted|, in units of cs2 dt."""
    rows = []
    notes = []
    for s in cfg.viscosity_s:
        meas = measure_viscosity(components, cfg.viscosity_n, s)
        unit = components.model.cs2 * meas.dt
        measured_error = abs(meas.nu_measured - meas.nu_exact) / unit
        formula_error = abs(meas.nu_exact - meas.nu_predicted) / unit
        per_step = meas.k * meas.k * meas.dt
        if not (per_step * abs(meas.nu_measured - meas.nu_exact)
                <= per_step * VISCOSITY_ATOL * unit + EIGENVALUE_ROUNDING):
            notes.append(f"s={s}: measured nu off the exact one by "
                         f"{measured_error:.3g} cs2 dt")
        if not (per_step * abs(meas.nu_exact - meas.nu_predicted)
                <= VISCOSITY_RTOL * per_step * meas.nu_predicted + EIGENVALUE_ROUNDING):
            notes.append(f"s={s}: exact nu off the prediction by "
                         f"{formula_error:.3g} cs2 dt")
        rows.append((s, meas.N, meas.dx, meas.dt, meas.nu_predicted,
                     meas.nu_exact, meas.nu_measured, measured_error,
                     formula_error, meas.fit_r2))
    return StudyOutcome(
        experiment="viscosity",
        header=VISCOSITY_HEADER,
        rows=tuple(rows),
        summary_value=max(row[7] for row in rows),
        r2=math.nan,
        passed=not notes,
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
    # viscometry first, so a case it cannot run fails before the ladder runs
    if "viscosity" in experiments:
        outcomes["viscosity"] = _viscosity_outcome(components, cfg)
    if any(name in STUDY_BANDS for name in experiments):
        outcomes.update(refinement_studies(components, cfg.resolutions,
                                           cfg.coarse_steps))
    return [outcomes[name] for name in experiments]
