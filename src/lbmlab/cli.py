"""Command-line front door: analyze | run | verify.

Exit codes are documented in ``lbmlab.errors``: each error class carries its
own code and stderr label.  All commands are deterministic given the same
config file.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

from .analysis import pde_report
from .config import ComponentBundle, build_components, load_config
from .csvio import write_csv
from .errors import ConfigError, LbmError
from .scheme import (
    conservation_audit,
    initialize_equilibrium,
    moments_of,
    run,
    save_checkpoint,
)
from .verify import run_verification

EXIT_OK = 0
EXIT_CONFIG = ConfigError.exit_code
EXIT_VERIFICATION = 5


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    bundle = build_components(cfg)
    report = pde_report(bundle.vs, bundle.mm, bundle.model, bundle.params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "pde_report.csv").write_text(report.to_csv(), newline="\n")
    (out / "pde_report.txt").write_text(report.to_text(), newline="\n")
    _say(args, report.to_text())
    _say(args, f"wrote {out / 'pde_report.csv'} and {out / 'pde_report.txt'}")
    return EXIT_OK


def _write_moment_fields(path, bundle: ComponentBundle, state) -> None:
    m = moments_of(state, bundle.mm)
    d = bundle.mm.d
    grid = state.grid_shape
    index_names = ["i", "j"][: len(grid)]
    header = index_names + ["rho", "qx", "qy"][: 1 + d]
    values = map(np.ndarray.tolist, m[..., : 1 + d].reshape(-1, 1 + d))
    nodes = itertools.product(*map(range, grid))  # row-major, as values
    rows = ((*idx, *vals) for idx, vals in zip(nodes, values))
    write_csv(path, header, rows)


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    bundle = build_components(cfg)
    W0 = bundle.field.conserved(bundle.grid_shape, bundle.params.dx)
    state = initialize_equilibrium(bundle.model, bundle.vs, W0)
    initial = state
    state = run(state, bundle.steps, bundle.vs, bundle.mm, bundle.model,
                bundle.params)
    audit = conservation_audit(initial, state, bundle.mm)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "checkpoint.csv", state, bundle.params, bundle.mm)
    _write_moment_fields(out / "moments.csv", bundle, state)
    mom = ", ".join(f"{x:.3e}" for x in audit["momentum_drift"])
    _say(args, f"ran {bundle.steps} steps on grid {state.grid_shape}")
    _say(args, f"conservation audit: mass drift {audit['mass_drift']:.3e} "
               f"relative, momentum drift [{mom}] relative")
    _say(args, f"wrote {out / 'checkpoint.csv'} and {out / 'moments.csv'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    outcomes = run_verification((args.study or cfg.study_name).lower(), cfg)
    out = Path(args.out)
    for outcome in outcomes:
        write_csv(out / f"{outcome.experiment}.csv", outcome.header, outcome.rows)
        _say(args, outcome.summary_line())
    write_csv(
        out / "summary.csv",
        ("experiment", "fitted_slope", "r2", "passed"),
        [(o.experiment, o.summary_value, o.r2, "pass" if o.passed else "fail")
         for o in outcomes],
    )
    if all(o.passed for o in outcomes):
        return EXIT_OK
    return EXIT_VERIFICATION


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lbmlab",
        description="moment-space lattice Boltzmann runs, equivalent-equation "
                    "reports and order-verification studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
        ("analyze", cmd_analyze, "write the transport-coefficient report"),
        ("run", cmd_run, "run a simulation and dump checkpoint + moment fields"),
        ("verify", cmd_verify, "run refinement/viscometry studies"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--quiet", action="store_true", help="suppress stdout chatter")
        if name == "verify":
            p.add_argument("--study", default=None,
                           help="prop3|prop4|prop5|prop6|viscosity|all "
                                "(default: the config's [study] name)")
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except LbmError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
