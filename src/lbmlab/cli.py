"""Command-line front door: analyze | run | verify.

Exit codes are documented in ``lbmlab.errors``: each error class carries its
own code and stderr label.  All commands are deterministic given the same
config file.
"""

from __future__ import annotations

import argparse
import math
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

# Fewest nodes of a grid whose moment fields ``run`` writes in a worker
# process while it writes the checkpoint (see ``_write_outputs``).  The
# forked write's median time over the serial one's, in 15 alternating calls
# per grid on a 2-vCPU Xeon, fork and reap included: D2Q9 1.05-1.17 at 4,096
# nodes, 0.87 at 6,084, 0.75-0.83 at 8,281, 0.65-0.68 at 16,384 and 0.61 at
# 65,536; D1Q3, whose rows are shorter, 1.08-1.09 at 8,192, 1.13 at 12,288,
# 0.93-0.95 at 16,384, 0.80 at 24,576 and 0.55 at 65,536.
WRITER_NODES = 16384


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
    """One row per node in row-major order: the node's indices, then rho and
    the momentum components; the indices print as floats, which ``%.17g``
    writes as integers."""
    d = bundle.mm.d
    grid = state.grid_shape
    header = ["i", "j"][: len(grid)] + ["rho", "qx", "qy"][: 1 + d]
    m = moments_of(state, bundle.mm)[..., : 1 + d].reshape(-1, 1 + d)
    table = np.empty((len(m), len(grid) + 1 + d))
    table[:, : len(grid)] = np.indices(grid).reshape(len(grid), -1).T
    table[:, len(grid):] = m
    del m                            # the table alone is held while it is written
    write_csv(path, header, table)


def _write_outputs(out: Path, bundle: ComponentBundle, state) -> None:
    """Write ``checkpoint.csv`` and ``moments.csv`` of ``state`` to ``out``,
    the moment fields in a worker where ``cmd_run`` says."""
    checkpoint, moments = out / "checkpoint.csv", out / "moments.csv"
    worker = None
    if math.prod(state.grid_shape) >= WRITER_NODES:
        from ._team import fork_worker

        worker = fork_worker(lambda: _write_moment_fields(moments, bundle, state))
    if worker is None:
        save_checkpoint(checkpoint, state, bundle.params, bundle.mm)
        _write_moment_fields(moments, bundle, state)
        return
    with worker:
        save_checkpoint(checkpoint, state, bundle.params, bundle.mm)
    if worker.status != 0:
        _write_moment_fields(moments, bundle, state)


def cmd_run(args) -> int:
    """Step the config's initial field, write the last state to
    ``checkpoint.csv`` and its moment fields to ``moments.csv``, and print
    the conservation audit.

    On a grid of at least WRITER_NODES nodes, a worker forked onto a second
    CPU (``_team.fork_worker``) writes ``moments.csv`` while this process
    writes the larger ``checkpoint.csv``; each process is pinned to its own
    CPU, and the worker is reaped before the command returns.  Both files are
    the same bytes as on one process.  If the worker fails, this process
    writes the moment fields itself, which raises what a serial write raises.
    If the checkpoint raises, an interrupt included, the worker is killed and
    reaped and the CPU mask restored, so a failed command may leave a partial
    ``moments.csv`` beside its partial checkpoint.  With one CPU, without
    ``os.fork``, or when the fork fails, one process writes both files.
    """
    cfg = load_config(args.config)
    bundle = build_components(cfg)
    W0 = bundle.field.conserved(bundle.grid_shape, bundle.params.dx)
    initial = initialize_equilibrium(bundle.model, bundle.vs, W0)
    state = run(initial, cfg.steps, bundle.vs, bundle.mm, bundle.model,
                bundle.params)
    audit = conservation_audit(initial, state, bundle.mm)
    del W0, initial                  # the files below are written from state alone
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_outputs(out, bundle, state)
    mom = ", ".join(f"{x:.3e}" for x in audit["momentum_drift"])
    _say(args, f"ran {cfg.steps} steps on grid {state.grid_shape}")
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
