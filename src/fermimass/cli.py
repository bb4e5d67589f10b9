"""Command line interface.

Subcommands: check | break | masses | lattice | verify-all.
Exit codes: 0 all checks passed, 1 invariant failure, 2 input error.
"""

import argparse
import functools
import sys

import numpy as np

from .reference import REGISTRY, resolve_model
from .reports import Run, cmd_break, cmd_check, cmd_lattice, cmd_masses, cmd_verify_all

COMMANDS = {
    "check": cmd_check,
    "break": cmd_break,
    "masses": cmd_masses,
    "lattice": cmd_lattice,
    "verify-all": cmd_verify_all,
}


@functools.cache
def build_parser():
    """The command line parser, built once per process; parse_args returns
    a new namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="fermimass",
        description="Mass matrices, vacuum geometry and lattice Dirac spectra "
        "for spontaneously broken gauge theories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    registry = ", ".join(sorted(REGISTRY))
    for name, help_text in (
        ("check", "load and validate a model file"),
        ("break", "minimize the potential and report the breaking pattern"),
        ("masses", "mass matrix, eigenbundles and structural checks"),
        ("lattice", "lattice operators, spectra and curvature identities"),
        ("verify-all", "run every command; exit 0 only if all checks pass"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument(
            "--model",
            required=True,
            help=f"path to a model file, or a registry name ({registry})",
        )
        sp.add_argument("--out", help="write the report here instead of stdout")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument(
            "--tol-scale",
            type=float,
            default=1.0,
            help="multiply every residual bound by this factor",
        )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise"):
            report = COMMANDS[args.command](Run(resolve_model(args.model), args.tol_scale))
        text = report.to_json() if args.format == "json" else report.to_csv()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (OSError, ValueError, FloatingPointError) as exc:
        # a ModelError is a ValueError; some input problems only surface
        # mid-run, e.g. a Wilson theta width that disagrees with the
        # computed isotropy dimension, a float overflow from a model's
        # absurd magnitudes (a FloatingPointError), and an --out path that
        # cannot be written only at the end
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
