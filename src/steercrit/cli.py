"""Command-line interface.

Commands: evaluate (one criterion report as JSON on stdout), sweep (CSV
file over a p grid), threshold (bisection result as JSON), validate-state
(diagnostics for a state file). Exit codes: 0 success, 1 validate-state ran
on an invalid state, 2 invalid configuration or malformed input file,
3 numerical failure, 4 threshold without a margin sign change.

All output is deterministic for a fixed configuration; the CLI contains no
randomness. Config problems are detected before any output file is opened,
so failed runs never leave partial files behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from stat import S_ISDIR

from .closed_forms import ClosedFormError, diff_rows, write_diff_csv
from .criteria import (
    CRITERIA,
    CRITERION_SRUR,
    MODE_CLOSED_FORM,
    MODE_LINEAR_G,
    MODES,
    evaluate_criterion,
)
from .families import FamilyError, family_moments, family_observables, family_state
from .inference import InferenceError
from .linalg import LinalgError
from .observables import (
    default_pairing,
    explicit_pairing,
    observable_from_json,
)
from .oracle import OracleError, audit_dump
from .states import InvalidStateError, state_file_diagnostics, state_from_json
from .thresholds import (
    ThresholdError,
    family_evaluator,
    find_threshold,
    resolve_family,
    sweep,
    sweep_csv_text,
)


class _ConfigError(Exception):
    """Flag combination the commands cannot act on."""


def _add_family_flags(p: argparse.ArgumentParser, with_file: bool) -> None:
    choices = ("isotropic", "file") if with_file else ("isotropic",)
    p.add_argument("--family", choices=choices, default="isotropic")
    p.add_argument("--d", type=int, default=None,
                   help="local dimension of the isotropic family (2 or 3)")
    p.add_argument("--criterion", choices=CRITERIA, default=CRITERION_SRUR)
    p.add_argument("--mode", choices=MODES, default=MODE_LINEAR_G)


def _add_evaluate_flags(ev: argparse.ArgumentParser) -> None:
    _add_family_flags(ev, with_file=True)
    ev.add_argument("--p", type=float, default=None)
    ev.add_argument("--pairing", choices=("transpose", "file"), default="transpose")
    ev.add_argument("--state", type=Path, default=None,
                    help="state JSON (family=file)")
    ev.add_argument("--observables", type=Path, default=None,
                    help="JSON array with Bob's two observables (family=file)")
    ev.add_argument("--pairing-file", type=Path, default=None,
                    help="JSON array with Alice's two observables (pairing=file)")
    ev.add_argument("--audit", action="store_true",
                    help="also write oracle tables and the closed-form diff")
    ev.add_argument("--out", type=Path, default=None,
                    help="audit bundle path (required with --audit)")


def _add_sweep_flags(sw: argparse.ArgumentParser) -> None:
    _add_family_flags(sw, with_file=False)
    sw.add_argument("--p-start", type=float, default=0.0)
    sw.add_argument("--p-end", type=float, default=1.0)
    sw.add_argument("--steps", type=int, default=101)
    sw.add_argument("--jobs", type=int, default=1,
                    help="accepted and validated; the sweep runs as one "
                         "vectorised single-threaded pass, so output never "
                         "depends on it")
    sw.add_argument("--out", type=Path, required=True, help="CSV output path")


def _add_threshold_flags(th: argparse.ArgumentParser) -> None:
    _add_family_flags(th, with_file=False)
    th.add_argument("--tol", type=float, default=1e-9)


def _add_validate_state_flags(va: argparse.ArgumentParser) -> None:
    va.add_argument("--state", type=Path, required=True)


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for argv: every command is listed, but only a command
    named by some token of argv gets its flags.

    argparse hands the remaining tokens only to the subparser that a token
    names, so the other subparsers are never called and need no flags.
    """
    parser = argparse.ArgumentParser(
        prog="steercrit",
        description="Inferred-variance steering criteria on bipartite states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        if name in argv:
            add_flags(command)
    return parser


def _print_json(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _load_json(path: Path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _ConfigError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, too deep
        raise _ConfigError(f"{path} is not valid JSON: {exc}") from None


def _write_file(path, write) -> None:
    """Open path for writing and pass the file to write; OSError is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise _ConfigError(f"cannot write {path}: {exc}") from None


def _check_out_dir(path: Path) -> None:
    """Fail before any work, not after it, when path cannot be written.

    A symlink is checked where it points. Any error but a missing file while
    checking, such as a symlink loop or a name too long for the filesystem,
    is a usage error on every Python.
    """
    try:
        if S_ISDIR(path.stat().st_mode):
            raise _ConfigError(f"cannot write {path}: it is a directory")
    except (FileNotFoundError, NotADirectoryError):
        parent = path.resolve().parent
        if not parent.is_dir():
            raise _ConfigError(f"cannot write {path}: no directory {parent}") from None
    except OSError as exc:
        raise _ConfigError(f"cannot write {path}: {exc}") from None


def _load_observable_pair(path: Path):
    data = _load_json(path)
    if not isinstance(data, list) or len(data) != 2:
        raise _ConfigError(f"{path} must hold a JSON array of exactly 2 observables")
    try:
        return observable_from_json(data[0]), observable_from_json(data[1])
    except LinalgError as exc:
        raise _ConfigError(f"bad observable in {path}: {exc}") from None


def _resolve(args) -> tuple:
    """The inputs that a command's flags name, checked before any work.

    Returns (family, p, rho, b1, b2, rule, descriptor). family is the
    built-in family name, or None for --family file. sweep and threshold
    get the family alone, and only a file gets a descriptor: a built-in
    family's report names its own state. A family's rho, b1 and b2 are None
    too: its audit builds them, and nothing else reads them. --audit is
    checked against --out, then every output path, then the other flags, in
    a fixed order; the first failing check is the error reported.
    """
    evaluate = args.command == "evaluate"
    out = getattr(args, "out", None)  # sweep's CSV or the audit bundle
    if evaluate and args.audit and out is None:
        raise _ConfigError("--audit requires --out for the audit bundle")
    if evaluate and not args.audit and out is not None:
        raise _ConfigError("--out on evaluate is only used with --audit")
    if out is not None:
        _check_out_dir(out)
        if evaluate and args.family == "isotropic":
            _check_out_dir(Path(f"{out}.diff.csv"))

    if args.family == "file":
        if args.mode == MODE_CLOSED_FORM:
            raise _ConfigError("mode paper-closed-form requires --family isotropic")
        if args.d is not None:
            raise _ConfigError("--d applies to --family isotropic only")
        if args.p is not None:
            raise _ConfigError("--p applies to --family isotropic only")
        if args.state is None or args.observables is None:
            raise _ConfigError("--family file requires --state and --observables")
        rho = state_from_json(_load_json(args.state))
        b1, b2 = _load_observable_pair(args.observables)
        if args.pairing == "file":
            if args.pairing_file is None:
                raise _ConfigError("--pairing file requires --pairing-file")
            # the pairing table is keyed by Bob's labels
            if b1.label == b2.label:
                raise _ConfigError(
                    "--pairing file needs distinct labels for Bob's observables, "
                    f"got {b1.label!r} twice"
                )
            a1, a2 = _load_observable_pair(args.pairing_file)
            rule = explicit_pairing({b1.label: a1, b2.label: a2})
        else:
            if args.pairing_file is not None:
                raise _ConfigError("--pairing-file requires --pairing file")
            rule = default_pairing
        descriptor = f"file:{args.state}; observables=({b1.label},{b2.label})"
        return None, None, rho, b1, b2, rule, descriptor

    if evaluate and (args.state is not None or args.observables is not None):
        raise _ConfigError("--state/--observables are for --family file")
    family = resolve_family("isotropic", args.d)
    if not evaluate:
        return family, None, None, None, None, None, None
    if args.p is None:
        raise _ConfigError("--p is required")
    if not 0.0 <= args.p <= 1.0:
        raise _ConfigError(f"--p must lie in [0, 1], got {args.p}")
    if args.pairing != "transpose" or args.pairing_file is not None:
        raise _ConfigError("the isotropic families use the transpose pairing")
    return family, args.p, None, None, None, default_pairing, None


def _cmd_evaluate(args) -> int:
    family, p, rho, b1, b2, rule, descriptor = _resolve(args)
    if family is not None:
        report = family_evaluator(family, args.criterion, args.mode)(p)
    else:
        report = evaluate_criterion(rho, b1, b2, pairing_rule=rule, mode=args.mode,
                                    criterion=args.criterion, state_descriptor=descriptor)
    _print_json(report.to_json_dict())

    if args.audit:
        engine, closed_diff = report.moments, None
        if family is not None:  # only the audit reads a family's state and observables
            rho, (b1, b2) = family_state(family, p), family_observables(family)
            # the compiled family's moments in every mode, so the bundle does
            # not depend on the mode
            engine = family_moments(family, p)
            closed_diff = diff_rows(family, p, engine)
        oracle = audit_dump(rho, b1, b2, rule)
        engine_moments = engine.as_dict()
        diffs = [
            abs(engine_moments[key] - val)
            for key, val in oracle["moments"].items()
        ]
        bundle = {
            "report": report.to_json_dict(),
            "engine_moments": engine_moments,
            "oracle": oracle,
            "engine_oracle_max_abs_diff": max(diffs),
            "closed_form_diff": None
            if closed_diff is None
            else [dataclasses.asdict(row) for row in closed_diff],
        }
        _write_file(args.out, lambda fh: fh.write(json.dumps(bundle, indent=2) + "\n"))
        if closed_diff is not None:
            _write_file(f"{args.out}.diff.csv", lambda fh: write_diff_csv(fh, closed_diff))
    return 0


def _cmd_sweep(args) -> int:
    family = _resolve(args)[0]
    if args.jobs < 1:
        raise _ConfigError(f"--jobs must be an integer >= 1, got {args.jobs}")
    result = sweep(
        family,
        criterion=args.criterion,
        mode=args.mode,
        p_start=args.p_start,
        p_end=args.p_end,
        steps=args.steps,
    )
    _write_file(args.out, lambda fh: fh.write(sweep_csv_text(result)))
    return 0


def _cmd_threshold(args) -> int:
    family = _resolve(args)[0]
    if not math.isfinite(args.tol) or args.tol <= 0.0:
        raise _ConfigError(f"--tol must be positive and finite, got {args.tol}")
    result = find_threshold(
        family, criterion=args.criterion, mode=args.mode, tol=args.tol
    )
    _print_json(result.to_json_dict())
    return 0


def _cmd_validate_state(args) -> int:
    try:
        info = state_file_diagnostics(_load_json(args.state))
    except InvalidStateError as exc:
        raise _ConfigError(f"{args.state}: {exc}") from None
    _print_json(info)
    return 0 if info["valid"] else 1


# command -> (help, flag adder, runner)
_COMMANDS = {
    "evaluate": ("evaluate one criterion at one p", _add_evaluate_flags, _cmd_evaluate),
    "sweep": ("criterion over a uniform p grid, as CSV", _add_sweep_flags, _cmd_sweep),
    "threshold": ("bisect the violation threshold in p", _add_threshold_flags,
                  _cmd_threshold),
    "validate-state": ("check a state JSON file", _add_validate_state_flags,
                       _cmd_validate_state),
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv).parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except (_ConfigError, FamilyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ThresholdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (LinalgError, InvalidStateError, InferenceError, OracleError,
            ClosedFormError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
