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

from .closed_forms import (
    MODE_CLOSED_FORM,
    ClosedFormError,
    diff_rows,
    write_diff_csv,
)
from .criteria import CRITERION_SRUR, evaluate_criterion
from .families import FamilyError, family_observables, family_state
from .inference import MODE_LINEAR_G, InferenceError, full_moments
from .linalg import LinalgError
from .observables import (
    default_pairing,
    explicit_pairing,
    observable_from_json,
)
from .oracle import OracleError, audit_dump
from .states import InvalidStateError, state_file_diagnostics, state_from_json
from .thresholds import (
    CRITERIA,
    MODES,
    ThresholdError,
    family_evaluator,
    find_threshold,
    resolve_family,
    sweep,
    sweep_csv_text,
)


class _ConfigError(Exception):
    """Flag combination the commands cannot act on."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steercrit",
        description="Inferred-variance steering criteria on bipartite states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_flags(p: argparse.ArgumentParser, with_file: bool) -> None:
        choices = ("isotropic", "file") if with_file else ("isotropic",)
        p.add_argument("--family", choices=choices, default="isotropic")
        p.add_argument("--d", type=int, default=None,
                       help="local dimension of the isotropic family (2 or 3)")
        p.add_argument("--criterion", choices=CRITERIA, default=CRITERION_SRUR)
        p.add_argument("--mode", choices=MODES, default=MODE_LINEAR_G)

    ev = sub.add_parser("evaluate", help="evaluate one criterion at one p")
    add_family_flags(ev, with_file=True)
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

    sw = sub.add_parser("sweep", help="criterion over a uniform p grid, as CSV")
    add_family_flags(sw, with_file=False)
    sw.add_argument("--p-start", type=float, default=0.0)
    sw.add_argument("--p-end", type=float, default=1.0)
    sw.add_argument("--steps", type=int, default=101)
    sw.add_argument("--jobs", type=int, default=1,
                    help="accepted and validated; the sweep runs as one "
                         "vectorised single-threaded pass, so output never "
                         "depends on it")
    sw.add_argument("--out", type=Path, required=True, help="CSV output path")

    th = sub.add_parser("threshold", help="bisect the violation threshold in p")
    add_family_flags(th, with_file=False)
    th.add_argument("--tol", type=float, default=1e-9)

    va = sub.add_parser("validate-state", help="check a state JSON file")
    va.add_argument("--state", type=Path, required=True)

    return parser


def _print_json(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _load_json(path: Path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _ConfigError(f"{path} is not valid JSON: {exc}") from None


def _write_file(path, write) -> None:
    """Open path for writing and pass the file to write; OSError is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise _ConfigError(f"cannot write {path}: {exc}") from None


def _check_out_dir(path: Path) -> None:
    """Fail before any work, not after it, when path cannot be written."""
    if not path.parent.is_dir():
        raise _ConfigError(f"cannot write {path}: no directory {path.parent}")
    if path.is_dir():
        raise _ConfigError(f"cannot write {path}: it is a directory")


def _check_p(p: float | None) -> float:
    if p is None:
        raise _ConfigError("--p is required")
    if not 0.0 <= p <= 1.0:
        raise _ConfigError(f"--p must lie in [0, 1], got {p}")
    return float(p)


def _load_observable_pair(path: Path):
    data = _load_json(path)
    if not isinstance(data, list) or len(data) != 2:
        raise _ConfigError(f"{path} must hold a JSON array of exactly 2 observables")
    try:
        return observable_from_json(data[0]), observable_from_json(data[1])
    except LinalgError as exc:
        raise _ConfigError(f"bad observable in {path}: {exc}") from None


def _cmd_evaluate(args) -> int:
    if args.audit and args.out is None:
        raise _ConfigError("--audit requires --out for the audit bundle")
    if not args.audit and args.out is not None:
        raise _ConfigError("--out on evaluate is only used with --audit")
    if args.audit:
        _check_out_dir(args.out)
        if args.family == "isotropic":
            _check_out_dir(Path(f"{args.out}.diff.csv"))

    if args.mode == MODE_CLOSED_FORM and args.family != "isotropic":
        raise _ConfigError("mode paper-closed-form requires --family isotropic")

    if args.family == "isotropic":
        if args.state is not None or args.observables is not None:
            raise _ConfigError("--state/--observables are for --family file")
        family = resolve_family("isotropic", args.d)
        p = _check_p(args.p)
        if args.pairing != "transpose" or args.pairing_file is not None:
            raise _ConfigError("the isotropic families use the transpose pairing")
        report = family_evaluator(family, args.criterion, args.mode)(p)
    else:
        family = None
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
        report = evaluate_criterion(
            rho, b1, b2,
            pairing_rule=rule,
            mode=args.mode,
            criterion=args.criterion,
            state_descriptor=f"file:{args.state}; observables=({b1.label},{b2.label})",
        )

    _print_json(report.to_json_dict())

    if args.audit:
        if family is not None:
            rho = family_state(family, p)
            b1, b2 = family_observables(family)
            rule = default_pairing
        # closed-form reports carry closed-form moments; the engine runs once here
        if args.mode == MODE_CLOSED_FORM:
            engine = full_moments(rho, b1, b2, rule)
        else:
            engine = report.moments
        closed_diff = diff_rows(family, p, engine) if family is not None else None
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
    _check_out_dir(args.out)
    family = resolve_family("isotropic", args.d)
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
    family = resolve_family("isotropic", args.d)
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


_COMMANDS = {
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "threshold": _cmd_threshold,
    "validate-state": _cmd_validate_state,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
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
