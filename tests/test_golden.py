"""Golden pins: CLI stdout, exit codes and output files for fixed commands.

Every case runs ``steercrit.cli.main`` in-process from a temporary working
directory, with relative file names, because reports embed the state path.
CSV outputs must match the expected files as exact text; JSON outputs match
structurally, with floats equal to 12 significant digits.

Regenerate the expected files (only when an output change is intended, and
say so in CHANGES.md) with

    PYTHONPATH=src python tests/test_golden.py [case ...]

which rewrites the named cases, or every case when none is named.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

MODES = ("linear-g", "conditional-mean", "paper-closed-form")
CRITERIA = ("srur", "hur")


def _pair(re_im):
    return [[[float(z.real), float(z.imag)] for z in row] for row in re_im]


def _input_files() -> dict[str, object]:
    """The JSON input files every case may read, by relative name."""
    psi = np.array([0.6, 0.3 + 0.2j, -0.1j, 0.7])
    psi = psi / np.linalg.norm(psi)
    rho = 0.7 * np.outer(psi, psi.conj()) + 0.3 * np.eye(4) / 4.0
    sx = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
    sy = np.array([[0, -0.5j], [0.5j, 0]], dtype=complex)
    sz = np.array([[0.5, 0], [0, -0.5]], dtype=complex)
    return {
        "rho.json": {"dims": [2, 2], "matrix": _pair(rho)},
        "nonpositive.json": {
            "dims": [2, 2],
            "matrix": _pair(np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)),
        },
        "baddims.json": {"dims": [2, 3], "matrix": _pair(np.eye(4) / 4.0)},
        "obs.json": [
            {"label": "Sx", "matrix": _pair(sx)},
            {"label": "Syz", "matrix": _pair((sy + sz) / math.sqrt(2.0))},
        ],
        "alice.json": [
            {"label": "A1", "matrix": _pair(sx)},
            {"label": "A2", "matrix": _pair(-sz)},
        ],
    }


def _cases() -> dict[str, tuple[list[str], list[str]]]:
    """Case name -> (argv, names of the output files the case writes)."""
    cases = {}
    for d in (2, 3):
        for mode in MODES:
            for crit in CRITERIA:
                flags = ["--d", str(d), "--mode", mode, "--criterion", crit]
                tag = f"d{d}_{mode}_{crit}"
                cases[f"evaluate_{tag}"] = (["evaluate", "--p", "0.7", *flags], [])
                cases[f"sweep_{tag}"] = (
                    ["sweep", "--steps", "101", "--out", "sweep.csv", *flags],
                    ["sweep.csv"],
                )
                cases[f"threshold_{tag}"] = (["threshold", *flags], [])
    file_flags = ["--family", "file", "--state", "rho.json", "--observables", "obs.json"]
    cases["validate_valid"] = (["validate-state", "--state", "rho.json"], [])
    cases["validate_nonpositive"] = (["validate-state", "--state", "nonpositive.json"], [])
    cases["validate_baddims"] = (["validate-state", "--state", "baddims.json"], [])
    cases["evaluate_file"] = (["evaluate", *file_flags], [])
    cases["evaluate_file_pairing"] = (
        ["evaluate", *file_flags, "--pairing", "file", "--pairing-file", "alice.json"],
        [],
    )
    cases["audit_file"] = (
        ["evaluate", *file_flags, "--mode", "conditional-mean", "--audit",
         "--out", "audit.json"],
        ["audit.json"],
    )
    cases["audit_d3"] = (
        ["evaluate", "--d", "3", "--p", "0.3", "--audit", "--out", "audit.json"],
        ["audit.json", "audit.json.diff.csv"],
    )
    cases["audit_d2_closed_form"] = (
        ["evaluate", "--d", "2", "--p", "0.9", "--mode", "paper-closed-form",
         "--audit", "--out", "audit.json"],
        ["audit.json", "audit.json.diff.csv"],
    )
    return cases


CASES = _cases()


def run_case(name: str, workdir: Path) -> dict[str, str]:
    """Run one case in workdir; returns output name -> text, with "exit"."""
    from steercrit.cli import main

    argv, outputs = CASES[name]
    for fname, obj in _input_files().items():
        (workdir / fname).write_text(json.dumps(obj), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    got = {"exit": f"{code}\n", "stdout": stdout.getvalue()}
    for fname in outputs:
        got[fname] = (workdir / fname).read_text(encoding="utf-8")
    return got


def _golden_path(name: str, output: str) -> Path:
    return GOLDEN / f"{name}.{output}"


def _same(got, want, where: str) -> None:
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and isinstance(want, (int, float)), where
        assert got == want or math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15), (
            f"{where}: {got!r} != {want!r}"
        )
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{i}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    got = run_case(name, tmp_path)
    for output, text in got.items():
        want = _golden_path(name, output).read_text(encoding="utf-8")
        if output.endswith(".csv") or output == "exit" or not want.strip():
            assert text == want, f"{name}.{output}"
        else:
            _same(json.loads(text), json.loads(want), f"{name}.{output}")


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for case in sys.argv[1:] or sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            for output, text in run_case(case, Path(tmp)).items():
                _golden_path(case, output).write_text(text, encoding="utf-8")
    sys.exit(0)
