"""End-to-end CLI behavior: JSON/CSV outputs, file inputs, exit codes."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import steercrit.cli
from steercrit import (
    DensityMatrix,
    MeasurementSettings,
    Observable,
    ThresholdError,
    evaluate_srur,
    family_observables,
    family_state,
    isotropic,
    observable_to_json,
    spin_half,
    state_to_json,
)
from steercrit.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_evaluate_json_output(capsys):
    rc, out, err = run(capsys, "evaluate", "--d", "2", "--p", "0.7")
    assert rc == 0
    blob = json.loads(out)
    assert list(blob) == [
        "criterion",
        "mode",
        "lhs",
        "rhs",
        "margin",
        "violated",
        "moments",
        "state_descriptor",
    ]
    rho = family_state("qubit-xz", 0.7)
    b1, b2 = family_observables("qubit-xz")
    want = evaluate_srur(rho, b1, b2)
    assert blob["margin"] == pytest.approx(want.margin, abs=1e-15)
    assert blob["violated"] is True


def test_evaluate_closed_form_mode(capsys):
    rc, out, _ = run(
        capsys, "evaluate", "--d", "2", "--p", "0.5", "--mode", "paper-closed-form"
    )
    assert rc == 0
    blob = json.loads(out)
    assert blob["mode"] == "paper-closed-form"
    want = ((1 - 2 * np.sqrt(2)) * 0.25 - 1) / 16
    assert blob["moments"]["product_of_means_inf"] == pytest.approx(want, abs=1e-12)


def test_evaluate_hur_criterion(capsys):
    rc, out, _ = run(
        capsys, "evaluate", "--d", "3", "--p", "0.9", "--criterion", "hur",
        "--mode", "conditional-mean",
    )
    assert rc == 0
    blob = json.loads(out)
    assert blob["criterion"] == "hur"
    assert blob["mode"] == "conditional-mean"


def test_sweep_writes_deterministic_csv(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    rc1, stdout, _ = run(
        capsys, "sweep", "--d", "2", "--steps", "40", "--out", str(out1)
    )
    rc2, _, _ = run(capsys, "sweep", "--d", "2", "--steps", "40", "--out", str(out2))
    assert rc1 == rc2 == 0
    assert stdout == ""
    text = out1.read_text()
    assert text == out2.read_text()
    assert text.splitlines()[0] == "p,lhs,rhs,margin,violated"
    assert len(text.splitlines()) == 41


def test_sweep_jobs_flag_is_output_invariant(tmp_path, capsys):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    run(capsys, "sweep", "--d", "3", "--steps", "25", "--out", str(serial))
    run(
        capsys, "sweep", "--d", "3", "--steps", "25", "--jobs", "4",
        "--out", str(parallel),
    )
    assert serial.read_text() == parallel.read_text()


def test_threshold_json(capsys):
    rc, out, _ = run(
        capsys, "threshold", "--d", "2", "--mode", "paper-closed-form",
        "--criterion", "srur",
    )
    assert rc == 0
    blob = json.loads(out)
    assert 0.555 <= blob["p_star"] <= 0.570
    assert blob["bracket"][1] - blob["bracket"][0] <= 1e-9
    assert blob["multi_crossing"] is False


def test_threshold_tol_flag(capsys):
    rc, out, _ = run(capsys, "threshold", "--d", "2", "--tol", "1e-4")
    assert rc == 0
    blob = json.loads(out)
    assert blob["bracket"][1] - blob["bracket"][0] <= 1e-4


def test_validate_state_valid(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json(isotropic(2, 0.3))))
    rc, out, _ = run(capsys, "validate-state", "--state", str(path))
    assert rc == 0
    blob = json.loads(out)
    assert blob["valid"] is True
    assert blob["dims"] == [2, 2]


def test_validate_state_invalid(tmp_path, capsys):
    path = tmp_path / "bad.json"
    matrix = [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]
    path.write_text(json.dumps({"dims": [2], "matrix": matrix}))
    rc, out, _ = run(capsys, "validate-state", "--state", str(path))
    assert rc == 1
    blob = json.loads(out)
    assert blob["valid"] is False
    assert "eigenvalue" in blob["reason"]


def test_exit_codes_of_a_real_process(tmp_path):
    # main() returns the code; python -m steercrit must hand it, and
    # argparse's usage errors, to the operating system
    src = Path(steercrit.cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        state_to_json(DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]), dims=(2, 2)))
    ))
    pair = tmp_path / "obs.json"
    pair.write_text(json.dumps([observable_to_json(spin_half(a)) for a in "xz"]))
    cases = [
        (0, ["evaluate", "--d", "2", "--p", "0.7"]),
        (1, ["validate-state", "--state", str(bad)]),
        (2, ["evaluate", "--d", "two", "--p", "0.5"]),
        (2, ["evaluate", "--d", "4", "--p", "0.5"]),
        (3, ["evaluate", "--family", "file", "--state", str(bad),
             "--observables", str(pair)]),
    ]
    for code, argv in cases:
        done = subprocess.run(
            [sys.executable, "-m", "steercrit", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == code, (argv, done.stderr)
        assert "Traceback" not in done.stderr, argv
        if code == 1:  # a verdict on the state, reported on stdout
            assert json.loads(done.stdout)["valid"] is False
        elif code:
            assert "error:" in done.stderr, argv


def test_validate_state_malformed(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    rc, _, err = run(capsys, "validate-state", "--state", str(path))
    assert rc == 2
    assert "error:" in err

    missing = tmp_path / "missing.json"
    rc, _, _ = run(capsys, "validate-state", "--state", str(missing))
    assert rc == 2

    # bytes that are not UTF-8, and nesting deeper than the parser recurses,
    # in a state file and in an observable file
    state_path, obs_path = _write_family_files(tmp_path)
    for content in (b"\xff\xfe", b"[" * 100000):
        path.write_bytes(content)
        for argv in (
            ("validate-state", "--state", str(path)),
            ("evaluate", "--family", "file",
             "--state", str(path), "--observables", str(obs_path)),
            ("evaluate", "--family", "file",
             "--state", str(state_path), "--observables", str(path)),
        ):
            rc, out, err = run(capsys, *argv)
            assert (rc, out) == (2, ""), (content[:2], argv)
            assert err.startswith(f"error: {path} is not valid JSON: "), argv

    nokey = tmp_path / "nokey.json"
    nokey.write_text(json.dumps({"dims": [2]}))
    rc, _, _ = run(capsys, "validate-state", "--state", str(nokey))
    assert rc == 2

    # observable files whose matrix is not a grid of numbers
    good = json.loads(obs_path.read_text())
    for bad_matrix in ([[["a", 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]],
                       [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0]]]):
        obs_path.write_text(json.dumps([{"label": "Sx", "matrix": bad_matrix}, good[1]]))
        rc, _, err = run(capsys, "evaluate", "--family", "file",
                         "--state", str(state_path), "--observables", str(obs_path))
        assert rc == 2
        assert "error:" in err and "Traceback" not in err

    # matrix entries that are not finite JSON numbers; 10**400 overflows a double
    for entry in (float("nan"), None, float("inf"), "1", True, 10**400):
        state = state_to_json(isotropic(2, 0.3))
        state["matrix"][0][0][0] = entry
        path.write_text(json.dumps(state))
        rc, _, err = run(capsys, "validate-state", "--state", str(path))
        assert rc == 2, entry
        assert "error:" in err and "Traceback" not in err

    # an integer too large for int64 is still a finite number: the state
    # parses and is reported as not Hermitian
    state = state_to_json(isotropic(2, 0.3))
    state["matrix"][0][1][0] = 10**20
    path.write_text(json.dumps(state))
    rc, out, _ = run(capsys, "validate-state", "--state", str(path))
    assert rc == 1
    assert json.loads(out)["valid"] is False

    # an observable file must hold exactly two observables
    obs_path.write_text(json.dumps(good + [good[0]]))
    rc, _, err = run(capsys, "evaluate", "--family", "file",
                     "--state", str(state_path), "--observables", str(obs_path))
    assert rc == 2
    assert "error:" in err and "Traceback" not in err


def _write_family_files(tmp_path, p=0.7):
    state_path = tmp_path / "state.json"
    obs_path = tmp_path / "obs.json"
    state_path.write_text(
        json.dumps(state_to_json(isotropic(2, p)))
    )
    obs_path.write_text(
        json.dumps([observable_to_json(spin_half("x")), observable_to_json(spin_half("z"))])
    )
    return state_path, obs_path


def test_family_file_matches_builtin(tmp_path, capsys):
    state_path, obs_path = _write_family_files(tmp_path)
    rc, out, _ = run(
        capsys, "evaluate", "--family", "file",
        "--state", str(state_path), "--observables", str(obs_path),
    )
    assert rc == 0
    got = json.loads(out)
    rc, out, _ = run(capsys, "evaluate", "--d", "2", "--p", "0.7")
    want = json.loads(out)
    assert got["lhs"] == pytest.approx(want["lhs"], abs=1e-14)
    assert got["rhs"] == pytest.approx(want["rhs"], abs=1e-14)
    assert got["margin"] == pytest.approx(want["margin"], abs=1e-14)


def test_explicit_pairing_file(tmp_path, capsys):
    state_path, obs_path = _write_family_files(tmp_path)
    pairing_path = tmp_path / "alice.json"
    ax = spin_half("x").transpose()
    az = spin_half("z").transpose()
    pairing_path.write_text(
        json.dumps([
            {"label": "A1", "matrix": observable_to_json(ax)["matrix"]},
            {"label": "A2", "matrix": observable_to_json(az)["matrix"]},
        ])
    )
    rc, out, _ = run(
        capsys, "evaluate", "--family", "file",
        "--state", str(state_path), "--observables", str(obs_path),
        "--pairing", "file", "--pairing-file", str(pairing_path),
    )
    assert rc == 0
    got = json.loads(out)
    rc, out, _ = run(capsys, "evaluate", "--d", "2", "--p", "0.7")
    want = json.loads(out)
    assert got["margin"] == pytest.approx(want["margin"], abs=1e-14)


def test_pairing_file_rejects_equal_bob_labels(tmp_path, capsys):
    # a pairing file is keyed by Bob's labels, so two Bob observables with one
    # label cannot both be paired
    state_path, obs_path = _write_family_files(tmp_path)
    obs_path.write_text(json.dumps([
        {"label": "B1", "matrix": observable_to_json(spin_half("x"))["matrix"]},
        {"label": "B1", "matrix": observable_to_json(spin_half("z"))["matrix"]},
    ]))
    pairing_path = tmp_path / "alice.json"
    pairing_path.write_text(json.dumps([
        observable_to_json(spin_half("x")), observable_to_json(spin_half("z")),
    ]))
    rc, out, err = run(
        capsys, "evaluate", "--family", "file",
        "--state", str(state_path), "--observables", str(obs_path),
        "--pairing", "file", "--pairing-file", str(pairing_path),
    )
    assert rc == 2
    assert out == ""
    assert "error:" in err


def test_audit_bundle(tmp_path, capsys):
    out_path = tmp_path / "audit.json"
    rc, out, _ = run(
        capsys, "evaluate", "--d", "2", "--p", "0", "--audit", "--out", str(out_path)
    )
    assert rc == 0
    json.loads(out)  # report still on stdout
    bundle = json.loads(out_path.read_text())
    assert set(bundle) == {
        "report",
        "engine_moments",
        "oracle",
        "engine_oracle_max_abs_diff",
        "closed_form_diff",
    }
    assert bundle["engine_oracle_max_abs_diff"] < 1e-10
    rows = {row["slot"]: row for row in bundle["closed_form_diff"]}
    assert rows["product_of_means_inf"]["abs_diff"] == 0.0625
    diff_csv = tmp_path / "audit.json.diff.csv"
    assert diff_csv.exists()
    assert diff_csv.read_text().splitlines()[0] == (
        "p,slot,engine_value,paper_value,abs_diff"
    )


@pytest.mark.parametrize("mode", ("linear-g", "conditional-mean", "paper-closed-form"))
def test_warm_family_evaluate_builds_no_state_or_observable(capsys, monkeypatch, mode):
    # without --audit nothing reads a family's state or observables
    argv = ["evaluate", "--d", "2", "--p", "0.5", "--mode", mode]
    assert main(argv) == 0
    built = []
    for cls in (DensityMatrix, Observable):
        real = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__", lambda self, real=real: built.append(self) or real(self)
        )
    assert main(argv) == 0
    assert built == []
    capsys.readouterr()


def test_audit_on_file_family_has_no_closed_form_diff(tmp_path, capsys):
    state_path, obs_path = _write_family_files(tmp_path)
    out_path = tmp_path / "audit.json"
    rc, _, _ = run(
        capsys, "evaluate", "--family", "file",
        "--state", str(state_path), "--observables", str(obs_path),
        "--audit", "--out", str(out_path),
    )
    assert rc == 0
    bundle = json.loads(out_path.read_text())
    assert bundle["closed_form_diff"] is None
    assert not (tmp_path / "audit.json.diff.csv").exists()


def test_config_errors_exit_2(tmp_path, capsys):
    csv = str(tmp_path / "s.csv")
    steps = "steps must be an integer in [2, 1000000], got"
    cases = [
        (("evaluate", "--p", "0.5"),  # missing --d
         "family 'isotropic' needs a local dimension d"),
        (("evaluate", "--d", "2"), "--p is required"),
        (("evaluate", "--d", "4", "--p", "0.5"),
         "no built-in family for local dimension 4"),
        (("evaluate", "--d", "2", "--p", "1.5"), "--p must lie in [0, 1], got 1.5"),
        (("evaluate", "--d", "2", "--p", "0.5", "--audit"),
         "--audit requires --out for the audit bundle"),
        (("evaluate", "--d", "2", "--p", "0.5", "--out", "x.json"),
         "--out on evaluate is only used with --audit"),
        (("evaluate", "--family", "file"),
         "--family file requires --state and --observables"),
        (("evaluate", "--family", "file", "--state", "nope.json",
          "--observables", "nope.json", "--p", "0.5"),
         "--p applies to --family isotropic only"),
        (("evaluate", "--d", "2", "--p", "0.5", "--mode", "paper-closed-form",
          "--pairing", "file"),  # closed form fixes pairing
         "the isotropic families use the transpose pairing"),
        (("evaluate", "--d", "2", "--p", "0.5", "--pairing-file", "alice.json"),
         "the isotropic families use the transpose pairing"),
        (("sweep", "--d", "2", "--p-start", "0.8", "--p-end", "0.2", "--out", csv),
         "need 0 <= p_start < p_end <= 1, got [0.8, 0.2]"),
        (("sweep", "--d", "2", "--steps", "1", "--out", csv), f"{steps} 1"),
        (("sweep", "--d", "2", "--jobs", "0", "--out", csv),
         "--jobs must be an integer >= 1, got 0"),
        (("sweep", "--d", "2", "--steps", "1000001", "--out", csv), f"{steps} 1000001"),
        (("threshold", "--d", "2", "--tol", "0"),
         "--tol must be positive and finite, got 0.0"),
        (("threshold", "--d", "2", "--tol", "nan"),
         "--tol must be positive and finite, got nan"),
        (("threshold", "--d", "2", "--tol", "inf"),
         "--tol must be positive and finite, got inf"),
        (("threshold",), "family 'isotropic' needs a local dimension d"),
        # two faults in one argv: the first check in the fixed order wins
        (("evaluate", "--d", "4", "--p", "0.5", "--audit"),
         "--audit requires --out for the audit bundle"),
        (("evaluate", "--family", "file", "--mode", "paper-closed-form", "--d", "2"),
         "mode paper-closed-form requires --family isotropic"),
        (("sweep", "--d", "4", "--out", str(tmp_path / "missing" / "s.csv")),
         f"cannot write {tmp_path / 'missing' / 's.csv'}: "
         f"no directory {(tmp_path / 'missing').resolve()}"),
    ]
    for argv, message in cases:
        rc, out, err = run(capsys, *argv)
        assert (rc, out, err) == (2, "", f"error: {message}\n"), argv

    # the state file is read before the observable file: an invalid state
    # (exit 3) wins over a malformed observable file (exit 2)
    state_path = tmp_path / "trace2.json"
    matrix = [[[float(i == j < 2), 0.0] for j in range(4)] for i in range(4)]
    state_path.write_text(json.dumps({"dims": [2, 2], "matrix": matrix}))
    obs_path = tmp_path / "garbage.json"
    obs_path.write_text("{not json")
    rc, out, err = run(capsys, "evaluate", "--family", "file",
                       "--state", str(state_path), "--observables", str(obs_path))
    assert (rc, out, err) == (3, "", "error: trace 2 is not 1\n")


def test_unwritable_out_fails_before_any_work(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran before --out was checked")

    monkeypatch.setattr(steercrit.cli, "sweep", no_sweep)
    missing = tmp_path / "missing_dir"
    # a built-in family's audit also writes <out>.diff.csv
    (tmp_path / "a.json.diff.csv").mkdir()
    # symlinks are checked where they point: a dangling link into a missing
    # directory, and a link to itself
    dangling, loop = tmp_path / "dangling", tmp_path / "loop"
    dangling.symlink_to(missing / "x")
    loop.symlink_to(loop)
    (tmp_path / "b.json.diff.csv").symlink_to(missing / "x")
    (tmp_path / "c.json.diff.csv").symlink_to(tmp_path / "c.json.diff.csv")
    audit = ("evaluate", "--d", "2", "--p", "0.7", "--audit", "--out")
    long_json = "a" * 245 + ".json"
    for argv in (
        ("sweep", "--d", "3", "--out", str(missing / "x.csv")),
        (*audit, str(missing / "a.json")),
        ("sweep", "--d", "3", "--out", str(tmp_path)),
        (*audit, str(tmp_path)),
        (*audit, str(tmp_path / "a.json")),
        ("sweep", "--d", "3", "--out", str(dangling)),
        ("sweep", "--d", "3", "--out", str(loop)),
        (*audit, str(dangling)),
        (*audit, str(loop)),
        (*audit, str(tmp_path / "b.json")),
        (*audit, str(tmp_path / "c.json")),
        # names too long for the filesystem; only the companion
        # <out>.diff.csv of the second one is
        ("sweep", "--d", "3", "--out", str(tmp_path / ("s" * 300 + ".csv"))),
        (*audit, str(tmp_path / long_json)),
    ):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, ""), argv
        assert "error: cannot write" in err, argv
    for name in ("a.json", "b.json", "c.json", long_json):
        assert not (tmp_path / name).exists()


def _observable_json(label, matrix):
    return observable_to_json(Observable(label, np.asarray(matrix, dtype=complex)))


def _edge_state_files(tmp_path, d):
    """A diagonal state at the PSD tolerance edge, with two observables.

    d = 2: diag(0.5, 0.25, 0.25 + 5e-11, -5e-11) measured with (Sz, Sx).
    d = 4: -5e-11 on the four basis states |ij>, i, j in {2, 3}, measured
    with a doubly degenerate B1, so one table cell sums all four: -2e-10,
    below -PSD_TOL but above -PSD_TOL * D.
    """
    if d == 2:
        diag = [0.5, 0.25, 0.25 + 5e-11, -5e-11]
        obs = [observable_to_json(spin_half("z")), observable_to_json(spin_half("x"))]
    else:
        negative = {10, 11, 14, 15}
        diag = [-5e-11 if k in negative else (1.0 + 2e-10) / 12 for k in range(16)]
        shift = np.diag(np.ones(3), 1)
        obs = [
            _observable_json("P", np.diag([1.0, 1.0, -1.0, -1.0]) / 2),
            _observable_json("X", shift + shift.T),
        ]
    state_path = tmp_path / "edge.json"
    obs_path = tmp_path / "edge_obs.json"
    state_path.write_text(json.dumps(
        state_to_json(DensityMatrix(np.diag(diag).astype(complex), dims=(d, d)))
    ))
    obs_path.write_text(json.dumps(obs))
    return state_path, obs_path


@pytest.mark.parametrize("d", [2, 4])
def test_state_at_psd_tolerance_edge_evaluates(tmp_path, capsys, d):
    state_path, obs_path = _edge_state_files(tmp_path, d)
    rc, out, _ = run(capsys, "validate-state", "--state", str(state_path))
    assert rc == 0
    assert json.loads(out)["min_eigenvalue"] == -5e-11
    evaluate = ("evaluate", "--family", "file",
                "--state", str(state_path), "--observables", str(obs_path))
    rc, out, err = run(capsys, *evaluate)
    assert rc == 0, err
    report = json.loads(out)
    out_path = tmp_path / "audit.json"
    rc, _, err = run(capsys, *evaluate, "--audit", "--out", str(out_path))
    assert rc == 0, err
    bundle = json.loads(out_path.read_text())
    assert bundle["report"] == report
    assert bundle["engine_oracle_max_abs_diff"] < 1e-10


def test_audit_uses_the_pairing_file(tmp_path, capsys):
    state_path, obs_path = _write_family_files(tmp_path)
    pairing_path = tmp_path / "alice.json"
    # Bob's (Sx, Sz) inferred from Alice's (Sz, Sx): uncorrelated on the
    # isotropic state, so every inferred variance keeps its p = 0 value
    pairing_path.write_text(json.dumps([
        {"label": "A1", "matrix": observable_to_json(spin_half("z"))["matrix"]},
        {"label": "A2", "matrix": observable_to_json(spin_half("x"))["matrix"]},
    ]))
    out_path = tmp_path / "audit.json"
    rc, out, _ = run(
        capsys, "evaluate", "--family", "file",
        "--state", str(state_path), "--observables", str(obs_path),
        "--pairing", "file", "--pairing-file", str(pairing_path),
        "--audit", "--out", str(out_path),
    )
    assert rc == 0
    report = json.loads(out)
    bundle = json.loads(out_path.read_text())
    assert bundle["engine_moments"] == report["moments"]
    assert bundle["engine_oracle_max_abs_diff"] < 1e-10
    assert bundle["oracle"]["moments"]["var_inf_b1"] == pytest.approx(0.25, abs=1e-12)
    assert report["moments"]["var_inf_b1"] == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("mode", ["linear-g", "conditional-mean", "paper-closed-form"])
def test_audit_diff_rows_use_the_bundle_engine_moments(tmp_path, capsys, d, mode):
    out_path = tmp_path / "audit.json"
    rc, _, err = run(capsys, "evaluate", "--d", str(d), "--p", "0.3", "--mode", mode,
                     "--audit", "--out", str(out_path))
    assert rc == 0, err
    bundle = json.loads(out_path.read_text())
    rows = bundle["closed_form_diff"]
    assert len(rows) == 7
    for row in rows:
        assert row["engine_value"] == bundle["engine_moments"][row["slot"]], row["slot"]


@pytest.mark.parametrize("p", ["0.3", "0.9"])
@pytest.mark.parametrize("d", ["2", "3"])
def test_family_audit_does_not_depend_on_mode(tmp_path, capsys, d, p):
    # every mode takes a family's engine moments from its compiled tables;
    # only the report names the mode
    seen = set()
    for mode in ("linear-g", "conditional-mean", "paper-closed-form"):
        out_path = tmp_path / f"{mode}.json"
        rc, _, err = run(capsys, "evaluate", "--d", d, "--p", p, "--mode", mode,
                         "--audit", "--out", str(out_path))
        assert rc == 0, err
        bundle = json.loads(out_path.read_text())
        del bundle["report"]
        csv_text = Path(f"{out_path}.diff.csv").read_text()
        seen.add((json.dumps(bundle), csv_text))
    assert len(seen) == 1


def test_warm_closed_form_audit_builds_no_settings(tmp_path, capsys, monkeypatch):
    argv = ["evaluate", "--d", "3", "--p", "0.5", "--mode", "paper-closed-form",
            "--audit", "--out", str(tmp_path / "audit.json")]
    assert main(argv) == 0
    builds = []
    build = MeasurementSettings.build
    monkeypatch.setattr(
        MeasurementSettings, "build",
        classmethod(lambda cls, *a, **k: builds.append(a) or build(*a, **k)),
    )
    assert main(argv) == 0
    assert builds == []
    capsys.readouterr()


@pytest.mark.parametrize(
    "dims", [[2, 2], [2, 3], [2, 2, 1], [0, 4], ["a", 2], [2.5, 2], [4]], ids=str
)
def test_validate_state_agrees_with_evaluate_on_dims(tmp_path, capsys, dims):
    state_path, obs_path = _write_family_files(tmp_path)
    state = json.loads(state_path.read_text())
    state["dims"] = dims
    state_path.write_text(json.dumps(state))
    rc_valid, out, err = run(capsys, "validate-state", "--state", str(state_path))
    rc_eval, _, err_eval = run(capsys, "evaluate", "--family", "file",
                               "--state", str(state_path), "--observables", str(obs_path))
    assert (rc_valid == 0) == (rc_eval == 0)
    integer_dims = all(isinstance(d, int) for d in dims)
    if integer_dims:
        assert rc_valid in (0, 1)
        assert json.loads(out)["valid"] is (rc_valid == 0)
    else:
        assert rc_valid == 2 and "error:" in err
    if rc_eval != 0:
        assert rc_eval == 3 and "error:" in err_eval
    assert "Traceback" not in err + err_eval


def test_invalid_state_file_exits_3(tmp_path, capsys):
    path = tmp_path / "trace2.json"
    matrix = [
        [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    ]
    path.write_text(json.dumps({"dims": [2, 2], "matrix": matrix}))
    _, obs_path = _write_family_files(tmp_path)
    rc, _, err = run(
        capsys, "evaluate", "--family", "file",
        "--state", str(path), "--observables", str(obs_path),
    )
    assert rc == 3
    assert "error:" in err


def test_threshold_without_crossing_exits_4(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise ThresholdError("margin has no sign change on [0, 1]")

    monkeypatch.setattr(steercrit.cli, "find_threshold", boom)
    rc, _, err = run(capsys, "threshold", "--d", "2")
    assert rc == 4
    assert "sign change" in err


def _exit(capsys, *argv):
    """(exit code, stdout, stderr) of an argv that argparse itself ends."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


FAMILY_FLAGS = {"--family", "--d", "--criterion", "--mode"}


@pytest.mark.parametrize("command, flags", (
    ("evaluate", FAMILY_FLAGS | {"--p", "--pairing", "--state", "--observables",
                                 "--pairing-file", "--audit", "--out"}),
    ("sweep", FAMILY_FLAGS | {"--p-start", "--p-end", "--steps", "--jobs", "--out"}),
    ("threshold", FAMILY_FLAGS | {"--tol"}),
    ("validate-state", {"--state"}),
))
def test_command_help_lists_its_readme_flags(capsys, monkeypatch, command, flags):
    monkeypatch.setenv("COLUMNS", "80")
    rc, out, err = _exit(capsys, command, "-h")
    assert (rc, err) == (0, "")
    assert out.startswith(f"usage: steercrit {command} [-h]")
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out)) == flags | {"--help"}


@pytest.mark.parametrize("argv, code", (
    (("-h",), 0),
    ((), 2),
    (("frobnicate",), 2),
    (("threshold", "--d", "2", "extra"), 2),
))
def test_usage_line_lists_every_command(capsys, monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")
    rc, out, err = _exit(capsys, *argv)
    text = out if code == 0 else err
    assert rc == code
    assert text.startswith(
        "usage: steercrit [-h] {evaluate,sweep,threshold,validate-state} ...\n"
    )


def test_unrecognized_arguments_before_the_command(capsys, monkeypatch):
    # flags given after the command name belong to that command's parser
    monkeypatch.setenv("COLUMNS", "80")
    rc, out, err = _exit(capsys, "--foo", "sweep", "--d", "2", "--out", "x")
    assert (rc, out) == (2, "")
    assert err.endswith("steercrit: error: unrecognized arguments: --foo\n")


def test_unknown_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--d", "2", "--p-start", "0.1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
