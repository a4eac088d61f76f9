"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import Tracer
from workloads import WORKLOADS, FileStates

CLI = run.load_program()


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture(scope="module")
def file_states(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("file-states")
    return FileStates(3, workdir), workdir


@pytest.mark.parametrize("name", ["file-states", "audit"])
def test_generator_is_deterministic_for_a_seed(tmp_path, name):
    made = []
    for sub, seed in (("a", 5), ("b", 5), ("c", 6)):
        workdir = tmp_path / sub
        workdir.mkdir()
        workload = WORKLOADS[name](seed, workdir)
        items = [workload.item(i) for i in range(len(workload))]
        made.append((_files(workdir), [(it.key, [c.argv for c in it.commands]) for it in items]))
    assert made[0] == made[1]
    assert made[0][0] != made[2][0]


def test_family_sweep_order_and_rows_follow_the_seed(tmp_path):
    a, b, c = (WORKLOADS["family-sweep"](seed, tmp_path) for seed in (5, 5, 6))
    assert (a.order, a.refs) == (b.order, b.refs)
    assert (a.order, a.refs) != (c.order, c.refs)


def test_wrong_reference_is_counted_as_a_failure(file_states, monkeypatch):
    workload, workdir = file_states
    monkeypatch.chdir(workdir)
    valid = next(k for k, e in enumerate(workload.order) if e.valid)
    good = run.run_phase(CLI, workload, min_items=valid + 1, seconds=0.0, digest_items=0)
    assert (good.attempted, good.failed) == (valid + 1, 0)

    entry = workload.order[valid]
    saved = dict(entry.margins)
    monkeypatch.setattr(entry, "margins", {k: v + 1e-6 for k, v in saved.items()})
    bad = run.run_phase(CLI, workload, min_items=valid + 1, seconds=0.0, digest_items=0)
    assert (bad.attempted, bad.failed) == (valid + 1, 1)
    assert "oracle" in bad.failures[0]


def test_wrong_expected_exit_code_is_counted_as_a_failure(file_states, monkeypatch):
    workload, workdir = file_states
    monkeypatch.chdir(workdir)
    invalid = next(k for k, e in enumerate(workload.order) if not e.valid)
    monkeypatch.setattr(workload.order[invalid], "kind", "mixed")
    phase = run.run_phase(CLI, workload, min_items=invalid + 1, seconds=0.0, digest_items=0)
    assert phase.failed == 1
    assert "exit codes (1, 3)" in phase.failures[0]


def test_timed_phase_ends_on_a_whole_pass(file_states, monkeypatch):
    workload, workdir = file_states
    monkeypatch.chdir(workdir)
    phase = run.run_phase(CLI, workload, min_items=5, seconds=0.0, digest_items=0,
                          whole_passes=True)
    assert phase.attempted == len(workload)
    assert phase.failed == 0


def _traced_and_untraced(workload, n):
    untraced = run.run_phase(CLI, workload, min_items=n, seconds=0.0, digest_items=n)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_phase(CLI, workload, min_items=n, seconds=0.0, digest_items=n,
                               tracer=tracer)
    finally:
        tracer.uninstall()
    return untraced, traced, tracer


def test_traced_and_untraced_digests_match(file_states, monkeypatch):
    workload, workdir = file_states
    monkeypatch.chdir(workdir)
    untraced, traced, tracer = _traced_and_untraced(workload, 12)
    assert untraced.failed == traced.failed == 0
    assert untraced.digest == traced.digest
    assert tracer.calls("cli.main") == 24
    assert tracer.calls("states.state_diagnostics") == 24
    assert tracer.calls("linalg.eig_hermitian") > 0


def test_trace_covers_every_layer_and_uninstalls(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    import steercrit.inference as inference
    import steercrit.observables as observables

    original = inference.joint_distribution, observables.Observable.__init__
    untraced, traced, tracer = _traced_and_untraced(WORKLOADS["audit"](2, tmp_path), 8)
    assert (inference.joint_distribution, observables.Observable.__init__) == original
    assert untraced.digest == traced.digest
    assert traced.failed == 0
    spans = tmp_path / "spans.tsv"
    tracer.write_spans(spans, 0.0)
    rows = spans.read_text().splitlines()[1:]
    assert len(rows) == tracer.spans_total
    names = {row.split("\t")[3] for row in rows}
    assert {"cli.main", "inference.full_moments", "oracle.enumerate_table",
            "observables.projector_products", "states.state_from_json"} <= names
    values = run.layer_metrics(tracer, traced, untraced, 0.2)
    assert set(values) == set(run.LAYER_UNITS)
    assert values["observables.projector_products.builds_per_eval"] == 5.0
    assert values["oracle.engine_max_abs_diff"] < 1e-10


def test_self_time_excludes_wrapped_children():
    tracer = Tracer()

    def child():
        return sum(range(20000))

    wrapped_child = tracer.wrap(child, "child")

    def parent():
        return wrapped_child() + wrapped_child()

    tracer.wrap(parent, "parent")()
    inclusive, own = tracer.stats["parent"][1], tracer.self_s("parent")
    assert tracer.calls("child") == 2
    assert own == pytest.approx(inclusive - tracer.stats["child"][1], abs=1e-12)


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
