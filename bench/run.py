"""steercrit benchmark: seeded closed-loop CLI workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload family-sweep --seed 1 --seconds 15 --trace 0

One client in one process drives ``steercrit.cli.main`` in-process and sends
the next item when the previous one returns (a closed loop; ``--jobs`` stays
1). The program only sees the generated files and argv. Workloads, their mix
and the layer map are described in ``bench/record.json``.

Phases of a run:

1. set-up: ``SETUP_SAMPLES`` fresh interpreters each import ``steercrit.cli``
   and make one first call; ``setup_s`` is the median of those wall times;
2. inputs and references: the workload writes its files into a scratch
   directory and computes every reference outside any timed phase;
3. warm-up: the workload's first ``warmup_items`` items, checked but not
   timed, so caches fill and lazy set-up finishes;
4. with ``--trace 0``: items for ``--seconds`` seconds and at least
   ``MIN_TIMED_ITEMS`` items, ending on a whole pass over the workload's
   pool so every run holds the same mix, reporting the end-to-end metrics;
   with ``--trace 1``: the first ``trace_items`` items untraced, then the
   same items traced, reporting the per-layer metrics; the two output
   digests must match.

Every item is checked against its reference; a miss counts in ``failed``.
Human-readable lines go first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from tracing import Tracer
from workloads import WORKLOADS, Outcome

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 11
# p90 then has at least ten samples beyond it
MIN_TIMED_ITEMS = 100
SETUP_ARGV = ["evaluate", "--d", "2", "--p", "0.5"]

# metric names and units come from the benchmark definition
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# the child measures import plus one first call, from inside the interpreter
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import steercrit.cli as cli
t1 = time.perf_counter()
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main({argv!r})
t2 = time.perf_counter()
print(rc, t1 - t0, t2 - t0)
"""


def measure_setup(samples: int) -> tuple[float, float]:
    """Median (import, import plus first call) wall times over fresh
    interpreters; one more is run first and discarded."""
    code = _SETUP_CHILD.format(src=str(SRC), argv=SETUP_ARGV)
    imports, totals = [], []
    for k in range(samples + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=False)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 3 or fields[0] != "0":
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        if k:  # the first one also writes bytecode caches
            imports.append(float(fields[1]))
            totals.append(float(fields[2]))
    return statistics.median(imports), statistics.median(totals)


def load_program():
    """Import steercrit from this checkout's src/, or exit 2."""
    if not (SRC / "steercrit" / "cli.py").is_file():
        print(f"error: no steercrit sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import steercrit.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "steercrit").resolve():
        print(f"error: imported steercrit from {cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return cli


def run_commands(cli, commands) -> list:
    """Run each command in-process; stdout captured, stderr discarded."""
    outcomes = []
    for command in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(command.argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
        outcomes.append(Outcome(code, out.getvalue()))
    return outcomes


@dataclass
class Phase:
    """Per-item measurements and checks of one pass over the item sequence."""

    latencies: list = field(default_factory=list)
    cpu: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    observations: dict = field(default_factory=dict)
    output_bytes: int = 0
    digest_items: int = 0
    hasher: object = field(default_factory=hashlib.sha256)

    @property
    def digest(self) -> str:
        return self.hasher.hexdigest()

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def run_phase(cli, workload, *, min_items: int, seconds: float, digest_items: int,
              tracer=None, whole_passes: bool = False) -> Phase:
    """Items 0, 1, ... until min_items are done and seconds have passed; with
    whole_passes, then on to the end of the current pass over the pool."""
    phase = Phase()
    deadline = perf_counter() + seconds
    i = 0
    while (i < min_items or perf_counter() < deadline
           or (whole_passes and i % len(workload))):
        item = workload.item(i)
        for command in item.commands:
            for name in command.outputs:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(name)
        if tracer is not None:
            tracer.item = i
        c0, t0 = process_time(), perf_counter()
        outcomes = run_commands(cli, item.commands)
        t1, c1 = perf_counter(), process_time()
        phase.latencies.append(t1 - t0)
        phase.cpu.append(c1 - c0)
        for command, outcome in zip(item.commands, outcomes):
            for name in command.outputs:
                with contextlib.suppress(FileNotFoundError):
                    outcome.files[name] = Path(name).read_bytes()
            phase.output_bytes += len(outcome.stdout.encode()) + sum(
                len(b) for b in outcome.files.values())
        if i < digest_items:
            h = phase.hasher
            for outcome in outcomes:
                h.update(f"{outcome.code}\n{len(outcome.stdout)}\n".encode())
                h.update(outcome.stdout.encode())
                for name in sorted(outcome.files):
                    h.update(f"{name}\n{len(outcome.files[name])}\n".encode())
                    h.update(outcome.files[name])
            phase.digest_items += 1
        try:
            fails = item.check(outcomes, phase.observations)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            # malformed output the checks did not anticipate is a miss, not a crash
            fails = [f"check raised {exc!r}"]
        phase.attempted += 1
        if fails:
            phase.failed += 1
            if len(phase.failures) < 20:
                phase.failures.append(f"item {i} ({item.key}): " + "; ".join(fails))
        i += 1
    return phase


def percentile(values: list, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def metadata() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when not found."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def e2e_metrics(phase: Phase, first_call_s: float) -> dict:
    n = len(phase.latencies)
    return {
        "setup_s": first_call_s,
        "items_per_s": n / phase.busy_s,
        "item_p50_ms": 1e3 * percentile(phase.latencies, 50.0),
        "item_p90_ms": 1e3 * percentile(phase.latencies, 90.0),
        "cpu_ms_per_item": 1e3 * sum(phase.cpu) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(tracer, traced: Phase, untraced: Phase, import_s: float) -> dict:
    evals = tracer.calls("inference.full_moments")
    sweeps = tracer.sweep_durations
    searches = traced.observations.get("evaluations", [])
    values = {
        "inference.joint_distribution.computed_mb": tracer.counters["computed_bytes"] / 1e6,
        "observables.projector_products.builds":
            tracer.calls("observables.projector_products"),
        "observables.projector_products.builds_per_eval":
            tracer.calls("observables.projector_products") / evals if evals else 0.0,
        "thresholds.sweep.call_ms_p50": 1e3 * percentile(sweeps, 50.0) if sweeps else 0.0,
        "thresholds.evaluations_per_search":
            sum(searches) / len(searches) if searches else 0.0,
        "states.rejected": tracer.counters["states.rejected"],
        "oracle.engine_max_abs_diff": traced.observations.get("engine_max_abs_diff", 0.0),
        "cli.output_bytes": traced.output_bytes,
        "setup.import_s": import_s,
        "trace.overhead_ratio":
            (len(traced.latencies) / traced.busy_s) / (len(untraced.latencies) / untraced.busy_s),
    }
    # the rest are "<span>.calls" or "<span>.self_s" of a traced entry point
    for name in LAYER_UNITS.keys() - values.keys():
        span, _, quantity = name.rpartition(".")
        calls, _, self_s = tracer.stats[span]
        values[name] = {"calls": calls, "self_s": self_s}[quantity]
    return values


def emit(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> None:
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cli = load_program()
    import_s, first_call_s = measure_setup(SETUP_SAMPLES)

    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    start_dir = os.getcwd()
    try:
        # item argv names files relative to the scratch directory, so outputs
        # (and their digest) do not depend on where the checkout lives
        os.chdir(workdir)
        workload = WORKLOADS[args.workload](args.seed, workdir)
        warm = run_phase(cli, workload, min_items=workload.warmup_items, seconds=0.0,
                         digest_items=0)
        if args.trace:
            result = traced_run(cli, workload, warm, import_s, args)
        else:
            result = untraced_run(cli, workload, warm, first_call_s, args)
    finally:
        os.chdir(start_dir)
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def report_phase(label: str, phase: Phase) -> None:
    line = (f"{label}: {phase.attempted} items, {phase.failed} failed, "
            f"fail_ratio {phase.failed / max(phase.attempted, 1):.6g}")
    if phase.digest_items:
        line += f", digest {phase.digest} over the first {phase.digest_items} items"
    print(line)
    for line in phase.failures:
        print(f"  FAIL {line}")


def print_header(args, workload) -> None:
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} pool {len(workload)} items")
    print("metadata " + json.dumps(metadata(), sort_keys=True))


def untraced_run(cli, workload, warm: Phase, first_call_s: float, args) -> int:
    phase = run_phase(cli, workload, min_items=max(MIN_TIMED_ITEMS, workload.trace_items),
                      seconds=args.seconds, digest_items=workload.trace_items,
                      whole_passes=True)
    values = e2e_metrics(phase, first_call_s)
    attempted = warm.attempted + phase.attempted
    failed = warm.failed + phase.failed
    print_header(args, workload)
    report_phase("warm-up", warm)
    report_phase("timed", phase)
    print(f"samples {len(phase.latencies)} item latencies over {phase.busy_s:.3f} s busy")
    for name, unit in E2E_UNITS.items():
        print(f"{name:<16} {values[name]:12.6g} {unit}")
    print(f"{'fail_ratio':<16} {failed / attempted:12.6g} failed/attempted "
          f"({failed}/{attempted})")
    emit(failed == 0, attempted, failed, values, E2E_UNITS)
    return 0


def traced_run(cli, workload, warm: Phase, import_s: float, args) -> int:
    n = workload.trace_items
    untraced = run_phase(cli, workload, min_items=n, seconds=0.0, digest_items=n)
    tracer = Tracer()
    origin = perf_counter()
    tracer.install()
    try:
        traced = run_phase(cli, workload, min_items=n, seconds=0.0, digest_items=n,
                           tracer=tracer)
    finally:
        tracer.uninstall()
    spans_path = WORK / f"trace-{args.workload}-seed{args.seed}.tsv"
    tracer.write_spans(spans_path, origin)
    values = layer_metrics(tracer, traced, untraced, import_s)
    same = untraced.digest == traced.digest
    attempted = warm.attempted + untraced.attempted + traced.attempted
    failed = warm.failed + untraced.failed + traced.failed
    print_header(args, workload)
    report_phase("warm-up", warm)
    report_phase("untraced", untraced)
    report_phase("traced", traced)
    print(f"digests {'match' if same else 'DIFFER'}; {tracer.spans_total} spans "
          f"written to {spans_path.relative_to(ROOT)}")
    for name, unit in LAYER_UNITS.items():
        print(f"{name:<48} {values[name]:14.6g} {unit}")
    emit(failed == 0 and same, attempted, failed, values, LAYER_UNITS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
