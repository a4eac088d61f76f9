"""Count the Python calls and the peak traced memory of each workload's items.

Each workload of bench/workloads.py builds its seed-1 item pool in a
scratch directory, and every item's commands run through in-process
``steercrit.cli.main`` three times: once to fill caches, once under cProfile
(the number of calls, Python and built-in, made inside ``main``) and once
under tracemalloc (the peak of traced memory). Unlike wall times, the call
counts repeat exactly across processes, so two revisions can be compared on
a host whose timings spread; the peak varies by a few KB. Warm-up outcomes are checked against the workload's references; a
failed item makes the exit code 1.

Usage, from the root of a checkout:

    python3 tools/count_cli_calls.py --label NAME [--src DIR] [--items N] [--out FILE]

--src measures the steercrit package under DIR (default: this checkout's
src/), such as a checkout of another revision; --items N runs only the
first N items of each pool. The counts print as JSON and are stored under
NAME in FILE (default: BENCH_cli_calls.json at the root of this checkout),
next to the other labels already there.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import functools
import io
import json
import os
import platform
import pstats
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def run_item(main, item) -> list:
    """Run each command of item through main and return its outcomes."""
    from workloads import Outcome

    outcomes = []
    for command in item.commands:
        for name in command.outputs:
            Path(name).unlink(missing_ok=True)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(list(command.argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
        outcomes.append(Outcome(code, out.getvalue(), {
            name: Path(name).read_bytes() for name in command.outputs if Path(name).exists()
        }))
    return outcomes


def count_workload(cli, workload_class, items: int | None) -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        start_dir = os.getcwd()
        os.chdir(workdir)  # item argv names its files relative to workdir
        try:
            workload = workload_class(SEED, Path(workdir))
            pool = [workload.item(i) for i in range(items or len(workload))]
            failed = sum(bool(item.check(run_item(cli.main, item), {})) for item in pool)
            profile = cProfile.Profile()
            for item in pool:
                run_item(functools.partial(profile.runcall, cli.main), item)
            tracemalloc.start()
            for item in pool:
                run_item(cli.main, item)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        finally:
            os.chdir(start_dir)
    return {"items": len(pool), "failed": failed,
            "calls": pstats.Stats(profile).total_calls, "tracemalloc_peak_bytes": peak}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--items", type=int, default=None)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_cli_calls.json")
    args = parser.parse_args(argv)
    if args.items is not None and args.items < 1:
        parser.error("--items must be at least 1")

    sys.dont_write_bytecode = True  # bench/ is read, never written
    sys.path[:0] = [str(args.src), str(ROOT / "bench")]
    import numpy as np
    import steercrit.cli as cli
    from workloads import WORKLOADS

    if Path(cli.__file__).resolve().parent != (args.src / "steercrit").resolve():
        parser.error(f"imported steercrit from {cli.__file__}, not {args.src}")
    entry = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": SEED,
        "workloads": {name: count_workload(cli, cls, args.items)
                      for name, cls in WORKLOADS.items()},
    }
    print(json.dumps(entry, indent=2))
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record[args.label] = entry
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 1 if any(w["failed"] for w in entry["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
