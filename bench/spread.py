"""Run the benchmark over several seeds and report every end-to-end metric.

    python3 bench/spread.py --workloads family-sweep file-states audit \
        --seeds 1-10 [--seconds 15] [--trace-seed 1] \
        [--write bench/baseline.json --label B]

Runs are sequential, each in its own fresh process. Per workload it prints
every end-to-end metric by name and unit, plus fail_ratio with its counts.
With two or more seeds it adds the quartiles (``statistics.quantiles(values,
n=4)``) and the spread (q3 - q1) / median next to the bound from
BENCHMARK.json, marked "ok" when the spread is under a third of the bound,
"wide" when it is under the bound and "OVER" otherwise. ``--trace-seed`` adds
one traced run per workload. ``--write`` appends the set (summary, every
run's values and output digest, the traced per-layer values) under
``--label`` to the sets already in the file, with the machine description,
and prints how far each median moved from the set written before it, in the
direction that is worse, against the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import gmtime, perf_counter, strftime

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=False)
    wall = perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digests = {ln.split(":")[0]: ln.split(" digest ")[1].split()[0]
               for ln in lines if " digest " in ln}
    meta = next(json.loads(ln[len("metadata "):]) for ln in lines if ln.startswith("metadata "))
    return {"seed": seed, "wall_s": round(wall, 2), "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "digests": digests, "metadata": meta,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds from BENCHMARK.json")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--write", type=Path, default=None)
    parser.add_argument("--label", default=None)
    args = parser.parse_args()
    if args.write and not args.label:
        parser.error("--write needs --label")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]
    out = {"label": args.label, "started": strftime("%Y-%m-%dT%H:%M:%SZ", gmtime()),
           "run_seconds": seconds, "workloads": {}}
    meta = None
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, seconds, 0))
            r = runs[-1]
            print(f"{workload} seed {seed}: {r['wall_s']} s, correct {r['correct']}, "
                  f"{r['failed']}/{r['attempted']} failed, digest {r['digests']['timed']}",
                  flush=True)
        for r in runs:
            meta = r.pop("metadata")
        entry = {"runs": runs}
        print(f"{'metric':<16} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in metrics:
            values = [r["metrics"][m["name"]] for r in runs]
            if len(values) < 2:
                print(f"{m['name']:<16} {m['unit']:<6} {values[0]:12.6g}")
                continue
            s = entry.setdefault("summary", {})[m["name"]] = summarize(values)
            ok = ("ok" if s["spread"] < m["bound"] / 3
                  else "wide" if s["spread"] <= m["bound"] else "OVER")
            print(f"{m['name']:<16} {m['unit']:<6} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:8.4f} {m['bound']:6.2f} {ok}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{'fail_ratio':<16} {'1':<6} {failed / attempted:12.6g} "
              f"({failed} failed of {attempted} attempted)")
        if args.trace_seed is not None:
            t = entry["trace"] = run_once(workload, args.trace_seed, seconds, 1)
            t.pop("metadata")
            print(f"{workload} traced seed {args.trace_seed}: {t['wall_s']} s, "
                  f"correct {t['correct']}, digests {t['digests']}")
        out["workloads"][workload] = entry
    if args.write:
        record = json.loads(args.write.read_text()) if args.write.exists() else {"sets": []}
        record["metadata"] = meta
        record["sets"].append(out)
        args.write.write_text(json.dumps(record, indent=1) + "\n")
        if len(record["sets"]) > 1:
            compare(record["sets"][-2], out, metrics)
    return 0


def compare(before: dict, this: dict, metrics: list) -> None:
    """Print how much worse each median of this set is than the set before's."""
    print(f"medians of set {this['label']} against set {before['label']}, worse by:")
    for workload, entry in this["workloads"].items():
        base = before["workloads"].get(workload, {}).get("summary")
        if not base or "summary" not in entry:
            continue
        for m in metrics:
            a, b = base[m["name"]]["median"], entry["summary"][m["name"]]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "ok" if worse <= m["bound"] else "OVER"
            print(f"  {workload:<13} {m['name']:<16} {worse:+8.4f} {m['bound']:6.2f} {flag}")


if __name__ == "__main__":
    sys.exit(main())
