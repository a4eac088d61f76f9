"""The repository's measuring scripts under tools/."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_cli_call_counts_repeat_across_processes(tmp_path):
    # two interpreters with different string hashing count the same calls
    out = tmp_path / "BENCH_cli_calls.json"
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, str(TOOLS / "count_cli_calls.py"), "--label", f"hash{seed}",
             "--items", "3", "--out", str(out)],
            env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text())
    first, second = record["hash0"]["workloads"], record["hash1"]["workloads"]
    assert set(first) == {"family-sweep", "file-states", "audit"}
    for name, counts in first.items():
        assert counts["items"] == 3 and counts["failed"] == 0
        assert counts["calls"] > 0 and counts["tracemalloc_peak_bytes"] > 0
        assert counts["calls"] == second[name]["calls"], name
