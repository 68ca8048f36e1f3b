"""Record the expected outputs of every benchmark input into reference.json.

Run from the repository root, at the commit whose outputs are the reference:

    python3 bench/record_reference.py

It runs each Monte Carlo batch of the pools at workers=1 and ``panelur
test`` on each pooled panel, and writes their outputs. The benchmark
compares every run against this file and fails on any mismatch.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as wl  # noqa: E402
from panelur import harness  # noqa: E402


def record_mc(make, label: str) -> dict:
    batches = {}
    start = time.perf_counter()
    for base_seed in range(wl.MC_POOL):
        exp = make(base_seed)
        batches[str(base_seed)] = wl.mc_counts(harness.run(exp, workers=1))
    print(f"{label}: {wl.MC_POOL} batches in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    return {"replications_per_cell": make(0).replications, "batches": batches}


def record_panels() -> dict:
    panels = {}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        path = os.path.join(tmp, "panel.csv")
        for seed in range(wl.PANEL_POOL):
            wl.write_panel(path, seed)
            code, payload = wl.panelur_test(path)
            if code != 0:
                raise SystemExit(f"panelur test failed with exit {code} on panel seed {seed}")
            panels[str(seed)] = wl.summarize_test(payload)
    print(f"cli_test_large: {wl.PANEL_POOL} panels in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    return {"panels": panels}


def main() -> None:
    reference = {
        "mc_acceptance": record_mc(wl.acceptance_experiment, "mc_acceptance"),
        "mc_serial_long": record_mc(wl.serial_long_experiment, "mc_serial_long"),
        "cli_test_large": record_panels(),
    }
    with open(BENCH / "reference.json", "w") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
