"""Record the simulated statistics that a pure speed-up must leave unchanged.

    python3 bench/record_baseline.py [SEED ...]

Run from the root of a checkout.  For each workload and seed (default 1 and
2) it runs one untraced and one traced pass and writes ``bench/baseline.json``:
interpreter, numpy, BLAS and CPU metadata, then per workload and seed the
event counts, audit-log bytes, output digests, command drops and FIFO
clamps, and traced call counts such as the number of Adam steps.  The
runner compares each run's digests with this file when the seed is listed.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

import run
import tracer
import workloads


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [1, 2]
    cli = run.import_program(Path.cwd())
    doc = {
        "metadata": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_info(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "workloads": {},
    }
    for name in workloads.WORKLOADS:
        doc["workloads"][name] = {}
        for seed in seeds:
            workload = workloads.build(name, seed, run.OUT / name)
            plain = run.run_pass(cli, workload)
            traced = run.run_pass(cli, workload, tracer.Tracer())
            if plain.failed or traced.failed or plain.digests != traced.digests:
                print(f"{name} seed {seed}: pass failed or traced bytes differ",
                      plain.failed, traced.failed, file=sys.stderr)
                return 1
            calls = {k: v["calls"] for k, v in traced.layers.items() if v["calls"]}
            doc["workloads"][name][str(seed)] = {
                "stats": plain.stats,
                "calls": calls,
                "digests": plain.digests,
            }
            print(f"{name} seed {seed}: {plain.stats}")
    run.BASELINE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
