#!/usr/bin/env python3
"""Reference figures for bench/README.md: cold against warm ``analyze`` at
N = 21, with one and with two BLAS threads, on an idle machine and with one
core kept busy by a spinning process.

    python3 bench/reference.py

Each case runs in a fresh process: the first ``analyze`` call is cold (BLAS
warm-up, constraint Hessians, cached reduced system), the second is warm.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASE = r"""
import json, time
t0 = time.perf_counter()
from vortexstab.report import analyze
from vortexstab.scenarios import build_scenario
scen = build_scenario("polygon-with-center", gamma=20.0, m=20)
t1 = time.perf_counter(); analyze(scen); t2 = time.perf_counter(); analyze(scen); t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "cold_s": t2 - t1, "warm_s": t3 - t2}))
"""
TIMEOUT_S = 300


def run_case(threads: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    out = subprocess.run([sys.executable, "-c", CASE], env=env, capture_output=True,
                         text=True, timeout=TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    rows = []
    for busy in (False, True):
        spinner = None
        if busy:
            spinner = subprocess.Popen([sys.executable, "-c", "while True: pass"])
        try:
            for threads in (1, 2):
                rows.append(dict(run_case(threads), blas_threads=threads, busy_core=busy))
        finally:
            if spinner is not None:
                spinner.kill()
                spinner.wait()
    print(f"{'busy core':>9} {'BLAS threads':>12} {'import s':>9} {'cold s':>8} {'warm s':>8}")
    for r in rows:
        print(f"{str(r['busy_core']):>9} {r['blas_threads']:>12} {r['import_s']:>9.3f} "
              f"{r['cold_s']:>8.3f} {r['warm_s']:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
