"""Benchmark command: build dataset -> train -> evaluate for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload sparse-multiview --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics in a separate run and writes its spans under
``.perfbench_out/``. Every metric is printed by name and unit; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics named in ``BENCHMARK.json``. A failed correctness
check prints the reason to standard error, reports no numbers and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# one BLAS/OpenMP thread: the matrices are tiny, and a single thread keeps
# timings steady; must be set before numpy is imported
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# printed with the end-to-end metrics but not gated; BENCHMARK.json names the rest
PRINTED_ONLY = {
    "behind_frac": "ratio",
    "nonfinite_frac": "ratio",
    "wall.setup_s": "s",
    "wall.train_iters_per_s": "it/s",
    "wall.total_s": "s",
}


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--iterations", type=int, default=None, help="override the workload's train length"
    )
    return p.parse_args(argv)


def main(argv=None):
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "anglereloc").is_dir():
        print(f"error: no anglereloc sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import harness
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload]
    try:
        inputs, metrics, attempted, failed = harness.run(
            workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            iterations=args.iterations,
            out_dir=ROOT / ".perfbench_out",
        )
    except harness.CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return 1

    inputs.update(
        workload=workload.name,
        seed=args.seed,
        iterations=workload.train_config(args.seed, args.iterations).iterations,
        probe=workload.probe,
        blas_threads=BLAS_THREADS,
        nproc=os.cpu_count(),
        usable_cpus=len(os.sched_getaffinity(0)),
    )
    print("inputs " + json.dumps(inputs))
    printed = units if args.trace else {**units, **PRINTED_ONLY}
    for name, unit in printed.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
