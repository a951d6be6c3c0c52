"""Benchmark of sew: training throughput, set-up and uni-modal serving.

    python3 perfbench/run.py --workload desk-full --seed 0 --seconds 25 --trace 0

Runs one workload on sew from this checkout's src/ and prints, as the last
line of standard output, one JSON object: {"correct", "attempted",
"failed", "metrics"}. --trace 0 gives the end-to-end metrics, --trace 1
the per-layer ones. `--workload all` runs every workload, each in a fresh
process. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("desk-full", "pair-geo-audio", "deploy-stream")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0, help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", default="1", choices=("1", "default"),
                   help="BLAS/OpenMP threads: 1, or the library's own choice")
    p.add_argument("--prepare-into", help=argparse.SUPPRESS)  # deploy-stream's model-building child
    return p.parse_args(argv)


def pin_threads(setting: str) -> None:
    """Must run before numpy is imported."""
    for var in THREAD_VARS:
        if setting == "default":
            os.environ.pop(var, None)
        else:
            os.environ[var] = "1"


def import_sew():
    """sew from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sew
    except ImportError as err:
        sys.exit(f"perfbench: cannot import sew from {src}: {err}")
    if not Path(sew.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: sew was imported from {sew.__file__}, not from {src}")


def run_all(args) -> int:
    import json
    import subprocess
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--blas-threads", args.blas_threads]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout, end="")
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(name, json.dumps(results[name]), flush=True)
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads(args.blas_threads)
    if args.workload == "all":
        return run_all(args)
    import_sew()

    import json
    import shutil

    import environment
    import workloads

    if args.prepare_into:
        workloads.prepare_deployment(Path(args.prepare_into), args.seed, bool(args.trace))
        return 0
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    env = environment.describe()
    print("env", json.dumps(env), flush=True)
    try:
        result, notes = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                               workdir, OUT_DIR)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "result": result, **notes}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
