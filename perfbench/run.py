"""Benchmark of the azsl pipeline: one workload per run, metrics as JSON.

    python3 perfbench/run.py --workload white-kl --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout. It imports azsl from ./src, pins
BLAS to one thread, and writes its output under ./.perfbench. With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. `--workload all` runs
every workload in turn, each in its own process, and prints one such object
per workload with its name added. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("white-kl", "black-mmd", "black-kl-tcp", "inductive-sweep")


def _exit_on_signal(signum, _frame):
    raise SystemExit(128 + signum)  # unwinds through finally blocks, which stop azsl serve


def run_all(args) -> int:
    """Each workload in a fresh process, so that peak_rss_mb is its own."""
    worst = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            try:
                out, _ = proc.communicate()
            except BaseException:
                proc.terminate()  # the child's own handler then stops its azsl serve
                proc.wait()
                raise
        lines = out.strip().splitlines()
        result = {"workload": name}
        if proc.returncode in (0, 1) and lines:
            result.update(json.loads(lines[-1]))
        print(json.dumps(result), flush=True)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "azsl" / "__init__.py").is_file():
        print(f"perfbench: no azsl package under {src}; run from the root of an azsl checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _exit_on_signal)
    if args.workload == "all":
        return run_all(args)
    # set before numpy is first imported, and inherited by azsl serve
    os.environ.update(BLAS_THREADS)
    os.environ.pop("AZSL_SEED", None)
    sys.path.insert(0, str(src))

    import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), root)


if __name__ == "__main__":
    sys.exit(main())
