#!/usr/bin/env python3
"""Peak RSS and wall time of `represent` as the path-step count grows.

Runs `cmd_represent` on the default configuration (`sq(x1)`, band [1, 2],
nine constant controls, n_x = 401, all cores) with 8192 paths at each
`--steps` value, one fresh process per point, so that each peak RSS (from
`getrusage`) belongs to that point alone.  The gexpect imported is the one
of the checkout that holds this script.

Usage: python benchmarks/bench_memory.py [--paths N] [--steps 512 2048 4096]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _point(n_paths: int, n_steps: int) -> dict:
    """One `represent` run in this process: its exit code, wall and peak
    RSS."""
    import resource

    from gexpect import cli

    with tempfile.TemporaryDirectory() as out_dir:
        cfg = cli.RunConfig.from_string(
            f"[mc]\nn_paths = {n_paths}\nn_steps = {n_steps}\n"
            f"[run]\nout_dir = {out_dir}\n")
        start = time.perf_counter()
        code = cli.cmd_represent(cfg, quiet=True)
        wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"n_steps": n_steps, "exit_code": code, "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--paths", type=int, default=8192)
    parser.add_argument("--steps", type=int, nargs="+",
                        default=[512, 2048, 4096])
    parser.add_argument("--point", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.point is not None:
        print(json.dumps(_point(args.paths, args.point)))
        return 0

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    print(f"represent, sq(x1), {args.paths} paths")
    print(f"{'n_steps':>8s} {'peak RSS':>10s} {'wall':>8s}  exit")
    for n_steps in args.steps:
        proc = subprocess.run(
            [sys.executable, __file__, "--paths", str(args.paths),
             "--point", str(n_steps)],
            env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{n_steps:8d}  failed (exit {proc.returncode}): "
                  f"{proc.stderr.strip().splitlines()[-1:]}")
            continue
        row = json.loads(proc.stdout.splitlines()[-1])
        print(f"{n_steps:8d} {row['peak_rss_mb']:7.0f} MB {row['wall_s']:7.1f}s"
              f"  {row['exit_code']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
