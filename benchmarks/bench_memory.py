#!/usr/bin/env python3
"""Peak memory and wall time of `represent` and of each `verify` suite.

Default mode: runs `cmd_represent` on the default configuration
(`sq(x1)`, band [1, 2], nine constant controls, n_x = 401, all cores) at
each pair of a `--paths` and a `--steps` value, one fresh process per
point, so that each peak RSS (from `getrusage`) belongs to that point
alone.

`--verify`: runs `cmd_verify` at the benchmark's verify-all configuration
(the defaults above with 4096 paths x 256 steps) for each suite alone and
for all six, each in two fresh processes: one for the peak RSS and the
wall time, and one under `tracemalloc` for the peak of the memory Python
and numpy allocate (tracing slows the run and adds its own memory, so
the two are not taken together).

The gexpect imported is the one of the checkout that holds this script.

Usage: python benchmarks/bench_memory.py [--paths 8192 32768]
                                         [--steps 512 2048 4096]
       python benchmarks/bench_memory.py --verify [--seed 20100920]
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
SUITES = ("bdg", "apriori", "difference", "tower", "doob", "mollify")
MB = float(1 << 20)


def _point(spec: dict) -> dict:
    """One `represent` or `verify` run in this process: its exit code,
    wall, peak RSS and, when traced, tracemalloc peak."""
    import resource
    import tracemalloc

    from gexpect import cli

    with tempfile.TemporaryDirectory() as out_dir:
        cfg = cli.RunConfig.from_string(
            f"[mc]\nn_paths = {spec['n_paths']}\n"
            f"n_steps = {spec['n_steps']}\nseed = {spec['seed']}\n"
            f"[run]\nout_dir = {out_dir}\n")
        if spec["traced"]:
            tracemalloc.start()
        start = time.perf_counter()
        if spec["command"] == "represent":
            code = cli.cmd_represent(cfg, quiet=True)
        else:
            code = cli.cmd_verify(cfg, spec["suites"], quiet=True)
        wall = time.perf_counter() - start
        traced = tracemalloc.get_traced_memory()[1] / MB
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {**spec, "exit_code": code, "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "traced_peak_mb": traced if spec["traced"] else None}


def _spawn(spec: dict, env: dict):
    """_point in a fresh process: its record, or the error's last line."""
    proc = subprocess.run(
        [sys.executable, __file__, "--point", json.dumps(spec)],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        return None, (f"failed (exit {proc.returncode}): "
                      f"{proc.stderr.strip().splitlines()[-1:]}")
    return json.loads(proc.stdout.splitlines()[-1]), None


def _represent(args, env):
    print("represent, sq(x1)")
    print(f"{'n_paths':>8s} {'n_steps':>8s} {'peak RSS':>10s} {'wall':>8s}"
          "  exit")
    for n_paths in args.paths:
        for n_steps in args.steps:
            row, error = _spawn({"command": "represent", "n_paths": n_paths,
                                 "n_steps": n_steps, "seed": args.seed,
                                 "traced": False}, env)
            point = f"{n_paths:8d} {n_steps:8d}"
            if error:
                print(f"{point}  {error}")
                continue
            print(f"{point} {row['peak_rss_mb']:7.0f} MB "
                  f"{row['wall_s']:7.1f}s  {row['exit_code']}")


def _verify(args, env):
    print(f"verify, sq(x1), 4096 paths x 256 steps, seed {args.seed}")
    print(f"{'suite':>10s} {'peak RSS':>10s} {'traced peak':>12s} "
          f"{'wall':>7s}  exit")
    for suites in [[s] for s in SUITES] + [list(SUITES)]:
        name = suites[0] if len(suites) == 1 else "all"
        rows = []
        for traced in (False, True):
            row, error = _spawn({"command": "verify", "suites": suites,
                                 "n_paths": 4096, "n_steps": 256,
                                 "seed": args.seed, "traced": traced}, env)
            if error:
                print(f"{name:>10s}  {error}")
                break
            rows.append(row)
        else:
            plain, traced_row = rows
            print(f"{name:>10s} {plain['peak_rss_mb']:7.1f} MB "
                  f"{traced_row['traced_peak_mb']:9.1f} MB "
                  f"{plain['wall_s']:6.2f}s  {plain['exit_code']}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--paths", type=int, nargs="+", default=[8192])
    parser.add_argument("--steps", type=int, nargs="+",
                        default=[512, 2048, 4096])
    parser.add_argument("--verify", action="store_true",
                        help="each verify suite at verify-all's config")
    parser.add_argument("--seed", type=int, default=20100920)
    parser.add_argument("--point", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.point is not None:
        print(json.dumps(_point(json.loads(args.point))))
        return 0

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    if args.verify:
        _verify(args, env)
    else:
        _represent(args, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
