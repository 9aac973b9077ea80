"""One benchmark operation in a fresh process; run.py starts it.

Times the set-up (import of gexpect.cli plus RunConfig.from_file), then the
workload's one CLI call, and writes a JSON result file.  With --trace the
per-layer spans are installed after set-up and their metrics are added.

Usage: python3 perfbench/worker.py --workload NAME --config PATH
           --result PATH [--trace | --setup-only]
"""

import importlib
import os
import sys
import time


def main() -> int:
    # set-up is timed first, before this script loads anything of its own
    t0 = time.perf_counter()
    cli = importlib.import_module("gexpect.cli")
    import_s = time.perf_counter() - t0
    args = _parse_args()
    t1 = time.perf_counter()
    cfg = cli.RunConfig.from_file(args.config)
    config_s = time.perf_counter() - t1
    result = {"import_s": import_s, "config_s": config_s,
              "setup_s": import_s + config_s}

    import json
    import resource
    import traceback

    import spans
    from workloads import WORKLOADS

    if not args.setup_only:
        rec = None
        if args.trace:
            rec = spans.Recorder(f"{args.workload}-{cfg.seed}-{os.getpid()}")
            spans.install(rec)
        start = time.perf_counter()
        try:
            result["exit_code"] = WORKLOADS[args.workload].call(cli, cfg)
        except Exception:
            result["error"] = traceback.format_exc()
        result["wall_s"] = time.perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result["peak_rss_mb"] = usage.ru_maxrss * 1024 / spans.MB
        if rec is not None:
            result["per_layer"] = rec.metrics()
            rec.write(os.path.join(os.path.dirname(args.result),
                                   "spans.jsonl"))

    import numpy
    import scipy
    from gexpect import __version__, kernels
    result["env"] = {
        "backend": kernels.backend(),
        "gexpect": __version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "run_parallel": cfg.degree(),
        "program_seed": cfg.seed,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def _parse_args():
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    return parser.parse_args()


if __name__ == "__main__":
    sys.exit(main())
