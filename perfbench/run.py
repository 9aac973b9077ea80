#!/usr/bin/env python3
"""gexpect benchmark: three CLI workloads, end-to-end and per-layer metrics.

Run from the root of a gexpect checkout:

    python3 perfbench/run.py --workload price-2date --seed 20100920 \\
        --seconds 30 --trace 0

Each operation is one `cmd_price` / `cmd_represent` / `cmd_verify` call in
a fresh worker process (closed loop, one caller), so that its peak RSS and
set-up time belong to it alone.  With `--trace 0` the run repeats
operations while the next one is expected to finish within `--seconds`
(at least one), adds set-up-only processes until there are five set-up
samples, and reports medians of `wall_s`, `peak_rss_mb` and `setup_s`.
With `--trace 1` it runs one untraced and one traced operation on the same
seed and reports the per-layer metrics of the traced one, plus
`trace.overhead_s` (traced minus untraced `wall_s`).

Every operation's outputs are checked (see workloads.py) and must repeat
byte for byte across operations of one source tree with one seed.  An
operation that raises, exits non-zero (exit 3 included), is killed or
fails a check counts as failed.  Human-readable lines come first; the last
line of stdout is the JSON result.  Each run's full record (git SHA,
source digest, kernel backend, library versions, nproc, run.parallel,
seed, per-operation samples) is appended to
`.perfbench/results/<workload>.jsonl`; compare.py compares such records.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0      # a run must end within 180 s, whatever happens


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest(root: Path) -> str:
    """Digest of the program source, which identifies a commit without git."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if (path.is_file() and "__pycache__" not in path.parts
                and path.suffix not in (".pyc", ".so")):
            h.update(str(path.relative_to(src)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root: Path):
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=root, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if Path(lines[0]).resolve() == root.resolve() else None


class Run:
    """One benchmark run: a workload, a seed, its operations and checks."""

    def __init__(self, root: Path, workload, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.state = root / ".perfbench"
        self.dir = self.state / "runs" / f"{workload.name}-{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.out = self.dir / "out"
        self.config = self.dir / "run.cfg"
        self.config.write_text(workload.config_text(
            seed, os.path.relpath(self.out, root)))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]]
                                   if self.env.get("PYTHONPATH") else []))
        self.deadline = time.monotonic() + DEADLINE_S
        self.src_digest = source_digest(root)
        self.ops = []           # operations (dicts), in order
        self.setup_probes = []  # set-up-only samples

    def _worker(self, name: str, flags):
        work = self.dir / name
        work.mkdir()
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload.name, "--config", str(self.config),
               "--result", str(work / "result.json"), *flags]
        timeout = max(1.0, self.deadline - time.monotonic())
        start = time.monotonic()
        with open(work / "stdout.txt", "w") as so, \
                open(work / "stderr.txt", "w") as se:
            try:
                rc = subprocess.run(cmd, stdout=so, stderr=se, cwd=self.root,
                                    env=self.env, timeout=timeout).returncode
            except subprocess.TimeoutExpired:
                rc = "killed after timeout"
        elapsed = time.monotonic() - start
        result = {}
        if rc == 0:
            result = json.loads((work / "result.json").read_text())
        return rc, elapsed, result

    def operation(self, traced: bool) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        rc, elapsed, result = self._worker(f"op{len(self.ops)}",
                                           ["--trace"] if traced else [])
        problems = []
        if rc != 0:
            problems.append(f"worker process ended with {rc}")
        elif "error" in result:
            problems.append("operation raised:\n" + result["error"])
        elif result["exit_code"] != 0:
            problems.append(f"operation exited {result['exit_code']}")
        else:
            problems += self.workload.check(self.out)
            problems += self._check_repeatable()
        if "wall_s" not in result:
            # the worker died: fall back to what this process can observe
            result["wall_s"] = elapsed
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        op = {"traced": traced, "elapsed_s": elapsed, "problems": problems,
              **result}
        self.ops.append(op)
        return op

    def _check_repeatable(self) -> list:
        digests = {}
        for name in self.workload.outputs:
            path = self.out / name
            if not path.is_file():
                return [f"missing output {name}"]
            digests[name] = _sha256(path)
        store = self.state / "digests.json"
        known = json.loads(store.read_text()) if store.is_file() else {}
        key = f"{self.src_digest}:{self.workload.name}:{self.seed}"
        if key not in known:
            known[key] = digests
            tmp = store.with_suffix(".tmp")
            tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
            tmp.replace(store)
            return []
        return [f"{name} differs from an earlier run of this source and seed"
                for name, d in digests.items() if known[key].get(name) != d]

    def setup_probe(self):
        rc, _, result = self._worker(f"setup{len(self.setup_probes)}",
                                     ["--setup-only"])
        if rc == 0:
            self.setup_probes.append(result)

    def setup_samples(self) -> list:
        return [r for r in self.ops + self.setup_probes if "setup_s" in r]

    def env_info(self) -> dict:
        envs = [r["env"] for r in self.ops + self.setup_probes if "env" in r]
        return envs[0] if envs else {}


def _median(values, fallback=0.0) -> float:
    return statistics.median(values) if values else fallback


def measure(run: Run, seconds: float):
    """Closed loop: start the next operation only if it should finish in
    time; then top up the set-up samples with set-up-only processes."""
    start = time.monotonic()
    while True:
        if run.ops:
            expected = _median([op["elapsed_s"] for op in run.ops])
            if time.monotonic() - start + expected > seconds:
                break
            if time.monotonic() + expected > run.deadline:
                break
        run.operation(traced=False)
    while (len(run.setup_samples()) < SETUP_SAMPLES
           and time.monotonic() + 5.0 < run.deadline):
        run.setup_probe()
    setups = run.setup_samples()
    return {
        "wall_s": _median([op["wall_s"] for op in run.ops]),
        "peak_rss_mb": _median([op["peak_rss_mb"] for op in run.ops]),
        "setup_s": _median([r["setup_s"] for r in setups]),
    }


def measure_traced(run: Run):
    plain = run.operation(traced=False)
    traced = run.operation(traced=True)
    metrics = dict(traced.get("per_layer", {}))
    setups = run.setup_samples()
    metrics["setup.import_s"] = _median([r["import_s"] for r in setups])
    metrics["setup.config_s"] = _median([r["config_s"] for r in setups])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM unwind, so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be non-negative (it becomes mc.seed)")

    root = Path.cwd()
    if not (root / "src" / "gexpect" / "cli.py").is_file():
        print("error: run from the root of a gexpect checkout "
              "(src/gexpect/cli.py not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    run = Run(root, WORKLOADS[args.workload], args.seed)
    if args.trace:
        values = measure_traced(run)
        listed = spec["per_layer"]
    else:
        values = measure(run, args.seconds)
        listed = spec["end_to_end"]
    failed = sum(1 for op in run.ops if op["problems"])

    def value(name):
        if name in values:
            return values[name]
        if failed:      # the operation that would have measured it failed
            return 0.0
        raise KeyError(f"{name} is listed in BENCHMARK.json but not measured")

    metrics = {m["name"]: {"value": value(m["name"]), "unit": m["unit"]}
               for m in listed}
    meta = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "git_sha": git_sha(root),
            "src_digest": run.src_digest, **run.env_info()}
    record = {"meta": meta, "metrics": metrics,
              "attempted": len(run.ops), "failed": failed,
              "operations": run.ops, "setup_probes": run.setup_probes}
    results = run.state / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    for k, op in enumerate(run.ops):
        for problem in op["problems"]:
            print(f"FAILED op{k}: {problem}")
    n_setup = len(run.setup_samples())
    for name, m in metrics.items():
        print(f"{name:56s} {m['value']:14.6f} {m['unit']}")
    if not args.trace:
        print(f"{'failed_ops':56s} {failed / len(run.ops):14.6f} share "
              f"({failed} of {len(run.ops)})")
        print(f"samples: {len(run.ops)} operations, {n_setup} set-ups "
              "(medians)")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(run.ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
