"""The benchmark's workloads: the generated config, the CLI call, the checks.

Every workload uses band [1, 2], 9 constant controls and n_x = 401.  The
program receives only the generated config file; the workload seed given
to the benchmark becomes `mc.seed` unchanged (`--seed 20100920` is the
shipped default seed).

Cases that are deliberately not workloads:

* Tier-1 wall time (about 118 s on 2 cores): it times test sizes, not a
  user operation, and one run would not fit the benchmark's time budget.
* `represent` at 100k paths: the OOM killer ends it (exit 137) because
  Monte Carlo memory grows with n_paths.  Making it runnable is a
  roadmap target, not a baseline.
* `price` on `sq(x1)` exits 3 at the default seed, a 2-sigma false alarm
  of the price gap gate (about 2 % of seeds).  The workloads below were
  chosen for the layer each one loads, not to avoid that gate: any exit 3
  the benchmark meets counts as a failed operation and is never re-seeded
  away.  `price-2date` trips the same gate too: on seeds 0-100 it exits 3
  for seeds 9, 57, 63, 67, 85 and 95, and runs on those seeds report
  failed operations until the gate is fixed.
"""

import json
from dataclasses import dataclass

A_LOWER, A_UPPER = 1.0, 2.0
SUITES = ("bdg", "apriori", "difference", "tower", "doob", "mollify")
TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    command: str               # price | represent | verify
    settings: dict             # INI section -> {key: value}, seed excluded
    outputs: tuple             # numeric files that must repeat byte for byte

    def config_text(self, seed: int, out_dir: str) -> str:
        sections = {"band": {"a_lower": A_LOWER, "a_upper": A_UPPER},
                    "grid": {"n_x": 401},
                    "family": {"constant_controls": 9}}
        for name, keys in self.settings.items():
            sections.setdefault(name, {}).update(keys)
        sections.setdefault("mc", {})["seed"] = seed
        sections.setdefault("run", {})["out_dir"] = out_dir
        lines = []
        for name, keys in sections.items():
            lines.append(f"[{name}]")
            lines += [f"{k} = {v}" for k, v in keys.items()]
            lines.append("")
        return "\n".join(lines)

    def call(self, cli, cfg) -> int:
        """Run the workload's one operation through the public CLI entry."""
        if self.command == "price":
            return cli.cmd_price(cfg, quiet=True)
        if self.command == "represent":
            return cli.cmd_represent(cfg, quiet=True)
        return cli.cmd_verify(cfg, list(SUITES), quiet=True)

    def check(self, out_dir) -> list:
        """Problems with the outputs in out_dir, as messages (empty = ok)."""
        try:
            if self.command == "price":
                return _check_price(out_dir)
            if self.command == "represent":
                return _check_represent(out_dir)
            return _check_verify(out_dir)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]


def _near(label, got, want):
    if abs(got - want) <= TOL:
        return []
    return [f"{label} = {got!r}, expected {want!r} to {TOL:g}"]


def _check_price(out_dir):
    # the payoff's worst-case value is a_upper * (1 - 0.5)
    price = json.loads((out_dir / "price.json").read_text())
    return _near("price value", price["value"], A_UPPER * 0.5)


def _check_represent(out_dir):
    lines = (out_dir / "reports.jsonl").read_text().splitlines()
    summary = json.loads(lines[0])
    problems = _near("value", summary["value"], A_UPPER * 0.5)
    problems += _near("value_negated", summary["value_negated"],
                      -A_LOWER * 0.5)
    if not summary["min_dk"] >= -1e-12:
        problems.append(f"K decreases: min_dk = {summary['min_dk']!r}")
    if summary["symmetric"] is not False:
        problems.append("payoff classified symmetric")
    return problems


def _check_verify(out_dir):
    reports = [json.loads(line) for line in
               (out_dir / "reports.jsonl").read_text().splitlines()]
    problems = [f"report {r['name']} failed" for r in reports
                if r["passed"] is not True]
    checks = {r["config"].get("check") for r in reports}
    problems += [f"suite {s} produced no report" for s in SUITES
                 if s not in checks]
    return problems


_TWO_DATES = {"expression": "sq(x2 - x1)", "times": "0.5, 1"}

WORKLOADS = {w.name: w for w in (
    # PDE march dominates (nested 401-row march plus the 3-grid refine
    # study); fields are never read along paths.
    Workload("price-2date", "price", {"payoff": _TWO_DATES},
             ("price.json",)),
    # field reads dominate, through both read paths (scipy for the nested
    # interval, the bilinear kernel for the first); run.parallel = 2
    # threads the per-control loop of gmartingale_gap.
    Workload("represent-2date", "represent",
             {"payoff": _TWO_DATES,
              "mc": {"n_paths": 8192, "n_steps": 256},
              "run": {"parallel": 2}},
             ("reports.jsonl", "decomposition.csv")),
    # eight per-control loops re-simulate, re-draw and re-extract; one date,
    # so reads use the bilinear kernel only.
    Workload("verify-all", "verify",
             {"payoff": {"expression": "sq(x1)", "times": "1"},
              "mc": {"n_paths": 4096, "n_steps": 256}},
             ("reports.jsonl",)),
)}
