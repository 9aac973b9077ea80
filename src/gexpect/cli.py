"""Command-line front end: price, represent, verify.

Runs are driven by a flat INI-style config (sections band / payoff / grid /
mc / family / run; unknown keys are errors).  Numeric outputs (price.json,
decomposition.csv, reports.jsonl) are byte-reproducible for a fixed config
and seed; timestamps live only in the meta.json sidecar.

Exit codes: 0 ok, 1 config/usage error, 2 numerical failure,
3 verification-gap breach.
"""

import argparse
import configparser
import hashlib
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, inequalities, kernels
from . import montecarlo as mc
from . import representation as rep
from .errors import ConfigError, GExpectError, NumericalError
from .nonlinearity import VolBand
from .payoff import PayoffSpec
from .pde import SpaceTimeGrid, conditional_expectation, refine_study

_KNOWN_KEYS = {
    "band": {"a_lower", "a_upper"},
    "payoff": {"expression", "times", "lipschitz", "sup_bound"},
    "grid": {"n_x", "x_max", "cfl_fraction", "param_time_slices"},
    "mc": {"n_paths", "n_steps", "seed"},
    "family": {"constant_controls", "floor", "file"},
    "run": {"out_dir", "parallel", "gap_tolerance", "csv_paths"},
}


@dataclass
class RunConfig:
    """Parsed, validated run configuration (round-trips through emit())."""

    a_lower: float = 1.0
    a_upper: float = 2.0
    expression: str = "sq(x1)"
    times: tuple = (1.0,)
    lipschitz: float | None = None
    sup_bound: float | None = None
    n_x: int = 401
    x_max: float = 8.0
    cfl_fraction: float = 0.8
    param_time_slices: int = 32
    n_paths: int = 20000
    n_steps: int = 512
    seed: int = 20100920
    constant_controls: int = 9
    floor: float = 1e-6
    family_file: str = ""
    out_dir: str = "out"
    parallel: int = 0           # 0 = all available cores
    gap_tolerance: float = 3e-2
    csv_paths: int = 64

    def degree(self) -> int:
        import os

        return self.parallel if self.parallel > 0 else (os.cpu_count() or 1)

    # -- domain objects ------------------------------------------------------
    def band(self) -> VolBand:
        return VolBand.scalar(self.a_lower, self.a_upper)

    def payoff(self) -> PayoffSpec:
        return PayoffSpec.parse(self.expression, self.times,
                                self.lipschitz, self.sup_bound)

    def grid(self) -> SpaceTimeGrid:
        return SpaceTimeGrid(self.n_x, self.x_max, self.cfl_fraction,
                             param_time_slices=self.param_time_slices)

    def family(self) -> mc.ControlFamily:
        if self.family_file:
            return mc.read_family(self.family_file, self.band())
        return mc.ControlFamily.constants(self.band(),
                                          self.constant_controls, self.floor)

    # -- parse / emit --------------------------------------------------------
    @classmethod
    def from_file(cls, path) -> "RunConfig":
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        return cls.from_parser(parser)

    @classmethod
    def from_string(cls, text: str) -> "RunConfig":
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        return cls.from_parser(parser)

    @classmethod
    def from_parser(cls, parser) -> "RunConfig":
        for section in parser.sections():
            if section not in _KNOWN_KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            unknown = set(parser[section]) - _KNOWN_KEYS[section]
            if unknown:
                raise ConfigError(f"unknown key(s) in [{section}]: "
                                  f"{', '.join(sorted(unknown))}")
        cfg = cls.__new__(cls)
        defaults = cls()

        def get(section, key, conv, default):
            if parser.has_option(section, key):
                raw = parser.get(section, key).strip()
                if raw == "":
                    return None if default is None else default
                try:
                    return conv(raw)
                except ValueError as exc:
                    raise ConfigError(
                        f"bad value for {section}.{key}: {raw!r}") from exc
            return default

        cfg.a_lower = get("band", "a_lower", float, defaults.a_lower)
        cfg.a_upper = get("band", "a_upper", float, defaults.a_upper)
        cfg.expression = get("payoff", "expression", str, defaults.expression)
        cfg.times = get("payoff", "times",
                        lambda s: tuple(float(v) for v in s.split(",")),
                        defaults.times)
        cfg.lipschitz = get("payoff", "lipschitz", float, None)
        cfg.sup_bound = get("payoff", "sup_bound", float, None)
        cfg.n_x = get("grid", "n_x", int, defaults.n_x)
        cfg.x_max = get("grid", "x_max", float, defaults.x_max)
        cfg.cfl_fraction = get("grid", "cfl_fraction", float,
                               defaults.cfl_fraction)
        cfg.param_time_slices = get("grid", "param_time_slices", int,
                                    defaults.param_time_slices)
        cfg.n_paths = get("mc", "n_paths", int, defaults.n_paths)
        cfg.n_steps = get("mc", "n_steps", int, defaults.n_steps)
        cfg.seed = get("mc", "seed", int, defaults.seed)
        cfg.constant_controls = get("family", "constant_controls", int,
                                    defaults.constant_controls)
        cfg.floor = get("family", "floor", float, defaults.floor)
        cfg.family_file = get("family", "file", str, "")
        cfg.out_dir = get("run", "out_dir", str, defaults.out_dir)
        cfg.parallel = get("run", "parallel", int, defaults.parallel)
        cfg.gap_tolerance = get("run", "gap_tolerance", float,
                                defaults.gap_tolerance)
        cfg.csv_paths = get("run", "csv_paths", int, defaults.csv_paths)
        cfg.validate()
        return cfg

    def validate(self):
        try:
            self.band()
            self.payoff()
            self.grid()
        except (ValueError, GExpectError) as exc:
            raise ConfigError(str(exc)) from exc
        if self.n_paths < 1 or self.n_steps < 1:
            raise ConfigError("mc.n_paths and mc.n_steps must be >= 1")
        if self.seed < 0:
            raise ConfigError("mc.seed must be a non-negative integer")
        if self.constant_controls < 1:
            raise ConfigError("family.constant_controls must be >= 1")
        if self.csv_paths < 0:
            raise ConfigError("run.csv_paths must be >= 0")
        try:
            self.family()
        except OSError as exc:
            raise ConfigError(f"cannot read family file: {exc}") from exc
        except KeyError as exc:
            raise ConfigError(f"family file lacks key {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"bad family: {exc}") from exc

    def emit(self) -> str:
        lines = [
            "[band]",
            f"a_lower = {self.a_lower!r}",
            f"a_upper = {self.a_upper!r}",
            "",
            "[payoff]",
            f"expression = {self.expression}",
            "times = " + ",".join(repr(t) for t in self.times),
        ]
        if self.lipschitz is not None:
            lines.append(f"lipschitz = {self.lipschitz!r}")
        if self.sup_bound is not None:
            lines.append(f"sup_bound = {self.sup_bound!r}")
        lines += [
            "",
            "[grid]",
            f"n_x = {self.n_x}",
            f"x_max = {self.x_max!r}",
            f"cfl_fraction = {self.cfl_fraction!r}",
            f"param_time_slices = {self.param_time_slices}",
            "",
            "[mc]",
            f"n_paths = {self.n_paths}",
            f"n_steps = {self.n_steps}",
            f"seed = {self.seed}",
            "",
            "[family]",
            f"constant_controls = {self.constant_controls}",
            f"floor = {self.floor!r}",
        ]
        if self.family_file:
            lines.append(f"file = {self.family_file}")
        lines += [
            "",
            "[run]",
            f"out_dir = {self.out_dir}",
            f"parallel = {self.parallel}",
            f"gap_tolerance = {self.gap_tolerance!r}",
            f"csv_paths = {self.csv_paths}",
        ]
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        numeric = {
            "band": [self.a_lower, self.a_upper],
            "payoff": [self.expression, list(self.times), self.lipschitz,
                       self.sup_bound],
            "grid": [self.n_x, self.x_max, self.cfl_fraction,
                     self.param_time_slices],
            "mc": [self.n_paths, self.n_steps, self.seed],
            "family": [self.constant_controls, self.floor, self.family_file],
        }
        blob = json.dumps(numeric, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _odd(n: int) -> int:
    return n if n % 2 else n + 1


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_meta(cfg: RunConfig, out: Path, extra=None):
    meta = {
        "created": datetime.now(timezone.utc).isoformat(),
        "fingerprint": cfg.fingerprint(),
        "config": cfg.emit(),
        "kernel_backend": kernels.backend(),
        "versions": {
            "gexpect": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    if extra:
        meta.update(extra)
    _write_json(out / "meta.json", meta)


def cmd_price(cfg: RunConfig, quiet: bool = False) -> int:
    """PDE value, dual Monte Carlo lower bound, gap, convergence table."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    band, payoff, grid = cfg.band(), cfg.payoff(), cfg.grid()
    try:
        field = conditional_expectation(payoff, band, grid, cfg.degree())
        value = field.value(0.0, (), 0.0)
        if not np.isfinite(value):
            raise NumericalError("solved value is not finite")
        # near-halving chain below n_x, snapped up to odd node counts
        mid = _odd((cfg.n_x - 1) // 2 + 1)
        coarse = _odd(max(5, (cfg.n_x - 1) // 4 + 1))
        grids = [SpaceTimeGrid(n, cfg.x_max, cfg.cfl_fraction)
                 for n in (coarse, mid, cfg.n_x)]
        table = refine_study(payoff, band, grids, finest=value)
        dual = mc.dual_value(payoff, cfg.family(), cfg.n_paths, cfg.n_steps,
                             mc.derive_seed(cfg.seed, "price-dual"))
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    gap = value - dual.value
    payload = {
        "fingerprint": cfg.fingerprint(),
        "payoff": payoff.source(),
        "times": list(payoff.times),
        "band": [band.lower_scalar, band.upper_scalar],
        "value": value,
        "dual_lower_bound": dual.value,
        "dual_argmax": dual.argmax.label,
        "dual_stderr": dual.stderr,
        "dual_table": [{"label": r.label, "mean": r.mean,
                        "stderr": r.stderr} for r in dual.table],
        "gap": gap,
        "convergence": [{"n_x": r.n_x, "value": r.value, "diff": r.diff,
                         "order": r.order} for r in table],
    }
    _write_json(out / "price.json", payload)
    _write_meta(cfg, out)
    if not quiet:
        print(f"value            {value:.6f}")
        print(f"dual lower bound {dual.value:.6f}  (argmax {dual.argmax.label}, "
              f"se {dual.stderr:.2e})")
        print(f"gap              {gap:.6f}")
        for r in table:
            order = "" if r.order is None else f"  order {r.order:.2f}"
            diff = "" if r.diff is None else f"  diff {r.diff:+.2e}"
            print(f"  n_x {r.n_x:5d}  value {r.value:.6f}{diff}{order}")
    lo_ok = gap >= -2.0 * dual.stderr
    hi_ok = gap <= cfg.gap_tolerance + 2.0 * dual.stderr
    if not (lo_ok and hi_ok):
        print("verification gap breach: PDE-vs-dual gap "
              f"{gap:.4f} outside [-2se, {cfg.gap_tolerance} + 2se]",
              file=sys.stderr)
        return 3
    return 0


def cmd_represent(cfg: RunConfig, quiet: bool = False) -> int:
    """Decomposition extraction plus its diagnostic battery."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    band, payoff, grid = cfg.band(), cfg.payoff(), cfg.grid()
    family = cfg.family()
    seed = mc.derive_seed(cfg.seed, "represent")
    degree = cfg.degree()
    try:
        field = conditional_expectation(payoff, band, grid, degree)
        gap = rep.gmartingale_gap(payoff, band, field, family, cfg.n_paths,
                                  cfg.n_steps, seed, degree=degree,
                                  # one row at least, for the csv header
                                  keep_rows=max(cfg.csv_paths, 1))
        sym = rep.symmetry_evidence(payoff, band, field, family, 1e-8,
                                    gap.symmetry, degree)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    best = next(r for r in gap.rows if r.label == gap.argmax_label)
    gap.head.to_csv(out / "decomposition.csv", max_paths=cfg.csv_paths,
                     fingerprint=cfg.fingerprint())
    records = [
        {"kind": "represent_summary", "fingerprint": cfg.fingerprint(),
         "payoff": payoff.source(), "control": best.label,
         "residual_rms": best.residual_rms, "min_dk": best.min_dk,
         "exclusion_rate": best.excluded / cfg.n_paths,
         "terminal_defect": best.terminal_defect,
         "sup_mean_neg_k1": gap.sup, "gap_argmax": gap.argmax_label,
         "symmetric": sym.symmetric, "k_abs_max": sym.k_abs_max,
         "value": sym.value, "value_negated": sym.value_negated,
         "asymmetry": sym.asymmetry},
    ]
    records += [{"kind": "gmartingale_gap", "control": r.label,
                 "mean_neg_k1": r.mean_neg_k1, "stderr": r.stderr,
                 "fingerprint": cfg.fingerprint()} for r in gap.rows]
    with open(out / "reports.jsonl", "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    _write_meta(cfg, out)
    if not quiet:
        print(f"control (gap argmax)  {best.label}")
        print(f"residual rms          {best.residual_rms:.5f}")
        print(f"min dK                {best.min_dk:.2e}")
        print(f"sup E[-K1]            {gap.sup:.5f}")
        print(f"symmetric             {sym.symmetric} "
              f"(|K|max {sym.k_abs_max:.2e}, asymmetry {sym.asymmetry:.4f})")
    return 0


def cmd_verify(cfg: RunConfig, suites, quiet: bool = False) -> int:
    """Run named verification suites; exit 3 on any failed inequality."""
    if not suites:
        print("usage error: no verification suites given", file=sys.stderr)
        return 1
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    band, payoff, grid = cfg.band(), cfg.payoff(), cfg.grid()
    family = cfg.family()
    reports = []
    try:
        for name in suites:
            reports.extend(inequalities.run_suite(
                name, payoff, band, grid, family, cfg.n_paths, cfg.n_steps,
                cfg.seed))
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    with open(out / "reports.jsonl", "w") as fh:
        for r in reports:
            fh.write(r.to_json() + "\n")
    _write_meta(cfg, out, {"suites": list(suites)})
    if not quiet:
        print(inequalities.format_table(reports))
    return 0 if all(r.passed for r in reports) else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gexpect",
        description="volatility-band pricing, decomposition and verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("price", "PDE value, dual bound, convergence"),
                      ("represent", "extract and check the decomposition"),
                      ("verify", "run verification suites")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="run config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override mc.seed")
        p.add_argument("--out", default=None, help="override run.out_dir")
        p.add_argument("--quiet", action="store_true")
        if name == "verify":
            p.add_argument("--suite", default="",
                           help="comma-separated: "
                                + ",".join(inequalities.SUITES))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out_dir = args.out
        if args.command == "price":
            return cmd_price(cfg, args.quiet)
        if args.command == "represent":
            return cmd_represent(cfg, args.quiet)
        suites = [s.strip() for s in args.suite.split(",") if s.strip()]
        for s in suites:
            if s not in inequalities.SUITES:
                raise ConfigError(f"unknown suite {s!r}")
        return cmd_verify(cfg, suites, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
