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
import os
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
from .pde import (SpaceTimeGrid, check_halving, conditional_expectation,
                  g_expectation, refine_study)


def _times(raw: str) -> tuple:
    return tuple(float(v) for v in raw.split(","))


# The one list of config keys, in emit order: (section, key, RunConfig field,
# parser).  The known-key check, parsing, emit() and fingerprint() (every
# section but [run]) all derive from it.
_KEYS = (
    ("band", "a_lower", "a_lower", float),
    ("band", "a_upper", "a_upper", float),
    ("payoff", "expression", "expression", str),
    ("payoff", "times", "times", _times),
    ("grid", "n_x", "n_x", int),
    ("grid", "x_max", "x_max", float),
    ("grid", "cfl_fraction", "cfl_fraction", float),
    ("grid", "param_time_slices", "param_time_slices", int),
    ("mc", "n_paths", "n_paths", int),
    ("mc", "n_steps", "n_steps", int),
    ("mc", "seed", "seed", int),
    ("family", "constant_controls", "constant_controls", int),
    ("family", "floor", "floor", float),
    ("family", "file", "family_file", str),
    ("run", "out_dir", "out_dir", str),
    ("run", "parallel", "parallel", int),
    ("run", "gap_tolerance", "gap_tolerance", float),
    ("run", "csv_paths", "csv_paths", int),
)


def _read(text: str, source: str) -> configparser.ConfigParser:
    # no config line can name the section "\n", so [DEFAULT] is an ordinary
    # (and unknown) section, not defaults merged into every other section
    parser = configparser.ConfigParser(interpolation=None,
                                       default_section="\n")
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    return parser


@dataclass
class RunConfig:
    """Parsed, validated run configuration (round-trips through emit())."""

    a_lower: float = 1.0
    a_upper: float = 2.0
    expression: str = "sq(x1)"
    times: tuple = (1.0,)
    n_x: int = 401
    x_max: float = 8.0
    cfl_fraction: float = 0.8
    param_time_slices: int = 32
    n_paths: int = 20000
    n_steps: int = 512
    seed: int = 20100920
    constant_controls: int = 9
    floor: float = mc.FLOOR
    family_file: str = ""
    out_dir: str = "out"
    parallel: int = 0           # Monte Carlo path blocks in flight; 0 = cores
    gap_tolerance: float = 3e-2
    csv_paths: int = 64

    def degree(self) -> int:
        return self.parallel or os.cpu_count() or 1

    # -- domain objects ------------------------------------------------------
    def band(self) -> VolBand:
        return VolBand.scalar(self.a_lower, self.a_upper)

    def payoff(self) -> PayoffSpec:
        return PayoffSpec.parse(self.expression, self.times)

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
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        return cls.from_parser(_read(text, str(path)))

    @classmethod
    def from_string(cls, text: str) -> "RunConfig":
        return cls.from_parser(_read(text, "<string>"))

    @classmethod
    def from_parser(cls, parser) -> "RunConfig":
        """A validated config from parser's sections; an empty value keeps
        the key's default."""
        for section in parser.sections():
            known = {key for s, key, _, _ in _KEYS if s == section}
            if not known:
                raise ConfigError(f"unknown config section [{section}]")
            unknown = set(parser[section]) - known
            if unknown:
                raise ConfigError(f"unknown key(s) in [{section}]: "
                                  f"{', '.join(sorted(unknown))}")
        values = {}
        for section, key, name, parse in _KEYS:
            raw = parser.get(section, key, fallback="").strip()
            if raw:
                try:
                    values[name] = parse(raw)
                except ValueError as exc:
                    raise ConfigError(
                        f"bad value for {section}.{key}: {raw!r}") from exc
        cfg = cls(**values)
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
        if self.parallel < 0:
            raise ConfigError("run.parallel must be >= 0 (0 = all cores)")
        if not self.gap_tolerance >= 0:
            raise ConfigError("run.gap_tolerance must be >= 0")
        try:
            family = self.family()
        except OSError as exc:
            raise ConfigError(f"cannot read family file: {exc}") from exc
        except KeyError as exc:
            raise ConfigError(f"family file lacks key {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"bad family: {exc}") from exc
        try:
            mc.monitor_indices(self.times, self.n_steps)
            mc._check_grid(family, self.n_paths, self.n_steps)
        except ValueError as exc:
            raise ConfigError(f"{exc} of mc.n_steps = {self.n_steps}") from exc

    def emit(self) -> str:
        """The config as INI text; a key whose default is empty is left out
        while it keeps that default."""
        defaults, lines, current = type(self)(), [], None
        for section, key, name, parse in _KEYS:
            value, default = getattr(self, name), getattr(defaults, name)
            if value == default == "":
                continue
            if section != current:
                lines += ["", f"[{section}]"]
                current = section
            text = (",".join(map(repr, value)) if parse is _times
                    else repr(value) if parse is float else str(value))
            lines.append(f"{key} = {text}")
        return "\n".join(lines[1:]) + "\n"

    def fingerprint(self) -> str:
        numeric = {}
        for section, _, name, _ in _KEYS:
            if section != "run":
                numeric.setdefault(section, []).append(getattr(self, name))
        blob = json.dumps(numeric, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _odd(n: int) -> int:
    return n if n % 2 else n + 1


def _refine_grids(cfg: RunConfig) -> list:
    """price's refinement chain: grids of about a quarter and a half of
    cfg.n_x's cells, snapped up to odd node counts of at least 5, then
    cfg.n_x.  An n_x without a dx-halving chain is a config error."""
    counts = (_odd(max(5, (cfg.n_x - 1) // 4 + 1)),
              _odd(max(5, (cfg.n_x - 1) // 2 + 1)), cfg.n_x)
    grids = [SpaceTimeGrid(n, cfg.x_max, cfg.cfl_fraction) for n in counts]
    try:
        check_halving(grids)
    except ValueError as exc:
        raise ConfigError(
            f"grid.n_x = {cfg.n_x} gives price no refinement chain "
            f"({exc}: n_x {', '.join(map(str, counts))}); every n_x >= 17 "
            "with n_x - 1 a multiple of 8 gives one") from exc
    return grids


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
    grids = _refine_grids(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    band, payoff, grid = cfg.band(), cfg.payoff(), cfg.grid()
    try:
        value = g_expectation(payoff, band, grid)
        if not np.isfinite(value):
            raise NumericalError("solved value is not finite")
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
    try:
        field = conditional_expectation(payoff, band, grid)
        gap = rep.gmartingale_gap(payoff, band, field, family, cfg.n_paths,
                                  cfg.n_steps, seed, degree=cfg.degree())
        argmax = next(c for c in family if c.label == gap.argmax_label)
        # one row at least, for the csv header
        head = rep.extract(payoff, band, field, mc.simulate(
            argmax, min(max(cfg.csv_paths, 1), cfg.n_paths), cfg.n_steps,
            seed))
        sym = rep.symmetry_evidence(payoff, band, field, family, 1e-8,
                                    gap.symmetry)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    best = next(r for r in gap.rows if r.label == gap.argmax_label)
    head.to_csv(out / "decomposition.csv", max_paths=cfg.csv_paths,
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
    try:
        reports = inequalities.run_suites(
            suites, payoff, band, grid, family, cfg.n_paths, cfg.n_steps,
            cfg.seed)
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
        cfg.validate()      # the overrides too
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
