"""Monte Carlo under the mutually singular measure family of a volatility band.

Each admissible measure is realized in strong form: a deterministic
piecewise-constant control alpha(t) inside the (floored) band drives

    X_{k+1} = X_k + sqrt(alpha(t_k)) dW_k,

so the realized quadratic variation is alpha(t) dt exactly by construction.
Suprema over the uncountable family are approximated by finite control
families; every estimate here is therefore a statistical LOWER bound of the
corresponding band value, and callers pair it with the PDE reference.

Randomness contract: path draws come in fixed 4096-path blocks seeded by
(seed, block index), so a path's increments are a pure function of
(seed, path index).  Every family estimate is a fold of a `sweep`: each
block is drawn once and shared by every control, and partials merge in
block order, so results do not depend on thread count and memory not on
path count.  Estimates on one seed share one sweep (`sweep_each`).
"""

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .nonlinearity import VolBand, as_symmetric, sym_floor
from .payoff import PayoffSpec

PATH_BLOCK = 4096


def derive_seed(seed: int, *tags) -> int:
    """Stable sub-seed for an estimator role (keeps independent quantities on
    distinct noise)."""
    text = "gexpect:" + ":".join(str(t) for t in tags) + f":{int(seed)}"
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(block))))


def iter_increment_blocks(seed: int, n_paths: int, n_steps: int, dt: float,
                          d: int = 1):
    """Yield (lo, hi, dW) blocks of N(0, dt) increments.

    Full blocks are always drawn before truncation, so path i's numbers do
    not depend on n_paths.
    """
    scale = math.sqrt(dt)
    n_blocks = (n_paths + PATH_BLOCK - 1) // PATH_BLOCK
    for b in range(n_blocks):
        lo = b * PATH_BLOCK
        hi = min(lo + PATH_BLOCK, n_paths)
        shape = (PATH_BLOCK, n_steps) if d == 1 else (PATH_BLOCK, n_steps, d)
        dw = _block_rng(seed, b).standard_normal(shape)
        dw *= scale
        yield lo, hi, dw[:hi - lo]


class ControlProcess:
    """Piecewise-constant volatility control on [0, 1].

    breakpoints: 0 = s_0 < ... < s_m = 1; values: per-piece diffusion, scalar
    (d=1) or (d, d) symmetric matrices; floor: the strictly positive constant
    c making the effective lower bound max(c I, a_lower).
    """

    def __init__(self, breakpoints, values, floor: float = 1e-6, label: str = ""):
        self.breakpoints = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values, dtype=float)
        if vals.ndim == 1:
            self.values = vals
            self.d = 1
        elif vals.ndim == 3 and vals.shape[1] == vals.shape[2]:
            self.values = np.stack([as_symmetric(v) for v in vals])
            self.d = vals.shape[1]
        else:
            raise ValueError("values must be (m,) scalars or (m, d, d) matrices")
        if floor <= 0:
            raise ValueError("floor must be strictly positive")
        self.floor = float(floor)
        self.label = label or f"control-{len(self.breakpoints) - 1}pc"
        bp = self.breakpoints
        if bp.ndim != 1 or len(bp) != len(self.values) + 1:
            raise ValueError("need one more breakpoint than control pieces")
        if abs(bp[0]) > 1e-12 or abs(bp[-1] - 1.0) > 1e-12:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")

    @classmethod
    def constant(cls, value, floor: float = 1e-6, label: str = ""):
        value = np.asarray(value, dtype=float)
        vals = value[None] if value.ndim else np.array([float(value)])
        if not label:
            label = (f"const-{float(value):.6g}" if value.ndim == 0
                     else "const-matrix")
        return cls([0.0, 1.0], vals, floor=floor, label=label)

    def validate(self, band: VolBand):
        if self.d != band.d:
            raise ValueError("control dimension does not match the band")
        if self.d == 1:
            lo = max(band.lower_scalar, self.floor)
            up = band.upper_scalar
            if np.any(self.values < lo - 1e-12) or np.any(self.values > up + 1e-12):
                raise ValueError(
                    f"control {self.label!r} leaves the floored band "
                    f"[{lo}, {up}]")
        else:
            lifted = sym_floor(band.a_lower, self.floor)
            for v in self.values:
                if np.linalg.eigvalsh(v - lifted).min() < -1e-10:
                    raise ValueError(f"control {self.label!r} below floored bound")
                if np.linalg.eigvalsh(band.a_upper - v).min() < -1e-10:
                    raise ValueError(f"control {self.label!r} above upper bound")

    def step_values(self, step_times) -> np.ndarray:
        """Control value at each (left-endpoint) step time."""
        idx = np.searchsorted(self.breakpoints, step_times, side="right") - 1
        idx = np.clip(idx, 0, len(self.values) - 1)
        return self.values[idx]

    def __repr__(self):
        return f"ControlProcess({self.label!r})"


@dataclass
class ControlFamily:
    """Finite stand-in for the band's measure family (shared floor)."""

    band: VolBand
    controls: list
    floor: float = 1e-6

    def __post_init__(self):
        if not self.controls:
            raise ValueError("control family must be non-empty")
        labels = [c.label for c in self.controls]
        if len(set(labels)) != len(labels):
            raise ValueError("control labels must be unique")
        for c in self.controls:
            if abs(c.floor - self.floor) > 0:
                raise ValueError("all controls must share the family floor")
            c.validate(self.band)

    def __iter__(self):
        return iter(self.controls)

    def __len__(self):
        return len(self.controls)

    @classmethod
    def constants(cls, band: VolBand, count: int, floor: float = 1e-6):
        """Evenly spaced constant controls spanning the floored band (d=1)."""
        lo = max(band.lower_scalar, floor)
        up = band.upper_scalar
        levels = np.linspace(lo, up, count) if count > 1 else np.array([up])
        controls = [ControlProcess.constant(v, floor=floor,
                                            label=f"const-{v:.6g}")
                    for v in levels]
        return cls(band, controls, floor)

    @classmethod
    def with_random_piecewise(cls, band: VolBand, count: int, pieces: int,
                              seed: int, base: "ControlFamily | None" = None,
                              floor: float = 1e-6):
        """Append randomly sampled piecewise-constant controls (fixed once
        drawn; not adaptive)."""
        floor = base.floor if base is not None else floor
        lo = max(band.lower_scalar, floor)
        up = band.upper_scalar
        rng = np.random.default_rng(
            np.random.SeedSequence((int(seed), 0x9C0FFEE)))
        controls = list(base.controls) if base is not None else []
        bp = np.linspace(0.0, 1.0, pieces + 1)
        for j in range(count):
            vals = rng.uniform(lo, up, size=pieces)
            controls.append(ControlProcess(
                bp, vals, floor=floor, label=f"random-{j}"))
        return cls(band, controls, floor)


def write_family(family: ControlFamily, path):
    """Flat key-value description: breakpoints and values per control."""
    lines = [f"floor = {family.floor!r}", f"count = {len(family)}"]
    for i, c in enumerate(family, start=1):
        lines.append(f"control.{i}.label = {c.label}")
        lines.append(f"control.{i}.breakpoints = "
                     + ",".join(repr(float(b)) for b in c.breakpoints))
        if c.d != 1:
            raise ValueError("family files support scalar controls")
        lines.append(f"control.{i}.values = "
                     + ",".join(repr(float(v)) for v in c.values))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_family(path, band: VolBand) -> ControlFamily:
    kv = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            kv[key.strip()] = val.strip()
    floor = float(kv.pop("floor"))
    count = int(kv.pop("count"))
    controls = []
    for i in range(1, count + 1):
        label = kv.pop(f"control.{i}.label")
        bp = [float(v) for v in kv.pop(f"control.{i}.breakpoints").split(",")]
        vals = [float(v) for v in kv.pop(f"control.{i}.values").split(",")]
        controls.append(ControlProcess(bp, vals, floor=floor, label=label))
    if kv:
        raise ValueError(f"unknown keys in family file: {sorted(kv)}")
    return ControlFamily(band, controls, floor)


@dataclass
class PathBundle:
    """Simulated paths of one control: increments, states, analytic QV.

    alpha/qv are deterministic functions of time for piecewise-constant
    controls and are stored once (not per path); qv increments equal
    alpha * dt exactly by construction.
    """

    control: ControlProcess
    seed: int
    times: np.ndarray        # (M+1,)
    increments: np.ndarray   # (N, M) driving Brownian increments
    paths: np.ndarray        # (N, M+1)
    alpha: np.ndarray        # (M,) per-step control value (d=1)
    qv: np.ndarray           # (M+1,) realized quadratic variation

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def n_steps(self) -> int:
        return self.increments.shape[1]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def monitor_indices(self, monitor_times) -> np.ndarray:
        m = self.n_steps
        idx = np.round(np.asarray(monitor_times, dtype=float) * m).astype(int)
        if np.abs(np.asarray(monitor_times) * m - idx).max() > 1e-9 * m:
            raise ValueError("monitoring times must lie on the path grid")
        return idx

    def monitor_values(self, monitor_times) -> np.ndarray:
        return self.paths[:, self.monitor_indices(monitor_times)]

    def history(self, payoff: PayoffSpec):
        """The values at payoff's monitoring dates before the last, one row
        per path (a field read's history), or None for a single date."""
        if payoff.n == 1:
            return None
        return self.monitor_values(payoff.times[:-1])

    def to_csv(self, path, max_paths: int | None = None):
        import csv

        if self.paths.ndim != 2:
            raise ValueError("CSV export is d=1 only")
        n = self.n_paths if max_paths is None else min(max_paths, self.n_paths)
        alpha_t = np.append(self.alpha, self.alpha[-1])
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["path_id", "t", "X", "qv", "alpha"])
            for p in range(n):
                for k, t in enumerate(self.times):
                    w.writerow([p, repr(float(t)), repr(float(self.paths[p, k])),
                                repr(float(self.qv[k])), repr(float(alpha_t[k]))])


def _check_grid(controls, n_paths: int, n_steps: int):
    if n_paths < 1 or n_steps < 1:
        raise ValueError("need n_paths >= 1 and n_steps >= 1")
    for c in controls:
        bp = np.round(c.breakpoints * n_steps)
        if np.abs(c.breakpoints * n_steps - bp).max() > 1e-9 * n_steps:
            raise ValueError(f"control {c.label!r} breakpoints off the grid")


def _bundle(control: ControlProcess, seed: int, dW: np.ndarray) -> PathBundle:
    """Paths of one control driven by increments dW, (N, M) or (N, M, d)."""
    n_paths, n_steps = dW.shape[:2]
    times = np.linspace(0.0, 1.0, n_steps + 1)
    alpha = control.step_values(times[:-1])       # (M,) or (M, d, d)
    paths = np.empty((n_paths, n_steps + 1) + dW.shape[2:])
    paths[:, 0] = 0.0
    if control.d == 1:
        np.multiply(np.sqrt(alpha), dW, out=paths[:, 1:])
    else:
        w, v = np.linalg.eigh(alpha)
        root = v * np.sqrt(np.maximum(w, 0.0))[:, None, :]
        paths[:, 1:] = np.einsum("kij,nkj->nki", root @ v.swapaxes(1, 2), dW)
    np.cumsum(paths[:, 1:], axis=1, out=paths[:, 1:])
    qv = np.zeros((n_steps + 1,) + alpha.shape[1:])
    np.cumsum(alpha * (1.0 / n_steps), axis=0, out=qv[1:])
    return PathBundle(control, seed, times, dW, paths, alpha, qv)


def simulate(control: ControlProcess, n_paths: int, n_steps: int,
             seed: int, band: VolBand | None = None) -> PathBundle:
    """Materialize a full bundle (`sweep` folds large runs block by block)."""
    if band is not None:
        control.validate(band)
    _check_grid([control], n_paths, n_steps)
    dW = np.concatenate([blk for _, _, blk in iter_increment_blocks(
        seed, n_paths, n_steps, 1.0 / n_steps, control.d)])
    return _bundle(control, seed, dW)


@dataclass(frozen=True)
class Moments:
    """Count, mean, centred sum of squares, min and max of samples; blocks
    merge pairwise (Chan, Golub & LeVeque), one block is numpy's exactly."""

    n: int = 0
    mean: float = math.nan
    m2: float = 0.0
    lo: float = math.inf
    hi: float = -math.inf

    @classmethod
    def of(cls, samples) -> "Moments":
        x = np.ravel(samples)
        if not x.size:
            return cls()
        d = x - x.mean()
        return cls(x.size, float(x.mean()), float(np.sum(d * d)),
                   float(x.min()), float(x.max()))

    def merge(self, other: "Moments") -> "Moments":
        if not (self.n and other.n):
            return other if other.n else self
        n = self.n + other.n
        delta = other.mean - self.mean
        return Moments(n, self.mean + delta * other.n / n,
                       self.m2 + other.m2 + delta * delta * self.n * other.n / n,
                       min(self.lo, other.lo), max(self.hi, other.hi))

    @property
    def stderr(self) -> float:
        """Standard error of the mean: std(ddof=1) / sqrt(n)."""
        return math.sqrt(self.m2 / max(self.n - 1, 1)) / math.sqrt(self.n)

    def root(self, p: float):
        """mean^(1/p) with its delta-method standard error."""
        if self.mean <= 0:
            return 0.0, self.stderr
        return (self.mean ** (1.0 / p),
                self.stderr / (p * self.mean ** (1.0 - 1.0 / p)))


class PathFold:
    """Per-path running reduction over column slabs (N, b): with np.maximum
    each path's max over the slabs' columns, with np.minimum its min, with
    np.add the running sum of its per-slab sums.  `value` is (N,) once a
    slab with a column has been added."""

    def __init__(self, ufunc):
        self.ufunc = ufunc
        self.value = None

    def add(self, columns):
        if not columns.shape[1]:
            return
        part = self.ufunc.reduce(columns, axis=1)
        self.value = (part if self.value is None
                      else self.ufunc(self.value, part, out=self.value))


def energy(h, alpha, dt: float) -> np.ndarray:
    """alpha H^2 dt per step, the terms of the left-Riemann int alpha H^2 dt:
    h (N, b) at the left ends of b steps under controls alpha (b,)."""
    return (alpha * h ** 2) * dt


def _merge(a, b):
    """Merge two partials, or two equally nested tuples of partials."""
    if isinstance(a, tuple):
        return tuple(_merge(x, y) for x, y in zip(a, b, strict=True))
    return a.merge(b)


def sweep(family: ControlFamily, n_paths: int, n_steps: int, seed: int,
          fold, degree: int = 1) -> list:
    """Fold every control over common path blocks: each block is drawn once,
    each control's PathBundle is built from it as `simulate` builds it, and
    `fold(control_index, bundle)` returns a tuple of partials (objects with
    a `merge` method, or tuples of them).  They merge in block order, so the
    per-control results are bit-identical for any `degree` (blocks folded
    at once)."""
    _check_grid(family, n_paths, n_steps)

    def fold_block(block):
        return [fold(j, _bundle(c, seed, block[2]))
                for j, c in enumerate(family)]

    blocks = iter_increment_blocks(seed, n_paths, n_steps, 1.0 / n_steps,
                                   family.band.d)
    totals = None
    with ThreadPoolExecutor(max_workers=max(degree, 1)) as pool:
        run = pool.map if degree > 1 else map
        while batch := list(islice(blocks, max(degree, 1))):
            for partials in run(fold_block, batch):
                totals = partials if totals is None else [
                    _merge(t, p) for t, p in zip(totals, partials)]
    return totals


def sweep_each(family: ControlFamily, n_paths: int, n_steps: int, seed: int,
               folds, degree: int = 1) -> list:
    """Several folds on one seed in one sweep: each block is drawn and each
    control's bundle built once for all of them.  Returns, per fold, the
    list `sweep` would return for that fold alone, bit for bit."""
    stats = sweep(family, n_paths, n_steps, seed,
                  lambda j, bundle: tuple(f(j, bundle) for f in folds), degree)
    return [list(per_fold) for per_fold in zip(*stats)]


def sup_grid(monitor_times, n_steps: int, t_nodes: int = 17) -> np.ndarray:
    """Step indices of a time sup: t_nodes even nodes plus the monitoring
    dates (a lower bound of the continuous-time sup)."""
    return np.unique(np.concatenate([
        np.round(np.linspace(0, n_steps, t_nodes)).astype(int),
        np.round(np.asarray(monitor_times) * n_steps).astype(int)]))


@dataclass
class DualRow:
    label: str
    mean: float
    stderr: float
    n_paths: int


@dataclass
class DualResult:
    value: float
    stderr: float
    argmax: ControlProcess
    table: list


def dual_value(payoff: PayoffSpec, family: ControlFamily, n_paths: int,
               n_steps: int, seed: int) -> DualResult:
    """Max over the family of the plain Monte Carlo payoff mean.

    A statistical lower bound of the band value; increments are drawn once
    per block and shared by every control (common random numbers).
    """
    if family.band.d != 1:
        raise ValueError("dual values of cylinder payoffs are d=1 only")

    stats = sweep(family, n_paths, n_steps, seed, lambda _, bundle: (
        Moments.of(payoff.evaluate(bundle.monitor_values(payoff.times))),))
    table = [DualRow(c.label, m.mean, m.stderr, n_paths)
             for c, (m,) in zip(family, stats)]
    best = max(range(len(table)), key=lambda j: table[j].mean)
    return DualResult(table[best].mean, table[best].stderr,
                      family.controls[best], table)


def conditional_supremum(payoff: PayoffSpec, field, bundle: PathBundle,
                         t: float):
    """Worst-case conditional value along each path at time t.

    Reads the solved field (the dual/dynamic-programming identity justifies
    substituting it for the essential supremum); at t = 1 the payoff is read
    off the path directly.  Returns (values, clamped) per path.
    """
    times = bundle.times
    k = int(np.round(t * bundle.n_steps))
    if abs(times[k] - t) > 1e-9:
        raise ValueError("t must lie on the bundle grid")
    if k == bundle.n_steps:
        return payoff.evaluate(bundle.monitor_values(payoff.times)), \
            np.zeros(bundle.n_paths, dtype=bool)
    values, clamped = field.read_along(times[k:k + 1],
                                       bundle.paths[:, k:k + 1],
                                       bundle.history(payoff))
    return values[:, 0], clamped


@dataclass
class NormEstimate:
    value: float
    stderr: float
    per_control: list   # (label, value, stderr)


def lp_norm_detail(payoff: PayoffSpec, p: float, family: ControlFamily,
                   field, n_paths: int, n_steps: int, seed: int,
                   t_nodes: int = 17) -> NormEstimate:
    """sup over the family of E[ sup_t (conditional |payoff|)^p ]^(1/p).

    `field` must be solved for payoff.absolute(); the time sup runs over a
    t_nodes-point grid joined with the monitoring dates (lower bound of the
    continuous-time sup, as documented).  Per block, the grid times before
    t = 1 are read in one path-grid read, and t = 1 evaluates the payoff,
    as conditional_supremum does.  One `sweep` of `lp_norm_fold`, finished
    by `norm_estimate`; norms on a shared seed fold in one `sweep_each`.
    """
    fold = lp_norm_fold(payoff, p, field, n_steps, t_nodes)
    stats = sweep(family, n_paths, n_steps, seed, fold)
    return norm_estimate(family, stats, p)


def lp_norm_fold(payoff: PayoffSpec, p: float, field, n_steps: int,
                 t_nodes: int = 17):
    """The per-block fold of `lp_norm_detail`: one Moments of
    sup_t |conditional value|^p per control."""
    if p < 1:
        raise ValueError("p must be >= 1")
    abs_payoff = payoff.absolute()
    if field.payoff is not None and field.payoff.expr != abs_payoff.expr:
        raise ValueError("field must be solved for the absolute payoff")
    grid_idx = sup_grid(payoff.times, n_steps, t_nodes)
    inner = grid_idx[grid_idx < n_steps]   # t = 1, the last date, reads xi

    def fold(_, bundle):
        reads, _ = field.read_along(bundle.times[inner],
                                    bundle.paths[:, inner],
                                    bundle.history(abs_payoff))
        sup = np.abs(reads[:, 0]).reshape(bundle.n_paths, len(inner)).max(1)
        xi = abs_payoff.evaluate(bundle.monitor_values(abs_payoff.times))
        return Moments.of(np.maximum(sup, np.abs(xi)) ** p),

    return fold


def norm_estimate(family: ControlFamily, stats, p: float) -> NormEstimate:
    """The family sup of merged `lp_norm_fold` partials."""
    rows = [(c.label, *m.root(p)) for c, (m,) in zip(family, stats)]
    return NormEstimate(*max(rows, key=lambda r: r[1])[1:], rows)


def lp_norm(payoff, p, family, field, n_paths, n_steps, seed,
            t_nodes: int = 17) -> float:
    return lp_norm_detail(payoff, p, family, field, n_paths, n_steps, seed,
                          t_nodes).value


@dataclass
class QvReport:
    max_abs_residual: float
    rms_terminal: float
    dt: float


def qv_identity_check(bundle: PathBundle) -> QvReport:
    """Analytic QV against its pathwise reconstruction X^2 - 2∫X dX.

    The discrete stochastic integral uses left endpoints, so the
    reconstruction telescopes to the realized sum of squared increments and
    the residual measures realized-vs-analytic QV (O(dt^1/2) in RMS).
    """
    if bundle.paths.ndim != 2:
        raise ValueError("qv identity check is d=1 only")
    dx = np.diff(bundle.paths, axis=1)
    ito = np.cumsum(bundle.paths[:, :-1] * dx, axis=1)
    recon = bundle.paths[:, 1:] ** 2 - 2.0 * ito
    resid = bundle.qv[1:][None, :] - recon
    return QvReport(float(np.abs(resid).max()),
                    float(np.sqrt(np.mean(resid[:, -1] ** 2))),
                    bundle.dt)
