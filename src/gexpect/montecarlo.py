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
block is drawn once and turned into its Brownian path W by one cumulative
sum in place, every control's `PathBundle` on the block shares that one
W and builds the states X = int sqrt(alpha) dW a consumer reads from it on
demand, and partials merge in block order, so results do not depend on
thread count and memory not on path count.  Estimates on one seed share
one sweep (`sweep_each`).
"""

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import NumericalError
from .nonlinearity import VolBand, as_symmetric, sym_floor
from .payoff import Expr, PayoffSpec
from .pde import MEMORY_LIMIT, SpaceTimeGrid, _as_slice

PATH_BLOCK = 4096
FLOOR = 1e-6      # a family's default floor, the lift of a degenerate a_lower


def derive_seed(seed: int, *tags) -> int:
    """Stable sub-seed for an estimator role (keeps independent quantities on
    distinct noise)."""
    text = "gexpect:" + ":".join(str(t) for t in tags) + f":{int(seed)}"
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(block))))


def iter_increment_blocks(seed: int, n_paths: int, n_steps: int, d: int = 1):
    """Yield (lo, hi, dW) blocks of N(0, dt) increments, dt = 1 / n_steps.

    Full blocks are always drawn before truncation, so path i's numbers do
    not depend on n_paths.  The generator drops its own reference to a
    block once the block is yielded, so it holds none while it draws the
    next one.
    """
    scale = math.sqrt(1.0 / n_steps)
    n_blocks = (n_paths + PATH_BLOCK - 1) // PATH_BLOCK
    for b in range(n_blocks):
        lo = b * PATH_BLOCK
        hi = min(lo + PATH_BLOCK, n_paths)
        shape = (PATH_BLOCK, n_steps) if d == 1 else (PATH_BLOCK, n_steps, d)
        dw = _block_rng(seed, b).standard_normal(shape)
        dw *= scale
        yield lo, hi, dw[:hi - lo]
        del dw


class ControlProcess:
    """Piecewise-constant volatility control on [0, 1].

    breakpoints: 0 = s_0 < ... < s_m = 1; values: per-piece diffusion, scalar
    (d=1) or (d, d) symmetric matrices.  The floor is the family's.
    """

    def __init__(self, breakpoints, values, label: str = ""):
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
        self.label = label or f"control-{len(self.breakpoints) - 1}pc"
        bp = self.breakpoints
        if bp.ndim != 1 or len(bp) != len(self.values) + 1:
            raise ValueError("need one more breakpoint than control pieces")
        if abs(bp[0]) > 1e-12 or abs(bp[-1] - 1.0) > 1e-12:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")

    @classmethod
    def constant(cls, value, label: str = ""):
        value = np.asarray(value, dtype=float)
        vals = value[None] if value.ndim else np.array([float(value)])
        if not label:
            label = (f"const-{float(value):.6g}" if value.ndim == 0
                     else "const-matrix")
        return cls([0.0, 1.0], vals, label=label)

    def validate(self, band: VolBand, floor: float):
        if self.d != band.d:
            raise ValueError("control dimension does not match the band")
        if self.d == 1:
            lo = max(band.lower_scalar, floor)
            up = band.upper_scalar
            if np.any(self.values < lo - 1e-12) or np.any(self.values > up + 1e-12):
                raise ValueError(
                    f"control {self.label!r} leaves the floored band "
                    f"[{lo}, {up}]")
        else:
            lifted = sym_floor(band.a_lower, floor)
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
    """Finite stand-in for the band's measure family; every control lies in
    the band with a_lower lifted to max(floor I, a_lower), floor > 0."""

    band: VolBand
    controls: list
    floor: float = FLOOR

    def __post_init__(self):
        if not self.controls:
            raise ValueError("control family must be non-empty")
        labels = [c.label for c in self.controls]
        if len(set(labels)) != len(labels):
            raise ValueError("control labels must be unique")
        if not self.floor > 0:
            raise ValueError("floor must be strictly positive")
        for c in self.controls:
            c.validate(self.band, self.floor)

    def __iter__(self):
        return iter(self.controls)

    def __len__(self):
        return len(self.controls)

    @classmethod
    def constants(cls, band: VolBand, count: int, floor: float = FLOOR):
        """Evenly spaced constant controls spanning the floored band (d=1)."""
        lo = max(band.lower_scalar, floor)
        up = band.upper_scalar
        levels = np.linspace(lo, up, count) if count > 1 else np.array([up])
        controls = [ControlProcess.constant(v) for v in levels]
        return cls(band, controls, floor)

    @classmethod
    def with_random_piecewise(cls, band: VolBand, count: int, pieces: int,
                              seed: int, base: "ControlFamily | None" = None,
                              floor: float = FLOOR):
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
            controls.append(ControlProcess(bp, vals, label=f"random-{j}"))
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
        controls.append(ControlProcess(bp, vals, label=label))
    if kv:
        raise ValueError(f"unknown keys in family file: {sorted(kv)}")
    return ControlFamily(band, controls, floor)


def _roots(values) -> np.ndarray:
    """sqrt of each control value: scalars, or the symmetric root of each
    (d, d) matrix."""
    if values.ndim == 1:
        return np.sqrt(values)
    w, v = np.linalg.eigh(values)
    return (v * np.sqrt(np.maximum(w, 0.0))[:, None, :]) @ v.swapaxes(1, 2)


@dataclass
class PathBundle:
    """Paths of one control, built on demand from a Brownian path.

    `brownian` holds W at steps 1..M of every path (W_0 = 0 is not stored);
    in a sweep it is the block's one array, shared by every control's
    bundle.  The states are not stored: `states` builds the columns a
    consumer asks for.  On a piece of the control (a run of steps with one
    value alpha_p, first step b) that holds step k - 1,

        X_k = sqrt(alpha_p) W_k + c_p,   c_p = X_b - sqrt(alpha_p) W_b,

    one multiply for a constant control (c_0 = 0) and a matrix root for
    d > 1; the offsets c_p are built once per bundle.  alpha is stored
    once (not per path); step k's quadratic variation is alpha[k] * dt.
    """

    control: ControlProcess
    times: np.ndarray        # (M+1,)
    brownian: np.ndarray     # (N, M) or (N, M, d): W at steps 1..M
    alpha: np.ndarray        # (M,) or (M, d, d) per-step control value

    def __post_init__(self):
        flat = self.alpha.reshape(len(self.alpha), -1)
        change = np.flatnonzero((flat[1:] != flat[:-1]).any(axis=1)) + 1
        self._starts = np.concatenate(([0], change))
        self._roots = _roots(self.alpha[self._starts])
        self._offsets = None

    @property
    def n_paths(self) -> int:
        return self.brownian.shape[0]

    @property
    def n_steps(self) -> int:
        return self.brownian.shape[1]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def states(self, cols=slice(None), rows=slice(None)) -> np.ndarray:
        """X at columns cols (indices or a slice of 0..M) of the paths in
        the slice rows: (n, len(cols)) or (n, len(cols), d).  The default
        builds every state."""
        cols = np.arange(self.n_steps + 1)[cols]
        piece = np.searchsorted(self._starts, cols - 1, side="right") - 1
        np.maximum(piece, 0, out=piece)
        x = self._scale(self._brownian_at(cols, rows), self._roots[piece])
        if len(self._starts) > 1:
            x += self._piece_offsets()[rows][:, piece]
        return x

    def _brownian_at(self, cols, rows) -> np.ndarray:
        """W at columns cols of the paths rows, a new C-ordered array (the
        order field reads want)."""
        w = self.brownian[rows]
        run = _as_slice(cols)
        if isinstance(run, slice):
            # one run of columns, as a slab or a row block reads: a copy
            # of a slice, several times faster than a gather
            x = np.empty((len(w), len(cols)) + w.shape[2:])
            lead = int(run.start == 0)
            x[:, :lead] = 0.0
            x[:, lead:] = w[:, run.start + lead - 1:run.stop - 1]
            return x
        x = np.take(w, cols - 1, axis=1)       # column 0 wraps to W_M
        x[:, cols == 0] = 0.0
        return x

    def _scale(self, w, roots) -> np.ndarray:
        """Each column of w times its root (a scalar, or a matrix for d > 1)."""
        if self.control.d == 1:
            w *= roots
            return w
        return np.einsum("cij,ncj->nci", roots, w)

    def _piece_offsets(self) -> np.ndarray:
        """c_p of every piece and path: X is continuous at each piece start
        b_p, so c_p = c_{p-1} + (sqrt(alpha_{p-1}) - sqrt(alpha_p)) W_{b_p}."""
        if self._offsets is None:
            w = self._brownian_at(self._starts, slice(None))
            w[:, 1:] = self._scale(w[:, 1:], self._roots[:-1] - self._roots[1:])
            self._offsets = np.cumsum(w, axis=1, out=w)
        return self._offsets

    def monitor_values(self, monitor_times) -> np.ndarray:
        return self.states(monitor_indices(monitor_times, self.n_steps))

    def history(self, payoff: PayoffSpec):
        """The values at payoff's monitoring dates before the last, one row
        per path (a field read's history), or None for a single date."""
        if payoff.n == 1:
            return None
        return self.monitor_values(payoff.times[:-1])


def monitor_indices(monitor_times, n_steps: int) -> np.ndarray:
    """Step indices of monitoring times, which must lie on the path grid."""
    scaled = np.asarray(monitor_times, dtype=float) * n_steps
    idx = np.round(scaled).astype(int)
    if np.abs(scaled - idx).max() > 1e-9 * n_steps:
        raise ValueError("monitoring times must lie on the path grid")
    return idx


def _check_grid(controls, n_paths: int, n_steps: int):
    if n_paths < 1 or n_steps < 1:
        raise ValueError("need n_paths >= 1 and n_steps >= 1")
    for c in controls:
        bp = np.round(c.breakpoints * n_steps)
        if np.abs(c.breakpoints * n_steps - bp).max() > 1e-9 * n_steps:
            raise ValueError(f"control {c.label!r} breakpoints off the grid")


def _bundle(control: ControlProcess, brownian: np.ndarray) -> PathBundle:
    """The bundle of one control on Brownian paths W (N, M) or (N, M, d)."""
    n_steps = brownian.shape[1]
    times = np.linspace(0.0, 1.0, n_steps + 1)
    return PathBundle(control, times, brownian,
                      control.step_values(times[:-1]))


def simulate(control: ControlProcess, n_paths: int, n_steps: int,
             seed: int) -> PathBundle:
    """Materialize a full bundle (`sweep` folds large runs block by block),
    on the Brownian paths a sweep builds from the same blocks.  The band
    check of a control is its `ControlFamily`'s."""
    _check_grid([control], n_paths, n_steps)
    w = np.empty((n_paths, n_steps) + ((control.d,) if control.d > 1 else ()))
    for lo, hi, block in iter_increment_blocks(seed, n_paths, n_steps,
                                               control.d):
        w[lo:hi] = block
        del block       # before the next draw: one block is held at a time
    np.cumsum(w, axis=1, out=w)
    return _bundle(control, w)


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
    """Fold every control over common path blocks: each block is drawn
    once and turned into its Brownian path by one cumulative sum in place,
    each control's PathBundle is built on that path as `simulate` builds
    it, and `fold(bundle)` returns a tuple of partials
    (objects with a `merge` method, or tuples of them).  They merge in
    block order, so the per-control results are bit-identical for any
    `degree` (blocks folded at once).

    Each block in flight, at most `degree` and no more than the sweep has,
    holds one block-sized array, PATH_BLOCK * n_steps * d doubles; a sweep
    whose blocks would pass pde.MEMORY_LIMIT raises NumericalError before
    the first block is drawn.  A batch of blocks is released before the
    next one is drawn, so the blocks in flight are the only ones held."""
    _check_grid(family, n_paths, n_steps)
    in_flight = min(max(degree, 1), -(-n_paths // PATH_BLOCK))
    need = in_flight * 8 * PATH_BLOCK * n_steps * family.band.d
    if need > MEMORY_LIMIT:
        raise NumericalError(
            f"path blocks would need ~{need / 1e9:.2f} GB "
            f"(> limit {MEMORY_LIMIT / 1e9:.2f} GB) for {in_flight} block(s) "
            f"of {PATH_BLOCK} paths x {n_steps} steps; lower mc.n_steps"
            + (" or run.parallel" if in_flight > 1 else ""))

    def fold_block(block):
        w = block[2]
        np.cumsum(w, axis=1, out=w)
        return [fold(_bundle(c, w)) for c in family]

    blocks = iter_increment_blocks(seed, n_paths, n_steps, family.band.d)
    totals = None
    with ThreadPoolExecutor(max_workers=in_flight) as pool:
        run = pool.map if in_flight > 1 else map
        # a batch asks for `degree` blocks and gets at most in_flight; on
        # a one-block sweep asking for in_flight only kept the generator
        # open across the fold, and verify-all's peak RSS rose 94 -> 134 MB
        while batch := list(islice(blocks, max(degree, 1))):
            for partials in run(fold_block, batch):
                totals = partials if totals is None else [
                    _merge(t, p) for t, p in zip(totals, partials)]
            del batch       # before the next draw
    return totals


def sweep_each(family: ControlFamily, n_paths: int, n_steps: int, seed: int,
               folds) -> list:
    """Several folds on one seed in one sweep: each block is drawn and each
    control's bundle built once for all of them.  Returns, per fold, the
    list `sweep` would return for that fold alone, bit for bit."""
    stats = sweep(family, n_paths, n_steps, seed,
                  lambda bundle: tuple(f(bundle) for f in folds))
    return [list(per_fold) for per_fold in zip(*stats)]


def sup_grid(monitor_times, n_steps: int) -> np.ndarray:
    """Step indices of a time sup: 17 even nodes plus the monitoring
    dates (a lower bound of the continuous-time sup)."""
    return np.unique(np.concatenate([
        np.round(np.linspace(0, n_steps, 17)).astype(int),
        np.round(np.asarray(monitor_times) * n_steps).astype(int)]))


def sup_times(monitor_times, n_steps: int) -> np.ndarray:
    """Times of the `sup_grid` steps: the doubles np.linspace(0, 1,
    n_steps + 1) holds there, without building that grid."""
    steps = sup_grid(monitor_times, n_steps)
    times = steps * (1.0 / n_steps)
    times[steps == n_steps] = 1.0
    return times


def path_reads(band: VolBand, grid: SpaceTimeGrid, n_steps: int):
    """The `reads` of a field read along the whole path grid of n_steps:
    its times, or None when that grid is at least as fine as the march
    over [0, 1].  Then a solve told them keeps (nearly) every slice, and
    the list, n_steps + 1 doubles, would only cost memory."""
    if n_steps >= grid.steps_for(band, 0.0, 1.0):
        return None
    return np.linspace(0.0, 1.0, n_steps + 1)


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

    stats = sweep(family, n_paths, n_steps, seed, lambda bundle: (
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
    values, clamped = field.read_along(times[k:k + 1], bundle.states([k]),
                                       bundle.history(payoff))
    return values[:, 0], clamped


@dataclass
class NormEstimate:
    value: float
    stderr: float
    per_control: list   # (label, value, stderr)


def lp_norm_detail(payoff: PayoffSpec, p: float, family: ControlFamily,
                   field, n_paths: int, n_steps: int,
                   seed: int) -> NormEstimate:
    """sup over the family of E[ sup_t (conditional |payoff|)^p ]^(1/p).

    `field` must be solved for payoff.absolute() (the payoff itself when
    it is non-negative) or for abs(payoff); the time sup runs over
    `sup_grid` (a lower bound of the continuous-time sup, as documented).
    Per block, the grid times before t = 1 are read in one path-grid read,
    and t = 1 evaluates the payoff, as conditional_supremum does.  One
    `sweep` of `lp_norm_fold`, finished by `norm_estimate`; norms on a
    shared seed fold in one `sweep_each`.
    """
    fold = lp_norm_fold(payoff, p, field, n_steps)
    stats = sweep(family, n_paths, n_steps, seed, fold)
    return norm_estimate(family, stats, p)


def lp_norm_fold(payoff: PayoffSpec, p: float, field, n_steps: int):
    """The per-block fold of `lp_norm_detail`: one Moments of
    sup_t |conditional value|^p per control."""
    if p < 1:
        raise ValueError("p must be >= 1")
    abs_payoff = payoff.absolute()
    # abs(payoff) solves to the same field as a non-negative payoff itself
    if field.payoff is not None and field.payoff.expr not in (
            abs_payoff.expr, Expr("abs", payoff.expr)):
        raise ValueError("field must be solved for the absolute payoff")
    grid_idx = sup_grid(payoff.times, n_steps)
    inner = grid_idx[grid_idx < n_steps]   # t = 1, the last date, reads xi

    def fold(bundle):
        reads, _ = field.read_along(bundle.times[inner],
                                    bundle.states(inner),
                                    bundle.history(abs_payoff))
        sup = np.abs(reads[:, 0]).reshape(bundle.n_paths, len(inner)).max(1)
        xi = abs_payoff.evaluate(bundle.monitor_values(abs_payoff.times))
        return Moments.of(np.maximum(sup, np.abs(xi)) ** p),

    return fold


def norm_estimate(family: ControlFamily, stats, p: float) -> NormEstimate:
    """The family sup of merged `lp_norm_fold` partials."""
    rows = [(c.label, *m.root(p)) for c, (m,) in zip(family, stats)]
    return NormEstimate(*max(rows, key=lambda r: r[1])[1:], rows)
