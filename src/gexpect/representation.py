"""Pathwise martingale decomposition of a solved conditional value field.

Along each simulated path the conditional value Y, the hedge H and the
monitor K are sampled as

    Y_t = u(t, X_t),   H_t = du/dx(t, X_t),
    K_t = sum over steps of (g(D2u) - 0.5 * alpha * D2u) * dt,

all read from the solved field with left-endpoint (adapted) sums.  K is
accumulated from the field's second differences rather than backed out of
the identity, so the pathwise defect

    Y_t - Y_0 - int_0^t H dX + K_t

is a genuine cross-check, expected O(dt^1/2 + dx) in RMS.  The integrand of
K is non-negative for every control inside the band (that is the defining
inequality of the band form), so K is non-decreasing up to rounding.

The decomposition is marched along the path grid 16 columns at a time
(`march`), and the estimators fold each slab into per-path running
reductions, so their memory does not grow with the step count; `extract`
stacks the same slabs into full arrays.

Paths that leave the spatial truncation are flagged and excluded from
aggregates; a control with no included path is a numerical failure.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .montecarlo import (ControlFamily, Moments, PathBundle, PathFold,
                         simulate, sweep)
from .nonlinearity import VolBand, eval_g_scalar
from .payoff import PayoffSpec
from .pde import (_BATCH, _CHUNK, ValueField, conditional_expectation,
                  g_expectation)

SYMMETRY_PATHS = 2048   # `represent` classifies symmetry on the first paths


@dataclass
class Decomposition:
    """Sampled (Y, H, K) triple on one bundle's grid, plus the running
    stochastic integral of H."""

    payoff: PayoffSpec
    control_label: str
    times: np.ndarray        # (M+1,)
    y: np.ndarray            # (N, M+1)
    h: np.ndarray            # (N, M+1)
    k: np.ndarray            # (N, M+1)
    int_h_dx: np.ndarray     # (N, M+1)
    excluded: np.ndarray     # (N,) bool, path left the truncation region

    @property
    def n_paths(self) -> int:
        return self.y.shape[0]

    @property
    def included(self) -> np.ndarray:
        return ~self.excluded

    @property
    def exclusion_rate(self) -> float:
        return float(self.excluded.mean())

    def to_csv(self, path, max_paths: int | None = None,
               fingerprint: str | None = None):
        import csv

        res = self.y - self.y[:, :1] - self.int_h_dx + self.k
        n = self.n_paths if max_paths is None else min(max_paths, self.n_paths)
        with open(path, "w", newline="") as fh:
            if fingerprint:
                fh.write(f"# fingerprint={fingerprint}\n")
            w = csv.writer(fh)
            w.writerow(["path_id", "t", "Y", "H", "K", "int_HdX", "residual"])
            for p in range(n):
                for j, t in enumerate(self.times):
                    w.writerow([p, repr(float(t)), repr(float(self.y[p, j])),
                                repr(float(self.h[p, j])),
                                repr(float(self.k[p, j])),
                                repr(float(self.int_h_dx[p, j])),
                                repr(float(res[p, j]))])


@dataclass
class Slab:
    """Columns `cols` of one bundle's decomposition, as `march` yields them.

    y and h are (N, b).  k_ext and int_ext hold K and int H dX at the b
    columns and, for every slab but the last, at the next slab's first
    column too, so that the increment of each step that starts in the slab
    (`steps`) is in it.  y0 is Y at column 0, shared by every slab.
    """

    cols: slice
    steps: slice
    y0: np.ndarray           # (N, 1)
    y: np.ndarray
    h: np.ndarray
    k_ext: np.ndarray
    int_ext: np.ndarray

    @property
    def k(self) -> np.ndarray:
        return self.k_ext[:, :self.cols.stop - self.cols.start]

    @property
    def int_h_dx(self) -> np.ndarray:
        return self.int_ext[:, :self.cols.stop - self.cols.start]

    @property
    def dk(self) -> np.ndarray:
        """The K increment of each step in `steps`."""
        return np.diff(self.k_ext, axis=1)

    @property
    def h_left(self) -> np.ndarray:
        """H at the left end of each step in `steps`."""
        return self.h[:, :self.steps.stop - self.steps.start]


def march(payoff: PayoffSpec, band: VolBand, field: ValueField,
          bundle: PathBundle):
    """Yield the decomposition along every path of the bundle as Slabs of
    _BATCH columns, left to right.

    Each slab reads the field once, through `read_along`, and holds its
    arrays in Fortran order, so that a column of every path is contiguous:
    numpy reduces and accumulates along rows of 16 several times slower.
    K and int H dX enter a slab as the first column of their running sums,
    which add one column at a time in np.cumsum's order, so the slabs
    agree bit for bit with one cumulative sum over all columns.  The
    march's memory does not grow with the step count.
    """
    if bundle.paths.ndim != 2:
        raise ValueError("decomposition extraction is d=1 only")
    paths, times, alpha = bundle.paths, bundle.times, bundle.alpha
    n_paths, m1 = paths.shape
    history = bundle.history(payoff)
    lo, up = band.lower_scalar, band.upper_scalar
    y0, k_in, int_in = None, 0.0, 0.0
    for start in range(0, m1, _BATCH):
        cols = slice(start, min(start + _BATCH, m1))
        steps = slice(start, min(cols.stop, m1 - 1))
        n = steps.stop - start
        read, _ = field.read_along(times[cols], paths[:, cols], history)
        y, h, d2u = (np.asfortranarray(column.reshape(n_paths, -1))
                     for column in read.T)
        if y0 is None:
            y0 = y[:, :1].copy()
        # column 0 of the first slab is K_0 = 0 itself, not a carry
        first = 0 if start else 1

        # (g(gamma) - 0.5 * (alpha * gamma)) * dt, the increments of K
        k = np.empty((n_paths, n + 1), order="F")
        k[:, 0] = k_in
        gamma = d2u[:, :n]
        half = alpha[steps] * gamma
        half *= 0.5
        np.subtract(eval_g_scalar(gamma, lo, up), half, out=k[:, 1:])
        del half
        k[:, 1:] *= bundle.dt
        _accumulate(k, first)

        # h * dX, the increments of int H dX
        int_h_dx = np.empty((n_paths, n + 1), order="F")
        int_h_dx[:, 0] = int_in
        np.subtract(paths[:, start + 1:steps.stop + 1], paths[:, steps],
                    out=int_h_dx[:, 1:])
        int_h_dx[:, 1:] *= h[:, :n]
        _accumulate(int_h_dx, first)

        yield Slab(cols, steps, y0, y, h, k, int_h_dx)
        k_in, int_in = k[:, -1], int_h_dx[:, -1]


def _accumulate(a, first: int):
    """Running sums along the rows of a, in place from column `first` on:
    the additions of np.cumsum in its order, one column at a time."""
    for j in range(first, a.shape[1] - 1):
        np.add(a[:, j], a[:, j + 1], out=a[:, j + 1])


def excluded_paths(field: ValueField, bundle: PathBundle,
                   exit_margin_nodes: int = 2) -> np.ndarray:
    """Flags of the paths that come within exit_margin_nodes of the
    truncation, from max |X| over blocks of whole paths."""
    paths = bundle.paths
    step = max(1, _CHUNK // paths.shape[1])
    peak = np.concatenate([np.abs(paths[start:start + step]).max(axis=1)
                           for start in range(0, len(paths), step)])
    return peak > field.x_max - exit_margin_nodes * field.dx


def extract(payoff: PayoffSpec, band: VolBand, field: ValueField,
            bundle: PathBundle, exit_margin_nodes: int = 2) -> Decomposition:
    """Sample the decomposition along every path of the bundle: the slabs
    of `march`, stacked."""
    arrays = np.empty((4,) + bundle.paths.shape)
    for s in march(payoff, band, field, bundle):
        for whole, part in zip(arrays, (s.y, s.h, s.k, s.int_h_dx)):
            whole[:, s.cols] = part
    return Decomposition(payoff, bundle.control.label, bundle.times,
                         *arrays, excluded_paths(field, bundle,
                                                 exit_margin_nodes))


def _abs_defect(y, y0, int_h_dx, k) -> np.ndarray:
    """|Y_t - Y_0 - int H dX + K_t| at every sample."""
    defect = y - y0
    defect -= int_h_dx
    defect += k
    return np.abs(defect, out=defect)


def residual(dec: Decomposition) -> np.ndarray:
    """Per-path sup over t of |Y_t - Y_0 - int H dX + K_t|."""
    return _abs_defect(dec.y, dec.y[:, :1], dec.int_h_dx, dec.k).max(axis=1)


def residual_rms(dec: Decomposition) -> float:
    r = residual(dec)[dec.included]
    if len(r) == 0:
        raise ValueError("all paths excluded")
    return float(np.sqrt(np.mean(r ** 2)))


def monotonicity(dec: Decomposition) -> float:
    """Most negative K increment over included paths (>= -eps expected)."""
    dk = np.diff(dec.k[dec.included], axis=1)
    return float(dk.min()) if dk.size else 0.0


def terminal_defect(dec: Decomposition, bundle: PathBundle) -> float:
    """Max |Y_1 - payoff(path)| over included paths (interpolation error)."""
    return _terminal_gap(dec.payoff, dec.y[:, -1], dec.included, bundle)


def _terminal_gap(payoff, y1, included, bundle) -> float:
    xi = payoff.evaluate(bundle.monitor_values(payoff.times))
    gap = np.abs(y1 - xi)[included]
    return float(gap.max()) if gap.size else 0.0


@dataclass(frozen=True)
class Rows:
    """The first `limit` rows of per-path arrays, merged in path order."""

    limit: int
    arrays: tuple

    def merge(self, other: "Rows") -> "Rows":
        pairs = zip(self.arrays, other.arrays)
        return Rows(self.limit, tuple(np.concatenate(p)[:self.limit] for p in pairs))


@dataclass
class GapRow:
    label: str
    mean_neg_k1: float
    stderr: float
    excluded: int
    residual_rms: float      # this and the next two: over included paths
    min_dk: float
    terminal_defect: float


def require_included(family: ControlFamily, stats):
    """Raise NumericalError for a control none of whose paths stayed inside
    the truncation; stats holds each control's partials from `sweep`, the
    first of them a Moments over its included paths."""
    for c, (included, *_) in zip(family, stats):
        if not included.n:
            raise NumericalError(f"all paths excluded under {c.label}: "
                                 "they leave the truncation, widen x_max")


@dataclass
class GapResult:
    rows: list
    sup: float
    argmax_label: str
    symmetry: list  # per control, `Moments` of max |K| over the included
                    # paths among the first SYMMETRY_PATHS
    head: Decomposition | None  # the argmax control's first keep_rows paths


def gmartingale_gap(payoff: PayoffSpec, band: VolBand, field: ValueField,
                    family: ControlFamily, n_paths: int, n_steps: int,
                    seed: int, degree: int = 1,
                    keep_rows: int = 0) -> GapResult:
    """sup over the family of E[-K_1]: the discrete martingale-gap of -K.

    Values are <= 0 up to Monte Carlo noise; a value near zero attained by
    some control certifies the martingale property of -K at the finite
    family's resolution.  The same sweep gives each row its residual RMS,
    smallest K increment and terminal defect, and each control the
    per-path max |K| over the included paths among its first
    SYMMETRY_PATHS, from which `symmetry_evidence` classifies the payoff
    with no second sweep.  The argmax control's first keep_rows paths are
    simulated and extracted again afterwards (a head of every control and
    block would grow with n_steps).
    """
    def fold(_, bundle):
        res, dk = PathFold(np.maximum), PathFold(np.minimum)
        k_peak = PathFold(np.maximum)
        for s in march(payoff, band, field, bundle):
            res.add(_abs_defect(s.y, s.y0, s.int_h_dx, s.k))
            dk.add(s.dk)
            k_peak.add(np.abs(s.k[:SYMMETRY_PATHS]))
        inc = ~excluded_paths(field, bundle)
        # s is the last slab, which holds K_1 and Y_1
        return (Moments.of(-s.k[inc, -1]),
                Moments.of(res.value[inc] ** 2),
                Moments.of(dk.value[inc]),
                Moments.of(_terminal_gap(payoff, s.y[:, -1], inc, bundle)),
                Rows(SYMMETRY_PATHS, (k_peak.value, inc[:SYMMETRY_PATHS])))

    stats = sweep(family, n_paths, n_steps, seed, fold, degree)
    require_included(family, stats)
    rows = [GapRow(c.label, neg_k1.mean, neg_k1.stderr, n_paths - neg_k1.n,
                   res_sq.root(2)[0], dk.lo, terminal.hi)
            for c, (neg_k1, res_sq, dk, terminal, _) in zip(family, stats)]
    best = max(range(len(rows)), key=lambda j: rows[j].mean_neg_k1)
    head = None
    if keep_rows:
        head = extract(payoff, band, field, simulate(
            family.controls[best], min(keep_rows, n_paths), n_steps, seed))
    return GapResult(rows, rows[best].mean_neg_k1, rows[best].label,
                     [Moments.of(peak[included])
                      for peak, included in (s[-1].arrays for s in stats)],
                     head)


@dataclass
class SymmetryEvidence:
    symmetric: bool
    k_abs_max: float
    tolerance: float
    value: float
    value_negated: float
    asymmetry: float     # E[xi] + E[-xi]; ~0 is necessary for symmetry


def is_symmetric(payoff: PayoffSpec, band: VolBand, field: ValueField,
                 family: ControlFamily, tol: float, n_paths: int,
                 n_steps: int, seed: int, degree: int = 1) -> SymmetryEvidence:
    """Classify the conditional-value process as a two-sided martingale.

    True iff the monitor K stays below tol over every family control and
    included path; the evidence record carries the value asymmetry
    E[xi] + E[-xi], which must vanish for genuinely two-sided payoffs.  A
    control with no included path raises NumericalError.  One sweep of the
    per-path max |K|, finished by `symmetry_evidence`; `represent` takes
    the same partials from its gap sweep instead.
    """
    def fold(_, bundle):
        k_peak = PathFold(np.maximum)
        for s in march(payoff, band, field, bundle):
            k_peak.add(np.abs(s.k))
        return Moments.of(k_peak.value[~excluded_paths(field, bundle)]),

    stats = sweep(family, n_paths, n_steps, seed, fold)
    return symmetry_evidence(payoff, band, field, family, tol,
                             [k_abs for k_abs, in stats], degree)


def symmetry_evidence(payoff: PayoffSpec, band: VolBand, field: ValueField,
                      family: ControlFamily, tol: float, k_abs: list,
                      degree: int = 1) -> SymmetryEvidence:
    """`is_symmetric`'s verdict from each control's `Moments` of the
    per-path max |K| over its included paths.  The negated payoff's field
    is marched on up to `degree` threads."""
    stats = [(m,) for m in k_abs]
    require_included(family, stats)
    k_max = max(0.0, *(m.hi for m, in stats))
    value = field.value(0.0, (), 0.0)
    grid = field.grid
    neg_field = conditional_expectation(payoff.negated(), band, grid, degree)
    value_neg = g_expectation(payoff.negated(), band, grid, neg_field)
    return SymmetryEvidence(k_max <= tol, k_max, tol, value, value_neg,
                            value + value_neg)
