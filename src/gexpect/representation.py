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
stacks the same slabs into full arrays.  One march takes several fields
solved on one grid for one set of dates and reads them together, so
decompositions compared path by path share each slab's states and
brackets.

Paths that leave the spatial truncation are flagged and excluded from
aggregates; a control with no included path is a numerical failure.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .montecarlo import ControlFamily, Moments, PathBundle, PathFold, sweep
from .nonlinearity import VolBand, eval_g_scalar
from .payoff import PayoffSpec
from .pde import _BATCH, _CHUNK, ValueField, g_expectation

EXIT_MARGIN_NODES = 2   # paths this close to the truncation are excluded


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
        """The first max_paths paths, one row per path and time: floats in
        repr form, rows ended by CRLF, as the csv module's excel dialect
        writes them (it quotes none of these fields)."""
        n = self.n_paths if max_paths is None else min(max_paths, self.n_paths)
        y, h, k, int_h_dx = (a[:n] for a in (self.y, self.h, self.k,
                                             self.int_h_dx))
        res = y - y[:, :1] - int_h_dx + k
        times = [repr(t) for t in self.times.tolist()]
        lines = ["path_id,t,Y,H,K,int_HdX,residual"]
        for p, paths in enumerate(zip(*(a.tolist() for a in (y, h, k,
                                                             int_h_dx, res)))):
            lines += [f"{p},{t}," + ",".join(map(repr, row))
                      for t, *row in zip(times, *paths)]
        with open(path, "w", newline="") as fh:
            if fingerprint:
                fh.write(f"# fingerprint={fingerprint}\n")
            fh.write("\r\n".join(lines) + "\r\n")


@dataclass
class Slab:
    """Columns `cols` of one bundle's decomposition, as `march` yields them.

    y and h are (N, b).  k_ext and int_ext hold K and int H dX at the b
    columns and, for every slab but the last, at the next slab's first
    column too, so that the increment of each step that starts in the slab
    (`steps`) is in it.  y0 is Y at column 0, shared by every slab.
    x_peak (N,) is each path's running max |X| over the columns marched so
    far: one array per march, updated in place, so that it spans the whole
    path once the last slab is yielded.
    """

    cols: slice
    steps: slice
    y0: np.ndarray           # (N, 1)
    y: np.ndarray
    h: np.ndarray
    k_ext: np.ndarray
    int_ext: np.ndarray
    x_peak: np.ndarray

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


def march(band: VolBand, fields, bundle: PathBundle):
    """Yield the decomposition of every field along every path of the
    bundle, left to right, as one Slab per field for each run of _BATCH
    columns.

    The fields must be solved on one grid and band for one set of
    monitoring dates (`ValueField.read_along` rejects any other stack).
    Each slab builds the states of its columns and of the next slab's
    first, which give its steps' dX, once for every field, and reads every
    field in one stacked read, which brackets each query once.  It holds
    its arrays in Fortran order, so that a column of every path is
    contiguous: numpy reduces and accumulates along rows of 16 several
    times slower.  The read writes its queries in that order
    (`read_along(..., order="F")`), so each slab's y and h are views of
    it, not copies.  The slab's states also give its paths' running max |X|
    (`x_peak`, one array shared by the fields' slabs), from which the
    caller flags excluded paths without building the states again.
    K and int H dX enter a slab as the first column of their running sums,
    which add one column at a time in np.cumsum's order, so each field's
    slabs agree bit for bit with one cumulative sum over all columns, and
    with the march of that field alone.  The march's memory does not grow
    with the step count.
    """
    if bundle.control.d != 1:
        raise ValueError("decomposition extraction is d=1 only")
    fields = list(fields)
    times, alpha = bundle.times, bundle.alpha
    n_paths, m1 = bundle.n_paths, bundle.n_steps + 1
    history = bundle.history(fields[0].payoff)
    lo, up = band.lower_scalar, band.upper_scalar
    y0 = [None] * len(fields)
    carry = [(0.0, 0.0)] * len(fields)     # K and int H dX entering a slab
    # allocated once, before the slabs' temporaries: a new (N,) array per
    # slab left glibc's heap pinned, and verify-all's peak RSS rose by
    # 40 MB
    x_peak, peak = np.zeros(n_paths), np.empty(n_paths)
    for start in range(0, m1, _BATCH):
        cols = slice(start, min(start + _BATCH, m1))
        steps = slice(start, min(cols.stop, m1 - 1))
        n = steps.stop - start
        x = bundle.states(slice(start, steps.stop + 1))
        at_cols = x[:, :cols.stop - start]
        np.abs(at_cols, order="F").max(axis=1, out=peak)
        np.maximum(x_peak, peak, out=x_peak)
        read, _ = fields[0].read_along(times[cols], at_cols, history,
                                       stacked=fields[1:], order="F")
        # each field's (N, b) planes, Fortran-ordered views of the read
        reads = read.T.reshape(len(fields), 3, -1, n_paths).swapaxes(2, 3)
        # column 0 of the first slab is K_0 = 0 itself, not a carry
        first = 0 if start else 1
        slabs = []
        for f, (y, h, d2u) in enumerate(reads):
            if y0[f] is None:
                y0[f] = y[:, :1].copy()
            k_in, int_in = carry[f]

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
            np.subtract(x[:, 1:n + 1], x[:, :n], out=int_h_dx[:, 1:])
            int_h_dx[:, 1:] *= h[:, :n]
            _accumulate(int_h_dx, first)

            slabs.append(Slab(cols, steps, y0[f], y, h, k, int_h_dx, x_peak))
            carry[f] = k[:, -1], int_h_dx[:, -1]
        yield tuple(slabs)


def _accumulate(a, first: int):
    """Running sums along the rows of a, in place from column `first` on:
    the additions of np.cumsum in its order, one column at a time."""
    for j in range(first, a.shape[1] - 1):
        np.add(a[:, j], a[:, j + 1], out=a[:, j + 1])


def row_blocks(bundle: PathBundle):
    """Slices of the bundle's paths, each of about _CHUNK states: blocks of
    whole paths, over which per-path reductions stay bit-identical."""
    step = max(1, _CHUNK // (bundle.n_steps + 1))
    return (slice(start, start + step)
            for start in range(0, bundle.n_paths, step))


def excluded(field: ValueField, x_peak):
    """Flags of the paths whose max |X|, x_peak (a march's, once its last
    slab is yielded), comes within EXIT_MARGIN_NODES of the truncation."""
    return x_peak > field.x_max - EXIT_MARGIN_NODES * field.dx


def extract(payoff: PayoffSpec, band: VolBand, field: ValueField,
            bundle: PathBundle) -> Decomposition:
    """Sample the decomposition along every path of the bundle: the slabs
    of `march`, stacked."""
    arrays = np.empty((4, bundle.n_paths, bundle.n_steps + 1))
    for s, in march(band, [field], bundle):
        for whole, part in zip(arrays, (s.y, s.h, s.k, s.int_h_dx)):
            whole[:, s.cols] = part
    return Decomposition(payoff, bundle.control.label, bundle.times,
                         *arrays, excluded(field, s.x_peak))


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
    symmetry: list  # per control, `Moments` of max |K| over its included
                    # paths


def gmartingale_gap(payoff: PayoffSpec, band: VolBand, field: ValueField,
                    family: ControlFamily, n_paths: int, n_steps: int,
                    seed: int, degree: int = 1) -> GapResult:
    """sup over the family of E[-K_1]: the discrete martingale-gap of -K.

    Values are <= 0 up to Monte Carlo noise; a value near zero attained by
    some control certifies the martingale property of -K at the finite
    family's resolution.  The same sweep gives each row its residual RMS,
    smallest K increment and terminal defect, and each control the
    `Moments` of the per-path max |K| over its included paths, from which
    `symmetry_evidence` classifies the payoff.  Rows of the full
    decomposition are not kept: `represent` extracts the argmax control's
    first paths for its CSV with `simulate` and `extract`.
    """
    def fold(bundle):
        res, dk = PathFold(np.maximum), PathFold(np.minimum)
        k_peak = PathFold(np.maximum)
        for s, in march(band, [field], bundle):
            res.add(_abs_defect(s.y, s.y0, s.int_h_dx, s.k))
            dk.add(s.dk)
            k_peak.add(np.abs(s.k))
        # s is the last slab, which holds K_1, Y_1 and max |X|
        inc = ~excluded(field, s.x_peak)
        return (Moments.of(-s.k[inc, -1]),
                Moments.of(res.value[inc] ** 2),
                Moments.of(dk.value[inc]),
                Moments.of(_terminal_gap(payoff, s.y[:, -1], inc, bundle)),
                Moments.of(k_peak.value[inc]))

    stats = sweep(family, n_paths, n_steps, seed, fold, degree)
    require_included(family, stats)
    rows = [GapRow(c.label, neg_k1.mean, neg_k1.stderr, n_paths - neg_k1.n,
                   res_sq.root(2)[0], dk.lo, terminal.hi)
            for c, (neg_k1, res_sq, dk, terminal, _) in zip(family, stats)]
    best = max(rows, key=lambda r: r.mean_neg_k1)
    return GapResult(rows, best.mean_neg_k1, best.label,
                     [s[-1] for s in stats])


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
                 n_steps: int, seed: int) -> SymmetryEvidence:
    """Classify the conditional-value process as a two-sided martingale.

    True iff the monitor K stays below tol over every family control and
    included path; the evidence record carries the value asymmetry
    E[xi] + E[-xi], which must vanish for genuinely two-sided payoffs.  A
    control with no included path raises NumericalError.  The symmetry
    statistic of `gmartingale_gap` over every path, finished by
    `symmetry_evidence`; `represent` passes its own gap sweep's instead.
    """
    gap = gmartingale_gap(payoff, band, field, family, n_paths, n_steps,
                          seed)
    return symmetry_evidence(payoff, band, field, family, tol, gap.symmetry)


def symmetry_evidence(payoff: PayoffSpec, band: VolBand, field: ValueField,
                      family: ControlFamily, tol: float,
                      k_abs: list) -> SymmetryEvidence:
    """`is_symmetric`'s verdict from each control's `Moments` of the
    per-path max |K| over its included paths (`GapResult.symmetry`).  A
    control with no included path raises NumericalError, so an empty
    `Moments` never reads as symmetric.  The negated payoff's value is
    marched with no field stored."""
    stats = [(m,) for m in k_abs]
    require_included(family, stats)
    k_max = max(0.0, *(m.hi for m, in stats))
    value = field.value(0.0, (), 0.0)
    value_neg = g_expectation(payoff.negated(), band, field.grid)
    return SymmetryEvidence(k_max <= tol, k_max, tol, value, value_neg,
                            value + value_neg)
