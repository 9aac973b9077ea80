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

Paths that leave the spatial truncation are flagged and excluded from
aggregates; a control with no included path is a numerical failure.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import NumericalError
from .montecarlo import ControlFamily, Moments, PathBundle, sweep
from .nonlinearity import VolBand, eval_g_scalar
from .payoff import PayoffSpec
from .pde import ValueField, conditional_expectation, g_expectation

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


def extract(payoff: PayoffSpec, band: VolBand, field: ValueField,
            bundle: PathBundle, exit_margin_nodes: int = 2) -> Decomposition:
    """Sample the decomposition along every path of the bundle."""
    if bundle.paths.ndim != 2:
        raise ValueError("decomposition extraction is d=1 only")
    n_paths, m1 = bundle.paths.shape
    read, _ = field.read_along(bundle.times, bundle.paths,
                               bundle.history(payoff))
    y, h, d2u = (column.reshape(n_paths, m1) for column in read.T)
    gamma = d2u[:, :-1]

    lo, up = band.lower_scalar, band.upper_scalar
    # (g(gamma) - 0.5 * (alpha * gamma)) * dt and h * dX, each formed in
    # place, so that few (N, M) temporaries are alive at once
    integrand = eval_g_scalar(gamma, lo, up)
    half = bundle.alpha * gamma
    half *= 0.5
    integrand -= half
    del half
    integrand *= bundle.dt
    k = np.zeros((n_paths, m1))
    np.cumsum(integrand, axis=1, out=k[:, 1:])
    del integrand

    h_dx = np.diff(bundle.paths, axis=1)
    h_dx *= h[:, :-1]
    int_h_dx = np.zeros((n_paths, m1))
    np.cumsum(h_dx, axis=1, out=int_h_dx[:, 1:])
    del h_dx

    cutoff = field.x_max - exit_margin_nodes * field.dx
    excluded = np.abs(bundle.paths).max(axis=1) > cutoff
    return Decomposition(payoff, bundle.control.label, bundle.times,
                         y, h, k, int_h_dx, excluded)


def residual(dec: Decomposition) -> np.ndarray:
    """Per-path sup over t of |Y_t - Y_0 - int H dX + K_t|."""
    defect = dec.y - dec.y[:, :1]
    defect -= dec.int_h_dx
    defect += dec.k
    return np.abs(defect, out=defect).max(axis=1)


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
    xi = dec.payoff.evaluate(bundle.monitor_values(dec.payoff.times))
    gap = np.abs(dec.y[:, -1] - xi)[dec.included]
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
    head: Decomposition = dc_field(compare=False, repr=False)  # first paths


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


def gmartingale_gap(payoff: PayoffSpec, band: VolBand, field: ValueField,
                    family: ControlFamily, n_paths: int, n_steps: int,
                    seed: int, degree: int = 1,
                    keep_rows: int = 0) -> GapResult:
    """sup over the family of E[-K_1]: the discrete martingale-gap of -K.

    Values are <= 0 up to Monte Carlo noise; a value near zero attained by
    some control certifies the martingale property of -K at the finite
    family's resolution.  The same sweep gives each row its residual RMS,
    smallest K increment, terminal defect and first keep_rows paths, and
    each control the per-path max |K| over the included paths among its
    first SYMMETRY_PATHS, from which `symmetry_evidence` classifies the
    payoff with no second sweep.
    """
    def fold(_, bundle):
        dec = extract(payoff, band, field, bundle)
        inc = dec.included
        return (Moments.of(-dec.k[inc, -1]),
                Moments.of(residual(dec)[inc] ** 2),
                Moments.of(np.diff(dec.k[inc], axis=1).min(axis=1)),
                Moments.of(terminal_defect(dec, bundle)),
                # copies, so that the block's full arrays can be freed
                Rows(keep_rows, tuple(np.array(a[:keep_rows]) for a in (
                    dec.y, dec.h, dec.k, dec.int_h_dx, dec.excluded))),
                Rows(SYMMETRY_PATHS, (
                    np.abs(dec.k[:SYMMETRY_PATHS]).max(axis=1),
                    dec.included[:SYMMETRY_PATHS])))

    stats = sweep(family, n_paths, n_steps, seed, fold, degree)
    require_included(family, stats)
    times = np.linspace(0.0, 1.0, n_steps + 1)
    rows = [GapRow(c.label, neg_k1.mean, neg_k1.stderr, n_paths - neg_k1.n,
                   res_sq.root(2)[0], dk.lo, terminal.hi,
                   Decomposition(payoff, c.label, times, *head.arrays))
            for c, (neg_k1, res_sq, dk, terminal, head, _)
            in zip(family, stats)]
    best = max(rows, key=lambda r: r.mean_neg_k1)
    return GapResult(rows, best.mean_neg_k1, best.label,
                     [Moments.of(peak[included])
                      for peak, included in (s[-1].arrays for s in stats)])


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
        dec = extract(payoff, band, field, bundle)
        return Moments.of(np.abs(dec.k[dec.included]).max(axis=1)),

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
