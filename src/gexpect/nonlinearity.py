"""Worst-case quadratic form over a volatility band, its smoothing and conjugate.

The central object is

    g(gamma) = (1/2) * sup { tr(gamma a) : a_lower <= a <= a_upper }

for symmetric gamma, where the band [a_lower, a_upper] is an interval in the
positive-semidefinite order.  Every band is evaluated exactly by one
transform: substituting a = a_lower + M^(1/2) s M^(1/2) with
M = a_upper - a_lower maps {0 <= s <= I} onto the band (pseudo-roots cover
degenerate gaps), and the supremum over s of tr(M^(1/2) gamma M^(1/2) s) is
the positive eigenvalue mass, so

    g(gamma) = tr(gamma a_lower)/2 + sum_i lambda_i^+(M^(1/2) gamma M^(1/2))/2.

In one dimension this is (1/2)(a_upper*gamma^+ - a_lower*gamma^-), which
`eval_g_scalar` evaluates vectorized.

The smoothed variant convolves the epsilon-lifted band form with a compactly
supported bump, producing a smooth convex function within C*·epsilon of the
lifted form, together with its convex conjugate over the band.
"""

import math
from dataclasses import dataclass, field

import numpy as np

_SYM_TOL = 1e-10


def as_symmetric(m) -> np.ndarray:
    """Coerce scalar or matrix input to a validated (d, d) symmetric array."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim == 0:
        return arr.reshape(1, 1)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    scale = max(1.0, float(np.abs(arr).max()))
    if np.abs(arr - arr.T).max() > _SYM_TOL * scale:
        raise ValueError("matrix is not symmetric")
    return 0.5 * (arr + arr.T)


def sym_floor(a, c: float) -> np.ndarray:
    """Eigenvalue lift a ∨ c·I: raise every eigenvalue of a to at least c."""
    a = as_symmetric(a)
    w, v = np.linalg.eigh(a)
    return (v * np.maximum(w, c)) @ v.T


def _min_eig(m) -> float:
    return float(np.linalg.eigvalsh(m).min())


@dataclass(frozen=True)
class VolBand:
    """Band [a_lower, a_upper] of admissible diffusion matrices (variance/time).

    Requires 0 <= a_lower <= a_upper in the PSD order and a_upper positive
    definite; a_lower may be degenerate.
    """

    a_lower: np.ndarray
    a_upper: np.ndarray

    def __post_init__(self):
        lo = as_symmetric(self.a_lower)
        up = as_symmetric(self.a_upper)
        if lo.shape != up.shape:
            raise ValueError("band bounds have mismatched dimensions")
        if lo.shape[0] > 3:
            raise ValueError("bands supported for dimension d <= 3")
        if _min_eig(lo) < -_SYM_TOL:
            raise ValueError("a_lower must be positive semidefinite")
        if _min_eig(up) <= _SYM_TOL:
            raise ValueError("a_upper must be positive definite")
        if _min_eig(up - lo) < -_SYM_TOL:
            raise ValueError("a_lower must not exceed a_upper (PSD order)")
        object.__setattr__(self, "a_lower", lo)
        object.__setattr__(self, "a_upper", up)

    @classmethod
    def scalar(cls, lower: float, upper: float) -> "VolBand":
        return cls(np.array([[float(lower)]]), np.array([[float(upper)]]))

    @property
    def d(self) -> int:
        return self.a_lower.shape[0]

    @property
    def lower_scalar(self) -> float:
        if self.d != 1:
            raise ValueError("scalar bound only defined for d=1")
        return float(self.a_lower[0, 0])

    @property
    def upper_scalar(self) -> float:
        if self.d != 1:
            raise ValueError("scalar bound only defined for d=1")
        return float(self.a_upper[0, 0])


def eval_g_scalar(gamma, lower: float, upper: float):
    """d=1 closed form, vectorized over gamma."""
    gamma = np.asarray(gamma, dtype=float)
    out = np.where(gamma > 0.0, 0.5 * (upper * gamma), 0.5 * (lower * gamma))
    return out if out.ndim else float(out)


def eval_g(gamma, band: VolBand) -> float:
    """Evaluate the worst-case form (1/2) sup { tr(gamma a) : a in band }.

    One path for every band: the band-gap transform of the module
    docstring, exact because the supremum of a linear functional over the
    matrix interval reduces to eigenvalue sums, so d <= 3 bands need no
    iterative optimizer.
    """
    gamma = as_symmetric(gamma)
    if gamma.shape[0] != band.d:
        raise ValueError("gamma dimension does not match the band")
    gap = band.a_upper - band.a_lower
    w, v = np.linalg.eigh(gap)
    root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
    core = root @ gamma @ root
    lam = np.linalg.eigvalsh(0.5 * (core + core.T))
    return float(0.5 * (np.tensordot(gamma, band.a_lower)
                        + lam[lam > 0.0].sum()))


def _simpson_weights(n: int, a: float, b: float) -> np.ndarray:
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson rule needs an odd node count >= 3")
    h = (b - a) / (n - 1)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _bump(y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - y[inside] ** 2))
    return out


@dataclass(frozen=True)
class MollifiedNonlinearity:
    """Smooth convex approximation of the band form (d=1).

    Holds the epsilon-lifted lower bound, the quadrature rule for the
    convolution with the unit-ball bump, and the empirical sandwich constant
    cstar = max (smoothed - lifted)/epsilon over a reference grid.
    """

    band: VolBand
    epsilon: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)  # quadrature weights * bump, sum 1
    lifted_lower: float
    cstar: float

    @property
    def upper(self) -> float:
        return self.band.upper_scalar

    def g_bar(self, gamma):
        """Lifted band form: closed form on [lifted_lower, a_upper]."""
        return eval_g_scalar(gamma, self.lifted_lower, self.upper)

    def g_eps(self, gamma):
        """Smoothed form: bump-weighted average of g_bar around gamma."""
        arr = np.asarray(gamma, dtype=float)
        shifted = arr[..., None] + self.epsilon * self.nodes
        out = eval_g_scalar(shifted, self.lifted_lower, self.upper) @ self.weights
        return out if out.ndim else float(out)

    def __call__(self, gamma):
        return self.g_eps(gamma)


def mollify(band: VolBand, epsilon: float) -> MollifiedNonlinearity:
    """Build the smoothed band form for a scalar band.

    The bump exp(-1/(1-y^2)) on (-1, 1) is normalized against the same
    Simpson rule used for the convolution, so the discrete convolution is an
    exact convex combination and the sandwich inequalities hold without
    quadrature slack.
    """
    if band.d != 1:
        raise ValueError("mollification implemented for scalar bands only")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    nodes = np.linspace(-1.0, 1.0, 129)
    weights = _simpson_weights(len(nodes), -1.0, 1.0) * _bump(nodes)
    weights /= weights.sum()
    lifted = max(band.lower_scalar, epsilon)
    mol = MollifiedNonlinearity(band=band, epsilon=epsilon, nodes=nodes,
                                weights=weights, lifted_lower=lifted, cstar=0.0)
    grid = np.concatenate([np.arange(-10.0, 10.0 + 1e-9, 0.1), [0.0]])
    cstar = float(np.max(mol.g_eps(grid) - mol.g_bar(grid)) / epsilon)
    object.__setattr__(mol, "cstar", cstar)
    return mol


def legendre(mol: MollifiedNonlinearity, a: float) -> float:
    """Convex conjugate sup_gamma {(1/2) a gamma - g_eps(gamma)} over [-G, G].

    Finite exactly on the lifted band [lifted_lower, a_upper]; outside it the
    sup grows without bound and +inf is returned.  Inside, the value lies in
    [-cstar*epsilon, 0].
    """
    a = float(a)
    if a < mol.lifted_lower - 1e-12 or a > mol.upper + 1e-12:
        return math.inf
    trunc = 100.0 * (1.0 + abs(a))
    # the slope of g_eps transitions inside [-eps, eps]; refine there
    grid = np.unique(np.concatenate([
        np.linspace(-trunc, trunc, 2001),
        np.linspace(-2.0 * mol.epsilon, 2.0 * mol.epsilon, 401),
    ]))
    best = -math.inf
    # then narrow the bracket around the best node, 33 nodes at a time,
    # until it is 1e-12 wide (or stops shrinking in floating point)
    while True:
        vals = 0.5 * a * grid - mol.g_eps(grid)
        k = int(np.argmax(vals))
        best = max(best, float(vals[k]))
        lo = grid[max(0, k - 1)]
        hi = grid[min(len(grid) - 1, k + 1)]
        if hi - lo <= 1e-12 or hi - lo >= grid[-1] - grid[0]:
            return best
        grid = np.linspace(lo, hi, 33)


def sandwich_check(mol: MollifiedNonlinearity, gamma_grid) -> float:
    """Max of g_eps - g_bar over the grid (>= 0; ~ cstar*epsilon at the kink)."""
    grid = np.asarray(gamma_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("gamma grid must be non-empty")
    return float(np.max(mol.g_eps(grid) - mol.g_bar(grid)))
