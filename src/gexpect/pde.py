"""Monotone explicit solver for the band-worst-case heat equation.

Backward parabolic problem on [0, 1] x R (d = 1):

    -du/dt - g(d2u/dx2) = 0,    u(1, x) = phi(x),

with g the band form from `nonlinearity`.  The scheme is the explicit Euler
march with central second differences,

    u_k = u_{k+1} + dt * g(D2 u_{k+1}),

which is monotone under the step bound dt <= dx^2 / a_upper and therefore
converges to the (viscosity) solution on refinement.  At the spatial
truncation +-x_max the second difference is forced to zero, so the equation
degenerates to du/dt = 0 there (Lipschitz payoffs are asymptotically affine).
Rows of a march block (one per history node) never interact, so a block is
marched in contiguous row slabs on up to `degree` threads, with results
bit-identical for any degree.

Payoffs on several monitoring dates are solved interval by interval: the
last-interval solution is restarted at each earlier date with the diagonal
re-read v(t_i, ..., x, x) as new terminal data.  Parameter grids coincide
with the spatial grid, so the diagonal is a node-exact read.  Solved fields
store every time step when no parameter axes are present and a strided
subset otherwise.

Fields are read in one pass, along path grids: paths (N, M) with one time
per column.  The value, the gradient and the second difference all come
from the same four-node value stencil, interpolated multilinearly.
Intervals without parameter axes bracket each column's time once and
gather each query's cell from a table of node values and differences built
per batch of columns; nested intervals bracket each query's time (by
search), position and history (arithmetically on the uniform x grid), in
blocks of whole paths.  Both read in fixed chunks (of columns, or of
paths), so the read's scratch memory does not grow with the path count.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NumericalError
from .nonlinearity import VolBand
from .payoff import PayoffSpec

_MAGIC = b"GXVF1\n"
# queries per block of whole paths; a block's read temporaries (about 4 MB)
# stay under glibc's heap trim threshold, which otherwise returns them to
# the OS after every 16-column read of `representation.march`
_CHUNK = 1 << 14
_BATCH = 16                       # path-grid columns per cell table
_COLUMNS = {"value": 0, "gradient": 1, "hessian": 2}


def __getattr__(name):
    # no read uses scipy; perfbench/spans.py still looks this name up to
    # trace scipy reads, so it is imported on that first lookup only.
    # Delete this hook when the tracer drops the lookup (ROADMAP item 3).
    if name == "RegularGridInterpolator":
        from scipy.interpolate import RegularGridInterpolator
        globals()[name] = RegularGridInterpolator
        return RegularGridInterpolator
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform space grid with CFL-derived time steps.

    n_x must be odd so x = 0 is a node.  cfl_fraction scales the monotone
    step bound dx^2 / a_upper; values above 1 would break monotonicity and
    are rejected.  param_time_slices bounds the stored interior time slices
    of parameter-carrying intervals; memory_limit guards total field bytes.
    """

    n_x: int = 401
    x_max: float = 8.0
    cfl_fraction: float = 0.8
    param_time_slices: int = 32
    memory_limit: int = 1_500_000_000

    def __post_init__(self):
        if self.n_x < 5 or self.n_x % 2 == 0:
            raise ValueError("n_x must be odd and >= 5")
        if self.x_max <= 0:
            raise ValueError("x_max must be positive")
        if not 0.0 < self.cfl_fraction <= 1.0:
            raise NumericalError("cfl_fraction must lie in (0, 1] "
                                 "(explicit scheme monotonicity)")

    @property
    def dx(self) -> float:
        return 2.0 * self.x_max / (self.n_x - 1)

    def x_nodes(self) -> np.ndarray:
        return np.linspace(-self.x_max, self.x_max, self.n_x)

    def steps_for(self, band: VolBand, t0: float, t1: float) -> int:
        dt_max = self.cfl_fraction * self.dx ** 2 / band.upper_scalar
        return max(1, int(math.ceil((t1 - t0) / dt_max - 1e-12)))


@dataclass
class IntervalField:
    """Solution slab of one monitoring interval.

    values has shape (*param_shape, n_times, n_x) with times ascending;
    times[0] == t_start and times[-1] == t_end exactly.
    """

    t_start: float
    t_end: float
    times: np.ndarray
    values: np.ndarray
    dt: float

    @property
    def param_dim(self) -> int:
        return self.values.ndim - 2


def _store_steps(n_steps: int, param_dim: int, interior: int) -> np.ndarray:
    if param_dim == 0:
        return np.arange(1, n_steps + 1, dtype=np.intp)
    slices = interior if param_dim == 1 else max(2, interior // 4)
    marks = np.unique(np.round(np.linspace(0, n_steps, min(n_steps, slices) + 1)))
    return marks[marks > 0].astype(np.intp)


def solve_interval(terminal_data, band: VolBand, grid: SpaceTimeGrid,
                   interval, degree: int = 1) -> IntervalField:
    """March terminal_data (..., n_x) backward over interval = (s, t), on
    up to `degree` threads."""
    if band.d != 1:
        raise ValueError("the PDE solver is implemented for d = 1")
    t0, t1 = float(interval[0]), float(interval[1])
    if not t0 < t1:
        raise ValueError("interval must satisfy s < t")
    data = np.asarray(terminal_data, dtype=float)
    if data.shape[-1] != grid.n_x:
        raise ValueError("terminal data does not match the spatial grid")
    if not np.isfinite(data).all():
        raise NumericalError("terminal data contains non-finite values")

    n_steps = grid.steps_for(band, t0, t1)
    dt = (t1 - t0) / n_steps
    param_shape = data.shape[:-1]
    steps = _store_steps(n_steps, len(param_shape), grid.param_time_slices)
    n_stored = len(steps) + 1

    rows = int(np.prod(param_shape, dtype=np.int64)) if param_shape else 1
    need = field_bytes(rows, n_stored, grid.n_x)
    if need > grid.memory_limit:
        raise NumericalError(
            f"field storage would need ~{need / 1e9:.2f} GB "
            f"(> limit {grid.memory_limit / 1e9:.2f} GB); "
            "coarsen n_x or param_time_slices")

    work = np.array(data.reshape(rows, grid.n_x))
    values = np.empty((rows, n_stored, grid.n_x))
    # march order is descending time: stored[j] sits at t1 - steps[j-1]*dt
    stored = values[:, ::-1].swapaxes(0, 1)
    stored[0] = work
    kernels.march_explicit_1d(work, band.lower_scalar, band.upper_scalar,
                              dt, grid.dx, n_steps, steps, stored[1:],
                              degree=degree)

    times = np.empty(n_stored)
    times[0] = t1
    times[1:] = t1 - steps * dt
    times = times[::-1].copy()
    times[0], times[-1] = t0, t1
    return IntervalField(t0, t1, times,
                         values.reshape(*param_shape, n_stored, grid.n_x), dt)


def field_bytes(rows: int, n_stored: int, n_x: int) -> int:
    """Bytes a march of `rows` rows allocates: the stored field, (rows,
    n_stored, n_x) doubles, and the working rows."""
    return (n_stored + 1) * rows * n_x * 8


def _central(v_left, v, v_right, dx):
    """Central gradient and second difference at a node."""
    return ((v_right - v_left) / (2.0 * dx),
            (v_right - 2.0 * v + v_left) / (dx * dx))


def _one_sided(v_left, v_right, dx):
    """Gradient at a truncation node, whose second difference is zero."""
    return (v_right - v_left) / dx


def _bracket(q, x0, dx, n):
    """Cell index and in-cell weight of q on x0 + dx * [0, n), clamped, with
    the arithmetic of kernels.bilinear_read."""
    xi = (q - x0) / dx
    np.clip(xi, 0.0, n - 1.0, out=xi)
    ix = np.minimum(xi.astype(np.intp), n - 2)
    return ix, xi - ix


def _bracket_nodes(q, nodes, dx):
    """As _bracket, with the weight measured between the cell's own nodes:
    a query on node k lands in cell k with weight 0 or in cell k-1 with
    weight 1, so it reads that node exactly."""
    ix, _ = _bracket(q, nodes[0], dx, len(nodes))
    q = np.clip(q, nodes[0], nodes[-1])
    return ix, (q - nodes[ix]) / (nodes[ix + 1] - nodes[ix])


def _bracket_time(times, qt):
    """Row index and in-row weight of times qt on the ascending times."""
    it = np.searchsorted(times, qt, side="right") - 1
    np.clip(it, 0, len(times) - 2, out=it)
    wt = (qt - times[it]) / (times[it + 1] - times[it])
    np.clip(wt, 0.0, 1.0, out=wt)
    return it, wt


def _lerp(a, b, w):
    return a * (1.0 - w) + b * w


def _node_derivatives(v, dx):
    """Gradient and second difference at every node of v (..., n_x)."""
    grad = np.empty_like(v)
    hess = np.zeros_like(v)
    grad[..., 1:-1], hess[..., 1:-1] = _central(v[..., :-2], v[..., 1:-1],
                                                v[..., 2:], dx)
    grad[..., 0] = _one_sided(v[..., 0], v[..., 1], dx)
    grad[..., -1] = _one_sided(v[..., -2], v[..., -1], dx)
    return grad, hess


def _cell_table(values, it, dx):
    """(12, B * (n_x - 1)) table of the x cells of rows it and it + 1 of
    values (n_t, n_x), B = len(it).  Entry (6r + 2q + e, b * (n_x - 1) + i)
    is quantity q (value, gradient, second difference) of row it[b] + r at
    node i + e, so a cell's even entries sit at its left node."""
    rows = values[np.stack((it, it + 1))]                       # (2, B, n_x)
    nodes = np.stack((rows, *_node_derivatives(rows, dx)), axis=1)
    return np.stack((nodes[..., :-1], nodes[..., 1:]), axis=2).reshape(12, -1)


def _as_slice(cols):
    """cols (ascending) as a slice when they are one run, else unchanged."""
    if len(cols) and cols[-1] - cols[0] == len(cols) - 1:
        return slice(int(cols[0]), int(cols[-1]) + 1)
    return cols


class ValueField:
    """Nested solved field: one IntervalField per monitoring interval.

    Interval i (0-based) covers [T_i, T_{i+1}) with T = (0, t_1, ..., 1) and
    carries i parameter axes (the monitored history).  One read, along a
    path grid, returns the value, the space gradient and the second
    difference together: each query is bracketed once, node gradients and
    second differences come from the value stencil v[ix-1..ix+2] (central
    inside, one-sided gradient and zero second difference at the truncation
    nodes), and all three are interpolated linearly in every axis.  Reads
    clamp to the truncated domain, report clamped queries and run in fixed
    chunks.
    """

    def __init__(self, intervals, x_nodes, payoff=None, band=None, grid=None):
        self.intervals = list(intervals)
        self.x = np.asarray(x_nodes, dtype=float)
        self.payoff = payoff
        self.band = band
        self.grid = grid
        self.dx = float(self.x[1] - self.x[0])
        self.x_max = float(self.x[-1])
        self.boundaries = np.array([self.intervals[0].t_start]
                                   + [iv.t_end for iv in self.intervals])

    @property
    def n_intervals(self) -> int:
        return len(self.intervals)

    def _read_interval(self, iv: IntervalField, qt, qx, hist) -> np.ndarray:
        """(3, K) value, gradient and second difference of nested interval
        iv at times qt (inside it), positions qx and history hist
        (K, param_dim)."""
        n, dx = len(self.x), self.dx
        flat = iv.values.reshape(-1)
        n_t = len(iv.times)
        it, wt = _bracket_time(iv.times, qt)
        # exact on nodes, where tower checks read nested intervals
        ix, fx = _bracket_nodes(qx, self.x, dx)
        params = [_bracket_nodes(hist[:, j], self.x, dx)
                  for j in range(iv.param_dim)]
        stencil = np.stack((np.maximum(ix - 1, 0), ix, ix + 1,
                            np.minimum(ix + 2, n - 1)))
        first = np.flatnonzero(ix == 0)
        last = np.flatnonzero(ix == n - 2)
        fx_left = 1.0 - fx

        def cell(row):
            # x-interpolated (value, gradient, hessian) of field row `row`
            v_left, v0, v1, v_right = flat[row * n + stencil]
            g0, h0 = _central(v_left, v0, v1, dx)
            g1, h1 = _central(v0, v1, v_right, dx)
            g0[first] = _one_sided(v0[first], v1[first], dx)
            h0[first] = 0.0
            g1[last] = _one_sided(v0[last], v1[last], dx)
            h1[last] = 0.0
            out = np.empty((3, len(fx)))
            out[0] = v0 * fx_left + v1 * fx
            out[1] = g0 * fx_left + g1 * fx
            out[2] = h0 * fx_left + h1 * fx
            return out

        # corner rows in C order of the parameter axes, then linear in time,
        # then in each parameter axis from the last to the first
        rows = [0]
        for ip, _ in params:
            rows = [r * n + ip + b for r in rows for b in (0, 1)]
        rows = [r * n_t + it for r in rows]
        vals = [_lerp(cell(r), cell(r + 1), wt) for r in rows]
        for _, fp in reversed(params):
            vals = [_lerp(a, b, fp) for a, b in zip(vals[::2], vals[1::2])]
        return vals[0]

    def _read_columns(self, iv: IntervalField, qt, cols, x, out):
        """Grid read of interval iv, which has no parameter axis, in the
        columns cols of paths x (N, M) at times qt (one per column), into
        out (3, N, M).

        Each column's time is bracketed once.  A batch of columns builds the
        cell table of its time rows (the node differences there equal the
        four-node stencil of _read_interval, edges included), each query
        takes one 12-wide cell of it, and the lerps are those of
        _read_interval, in its order: space first, then time."""
        n, dx = len(self.x), self.dx
        it, wt = _bracket_time(iv.times, qt)
        cell_buf = np.empty(12 * x.shape[0] * min(_BATCH, len(cols)))
        for start in range(0, len(cols), _BATCH):
            batch = slice(start, start + _BATCH)
            cb = _as_slice(cols[batch])
            ix, fx = _bracket(x[:, cb], -self.x_max, dx, n)
            ix += (n - 1) * np.arange(ix.shape[1])
            cells = cell_buf[:12 * ix.size].reshape(12, *ix.shape)
            # ix lies inside the table, so "clip" only skips the bounds check
            np.take(_cell_table(iv.values, it[batch], dx), ix, axis=1,
                    out=cells, mode="clip")
            left, right = cells[0::2], cells[1::2]
            left *= 1.0 - fx
            right *= fx
            left += right
            early, late = left[:3], left[3:]
            early *= 1.0 - wt[batch]
            late *= wt[batch]
            early += late
            out[:, :, cb] = early

    def _read_rows(self, iv: IntervalField, qt, cols, x, hist, out, clamped):
        """Grid read of nested interval iv in the columns cols of paths x
        at times qt, into out: blocks of whole paths, about _CHUNK queries
        each, go through _read_interval with each path's history."""
        h = hist[:, :iv.param_dim]
        clamped[:, cols] |= (np.abs(h) > self.x_max + 1e-12).any(1)[:, None]
        n_cols = len(qt)
        step = max(1, _CHUNK // n_cols)
        for start in range(0, x.shape[0], step):
            rows = slice(start, start + step)
            qx = x[rows, cols].ravel()
            n_block = len(qx) // n_cols
            vals = self._read_interval(iv, np.tile(qt, n_block), qx,
                                       np.repeat(h[rows], n_cols, axis=0))
            out[:, rows, cols] = vals.reshape(3, n_block, n_cols)

    def read_along(self, t, x, history=None):
        """Field read along a path grid.

        x is (N, M) paths, t (M,) with column j read at time t[j], and
        history (N, >= n-1) one row per path (None when no nested interval
        is read); history columns beyond an interval's parameter count are
        ignored.  Returns (values, clamped) over the K = N * M queries in
        x's C order: values is (K, 3) with columns value, gradient and
        second difference; clamped flags queries outside the spatial
        truncation, in x or in the history read.
        """
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        hist = None if history is None else np.asarray(history, dtype=float)
        if x.ndim != 2 or t.shape != x.shape[1:]:
            raise ValueError("read_along takes paths x (N, M) and one time "
                             "per column t (M,)")
        n_rows, n_cols = x.shape
        if hist is not None and (hist.ndim != 2 or len(hist) != n_rows):
            raise ValueError("history must have one row per path")
        out = np.empty((3, n_rows, n_cols))
        clamped = np.empty((n_rows, n_cols), dtype=bool)
        step = max(1, _CHUNK // max(n_cols, 1))
        for start in range(0, n_rows, step):
            rows = slice(start, start + step)
            clamped[rows] = np.abs(x[rows]) > self.x_max + 1e-12
        part = np.searchsorted(self.boundaries[1:-1], t, side="right")
        for i, iv in enumerate(self.intervals):
            cols = np.flatnonzero(part == i)
            if not len(cols):
                continue
            qt = np.clip(t[cols], iv.t_start, iv.t_end)
            if not iv.param_dim:
                self._read_columns(iv, qt, cols, x, out)
            elif hist is None:
                raise ValueError("history required for nested intervals")
            else:
                self._read_rows(iv, qt, _as_slice(cols), x, hist, out,
                                clamped)
        return out.reshape(3, -1).T, clamped.reshape(-1)

    def value(self, t: float, history=(), x: float = 0.0,
              kind: str = "value") -> float:
        if kind not in _COLUMNS:
            raise ValueError(f"unknown field kind {kind!r}")
        hist = None
        if len(history):
            hist = np.asarray(history, dtype=float).reshape(1, -1)
        vals, _ = self.read_along([t], [[x]], hist)
        return float(vals[0, _COLUMNS[kind]])

    def terminal_slice(self, i: int) -> np.ndarray:
        return self.intervals[i].values[..., -1, :]

    def initial_slice(self, i: int) -> np.ndarray:
        return self.intervals[i].values[..., 0, :]

    def stitching_defect(self) -> float:
        """Max mismatch between interval ends and stitched diagonals (0 by
        construction; a plumbing check)."""
        worst = 0.0
        for i in range(self.n_intervals - 1):
            diag = np.diagonal(self.initial_slice(i + 1), axis1=-2, axis2=-1)
            worst = max(worst, float(np.abs(self.terminal_slice(i) - diag).max()))
        return worst

    def space_lipschitz(self) -> float:
        """Largest discrete space-Lipschitz constant over stored slices."""
        worst = 0.0
        for iv in self.intervals:
            d = np.abs(np.diff(iv.values, axis=-1)).max()
            worst = max(worst, float(d) / self.dx)
        return worst

    def sup_norm(self) -> float:
        return max(float(np.abs(iv.values).max()) for iv in self.intervals)

    # -- serialization ------------------------------------------------------
    def to_csv(self, path):
        """Columnar dump: t, x1..x_{n-1}, x, v, dv, d2v."""
        import csv

        n_par = self.n_intervals - 1
        header = (["t"] + [f"x{j + 1}" for j in range(n_par)]
                  + ["x", "v", "dv", "d2v"])
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            grads, hessians = derivatives(self)
            for iv, dv, d2v in zip(self.intervals, grads, hessians):
                v = iv.values
                pd = iv.param_dim
                for pidx in np.ndindex(*v.shape[:pd]):
                    pvals = [repr(self.x[j]) for j in pidx]
                    pad = [""] * (n_par - pd)
                    for k, tk in enumerate(iv.times):
                        for m in range(len(self.x)):
                            w.writerow([repr(float(tk))] + pvals + pad
                                       + [repr(self.x[m]),
                                          repr(float(v[pidx + (k, m)])),
                                          repr(float(dv[pidx + (k, m)])),
                                          repr(float(d2v[pidx + (k, m)]))])

    def to_binary(self, path):
        """Compact dump: magic, dims, little-endian doubles."""
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<IId", len(self.intervals), len(self.x),
                                 self.x_max))
            for iv in self.intervals:
                fh.write(struct.pack("<ddII", iv.t_start, iv.t_end,
                                     iv.param_dim, len(iv.times)))
                fh.write(iv.times.astype("<f8").tobytes())
                fh.write(np.ascontiguousarray(iv.values).astype("<f8").tobytes())

    @classmethod
    def from_binary(cls, path) -> "ValueField":
        with open(path, "rb") as fh:
            if fh.read(len(_MAGIC)) != _MAGIC:
                raise ValueError("not a field dump")
            n_iv, n_x, x_max = struct.unpack("<IId", fh.read(16))
            x = np.linspace(-x_max, x_max, n_x)
            intervals = []
            for _ in range(n_iv):
                t0, t1, pd, n_t = struct.unpack("<ddII", fh.read(24))
                times = np.frombuffer(fh.read(8 * n_t), dtype="<f8").astype(float)
                count = n_x ** pd * n_t * n_x
                vals = np.frombuffer(fh.read(8 * count), dtype="<f8").astype(float)
                vals = vals.reshape((n_x,) * pd + (n_t, n_x))
                dt = times[1] - times[0] if n_t > 1 else t1 - t0
                intervals.append(IntervalField(t0, t1, times, vals, dt))
        return cls(intervals, x)


def conditional_expectation(payoff: PayoffSpec, band: VolBand,
                            grid: SpaceTimeGrid,
                            degree: int = 1) -> ValueField:
    """Solve the nested field so conditional values are readable anywhere.

    Marches the last interval first, restarting each earlier one with the
    node-exact diagonal of its successor, each march on up to `degree`
    threads.  Rejects more than three monitoring dates (parameter storage
    grows as n_x^(n-1)).
    """
    if payoff.n > 3:
        raise ValueError("at most three monitoring dates are supported")
    if band.d != 1:
        raise ValueError("conditional solves are implemented for d = 1")
    x = grid.x_nodes()
    n = payoff.n
    open_axes = [x.reshape((1,) * j + (-1,) + (1,) * (n - 1 - j))
                 for j in range(n)]
    terminal = np.asarray(payoff.expr(*open_axes), dtype=float)
    terminal = np.broadcast_to(terminal, (grid.n_x,) * n).copy()

    times = (0.0,) + payoff.times
    intervals = [None] * n
    for i in range(n, 0, -1):
        intervals[i - 1] = solve_interval(terminal, band, grid,
                                          (times[i - 1], times[i]), degree)
        if i > 1:
            first = intervals[i - 1].values[..., 0, :]
            terminal = np.ascontiguousarray(
                np.diagonal(first, axis1=-2, axis2=-1))
    return ValueField(intervals, x, payoff=payoff, band=band, grid=grid)


def g_expectation(payoff: PayoffSpec, band: VolBand, grid: SpaceTimeGrid,
                  field: ValueField | None = None) -> float:
    """Worst-case expectation: the solved field read at (t=0, x=0)."""
    if field is None:
        field = conditional_expectation(payoff, band, grid)
    return field.value(0.0, (), 0.0)


def derivatives(field: ValueField):
    """First/second difference fields per interval (central inside, one-sided
    gradient at the truncation, hessian zero there per the boundary rule).

    Computed afresh on every call; reads take the same differences from the
    value stencil instead."""
    pairs = [_node_derivatives(iv.values, field.dx) for iv in field.intervals]
    return [g for g, _ in pairs], [h for _, h in pairs]


@dataclass
class RefineRow:
    n_x: int
    value: float
    diff: float | None = None
    order: float | None = None


def refine_study(payoff: PayoffSpec, band: VolBand, grids,
                 finest: float | None = None) -> list:
    """Values and empirical order across a chain of dx-halving grids.

    finest, when given, is the value already solved on grids[-1] (on any
    param_time_slices: the (0, 0) node read does not depend on them), and
    that grid is not solved again.
    """
    grids = list(grids)
    if len(grids) < 3:
        raise ValueError("need at least three grids")
    for g1, g2 in zip(grids, grids[1:]):
        ratio = g2.dx / g1.dx
        if not 0.45 <= ratio <= 0.55:
            raise ValueError("grids must halve dx")
    values = [g_expectation(payoff, band, g) for g in grids[:-1]]
    values.append(g_expectation(payoff, band, grids[-1])
                  if finest is None else finest)
    rows = [RefineRow(g.n_x, v) for g, v in zip(grids, values)]
    for prev, row in zip(rows, rows[1:]):
        row.diff = row.value - prev.value
    for r0, r1 in zip(rows[1:], rows[2:]):
        if r0.diff and r1.diff and abs(r1.diff) > 0:
            r1.order = math.log2(abs(r0.diff / r1.diff))
    return rows
