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
Rows of a march block (one per history node) never interact, so `kernels`
marches large blocks in row slabs on threads, bit-identical to one slab.

Payoffs on several monitoring dates are solved interval by interval: the
last-interval solution is restarted at each earlier date with the diagonal
re-read v(t_i, ..., x, x) as new terminal data.  Parameter grids coincide
with the spatial grid, so the diagonal is a node-exact read.  Solved fields
store every time step when no parameter axes are present and a strided
subset otherwise; a solve told its read times keeps only the slices they
bracket and each interval's two ends, and reads at those times equal the
full field's bit for bit.  `value_field` (`price`, the tower check) is
the case of reads at each interval's start; `verify` and `represent`
solve every field they march for the path grid's times and every field
they only take a time sup of for the sup grid's.

Fields are read in one pass, along path grids: paths (N, M) with one time
per column.  The value, the gradient and the second difference all come
from the same four-node value stencil, interpolated multilinearly.  Each
column's time is bracketed once (by search).  Intervals without parameter
axes interpolate in time first: a batch of columns lerps the node values
and differences of each column's two time rows onto its time, into a
table of 6 doubles per x cell, and each query gathers its cell and lerps
it in x.  Nested intervals bracket each path's history once, build one
flat index per query and reach the parameter corners, the next time row
and the x stencil by fixed offsets from it; they interpolate in space,
then time, then the parameter axes.  Both gather in blocks of whole paths
of about _CHUNK queries, so the read's scratch memory does not grow with
the path count.  Fields solved on one grid and band for one set of dates
read together (`read_along(..., stacked=...)`): the brackets are taken
once for all of them, and a block gathers every field's cells in one
take.  A read returns its queries in the paths' C order, or in their
column order (order="F"), which is the layout `representation.march`
computes in: each quantity's (N, M) plane is then a Fortran-ordered view
of the result.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NumericalError
from .nonlinearity import VolBand
from .payoff import PayoffSpec

# queries per block of whole paths; a block's read temporaries (about 4 MB)
# stay under glibc's heap trim threshold, which otherwise returns them to
# the OS after every 16-column read of `representation.march`
_CHUNK = 1 << 14
_BATCH = 16                       # path-grid columns per cell table
_COLUMNS = {"value": 0, "gradient": 1, "hessian": 2}
# bytes a solved field, or the Monte Carlo sweep's path blocks, may take
MEMORY_LIMIT = 1_500_000_000


def __getattr__(name):
    # no read uses scipy; perfbench/spans.py still looks this name up to
    # trace scipy reads, so it is imported on that first lookup only.
    # Delete this hook when the tracer drops the lookup (ROADMAP item 4a).
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
    of parameter-carrying intervals.
    """

    n_x: int = 401
    x_max: float = 8.0
    cfl_fraction: float = 0.8
    param_time_slices: int = 32

    def __post_init__(self):
        if self.n_x < 5 or self.n_x % 2 == 0:
            raise ValueError("n_x must be odd and >= 5")
        if self.x_max <= 0:
            raise ValueError("x_max must be positive")
        if self.param_time_slices < 1:
            raise ValueError("param_time_slices must be >= 1")
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

    @property
    def param_dim(self) -> int:
        return self.values.ndim - 2


def _store_steps(n_steps: int, param_dim: int, interior: int) -> np.ndarray:
    if param_dim == 0:
        return np.arange(1, n_steps + 1, dtype=np.intp)
    slices = interior if param_dim == 1 else max(2, interior // 4)
    marks = np.unique(np.round(np.linspace(0, n_steps, min(n_steps, slices) + 1)))
    return marks[marks > 0].astype(np.intp)


def _schedule(band, grid, interval, param_dim, reads):
    """March steps over interval, the stored ones and their ascending times:
    with reads (times), only the slices those bracket and the two ends."""
    t0, t1 = interval
    n_steps = grid.steps_for(band, t0, t1)
    steps = _store_steps(n_steps, param_dim, grid.param_time_slices)
    # stored slice j + 1 sits at t1 - steps[j] * dt; the last step ends at t0
    times = np.concatenate(([t0], t1 - steps[-2::-1] * ((t1 - t0) / n_steps),
                            [t1]))
    if reads is None:
        return n_steps, steps, times
    it, _ = _bracket_time(times, np.clip(reads, t0, t1))
    keep = np.zeros(len(times), dtype=bool)
    keep[[0, -1]] = keep[it] = keep[it + 1] = True
    return n_steps, steps[keep[-2::-1]], times[keep]


def _charge(need: int):
    """NumericalError if a solve's `need` bytes pass MEMORY_LIMIT."""
    if need > MEMORY_LIMIT:
        raise NumericalError(
            f"field storage would need ~{need / 1e9:.2f} GB "
            f"(> limit {MEMORY_LIMIT / 1e9:.2f} GB); "
            "coarsen n_x or param_time_slices")


def solve_interval(terminal_data, band: VolBand, grid: SpaceTimeGrid,
                   interval, reads=None) -> IntervalField:
    """March terminal_data (..., n_x) backward over interval = (s, t),
    storing every slice of the schedule, or with `reads` (times) only the
    slices those bracket and the two ends: the start slice, which a
    restart uses, and the terminal data."""
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

    param_shape = data.shape[:-1]
    rows = int(np.prod(param_shape, dtype=np.int64)) if param_shape else 1
    n_steps, steps, times = _schedule(band, grid, (t0, t1), len(param_shape),
                                      reads)
    _charge(field_bytes(rows, len(steps) + 1, grid.n_x))
    dt = (t1 - t0) / n_steps
    n_stored = len(steps) + 1

    work = np.array(data.reshape(rows, grid.n_x))
    values = np.empty((rows, n_stored, grid.n_x))
    # march order is descending time: stored[j] sits at t1 - steps[j-1]*dt
    stored = values[:, ::-1].swapaxes(0, 1)
    stored[0] = work
    kernels.march_explicit_1d(work, band.lower_scalar, band.upper_scalar,
                              dt, grid.dx, n_steps, steps, stored[1:])
    return IntervalField(t0, t1, times,
                         values.reshape(*param_shape, n_stored, grid.n_x))


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


def _cell_table(values, it, wt, dx, out):
    """Write into out, (6, B * (n_x - 1)), the table of the x cells of
    values (n_t, n_x) at B column times, B = len(it): the value, gradient
    and second difference at the nodes of rows it and it + 1, lerped onto
    each column's time with weights wt.  Entry (2q + e, b * (n_x - 1) + i)
    is quantity q (value, gradient, second difference) at node i + e and
    column b's time, so a cell's even entries sit at its left node."""
    rows = values[np.stack((it, it + 1))]                       # (2, B, n_x)
    nodes = np.stack((rows, *_node_derivatives(rows, dx)), axis=1)
    at_t = _lerp(nodes[0], nodes[1], wt[:, None])               # (3, B, n_x)
    np.stack((at_t[..., :-1], at_t[..., 1:]), axis=1,
             out=out.reshape(3, 2, *at_t.shape[1:-1], -1))


def _as_slice(cols):
    """cols as a slice when they are one ascending run of consecutive
    indices, else unchanged."""
    if (len(cols) and cols[-1] - cols[0] == len(cols) - 1
            and (np.diff(cols) == 1).all()):
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

    def __init__(self, intervals, x_nodes, payoff=None, grid=None):
        self.intervals = list(intervals)
        self.x = np.asarray(x_nodes, dtype=float)
        self.payoff = payoff
        self.grid = grid
        self.dx = float(self.x[1] - self.x[0])
        self.x_max = float(self.x[-1])
        self.boundaries = np.array([self.intervals[0].t_start]
                                   + [iv.t_end for iv in self.intervals])

    def _read_interval(self, iv: IntervalField, qt, qx, hist) -> np.ndarray:
        """(3, *qx.shape) value, gradient and second difference of nested
        interval iv at positions qx, times qt (inside it) and history hist
        (..., param_dim), one query per entry of qx; qt and hist broadcast
        against it.  Each time and history entry is bracketed once, however
        many queries share it (a column's time, a path's history)."""
        n, dx = len(self.x), self.dx
        flat = iv.values.reshape(-1)
        n_t = len(iv.times)
        it, wt = _bracket_time(iv.times, qt)
        # exact on nodes, where tower checks read nested intervals
        ix, fx = _bracket_nodes(qx, self.x, dx)
        params = [_bracket_nodes(hist[..., j], self.x, dx)
                  for j in range(iv.param_dim)]
        # flat index of node ix on row it of the lower corner; the other
        # corners, row it + 1 and the stencil are fixed offsets from it
        base = 0
        for ip, _ in params:
            base = base * n + ip
        base = (base * n_t + it) * n + ix
        shape = base.shape
        stencil = base.reshape(-1) + np.arange(-1, 3)[:, None]
        ix, fx = ix.reshape(-1), fx.reshape(-1)
        first = np.flatnonzero(ix == 0)
        last = np.flatnonzero(ix == n - 2)
        # the stencil's ends stay inside the row: at the truncation nodes
        # they repeat a node, and only feed entries overwritten below
        stencil[0, first] += 1
        stencil[3, last] -= 1
        fx_left = 1.0 - fx

        def cell(offset):
            # x-interpolated (value, gradient, hessian) of the field row
            # `offset` past the lower corner's
            v_left, v0, v1, v_right = flat.take(stencil + offset)
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
            return out.reshape(3, *shape)

        # corners in C order of the parameter axes, then linear in time,
        # then in each parameter axis from the last to the first
        corners = [0]
        for _ in params:
            corners = [c * n + b for c in corners for b in (0, 1)]
        vals = [_lerp(cell(c * n_t * n), cell(c * n_t * n + n), wt)
                for c in corners]
        for _, fp in reversed(params):
            vals = [_lerp(a, b, fp) for a, b in zip(vals[::2], vals[1::2])]
        return vals[0]

    def _read_columns(self, ivs, qt, cols, x, out):
        """Grid read of the intervals ivs, one per stacked field (this
        field's first), none with a parameter axis, in the columns cols of
        paths x (N, M) at times qt (one per column), into out (F, 3, N, M).

        Each column's time is bracketed once.  A batch of columns builds,
        per field, the cell table of its times: the node values and
        differences of each column's two time rows (equal to the four-node
        stencil of _read_interval, edges included), lerped onto the
        column's time.  Blocks of whole paths, with about _CHUNK cells to
        gather over all the fields, then bracket each query once, take its
        6-wide cell from every field's table in one gather and lerp it in
        space: time first, then space, as kernels.bilinear_read does."""
        n, dx = len(self.x), self.dx
        it, wt = _bracket_time(ivs[0].times, qt)
        width = min(_BATCH, len(cols))
        n_f = len(ivs)
        step = max(1, _CHUNK // (width * n_f))
        cell_buf = np.empty(6 * n_f * width * min(step, x.shape[0]))
        for start in range(0, len(cols), _BATCH):
            batch = slice(start, start + _BATCH)
            cb = _as_slice(cols[batch])
            table = np.empty((6 * n_f, len(it[batch]) * (n - 1)))
            for f, iv in enumerate(ivs):
                _cell_table(iv.values, it[batch], wt[batch], dx,
                            table[6 * f:6 * f + 6])
            shift = (n - 1) * np.arange(len(it[batch]))
            for lo in range(0, x.shape[0], step):
                rows = slice(lo, lo + step)
                ix, fx = _bracket(x[rows, cb], -self.x_max, dx, n)
                ix += shift
                cells = cell_buf[:6 * n_f * ix.size].reshape(6 * n_f,
                                                             *ix.shape)
                # ix lies inside the table, so "clip" only skips the
                # bounds check
                np.take(table, ix, axis=1, out=cells, mode="clip")
                cells = cells.reshape(n_f, 6, *ix.shape)
                left, right = cells[:, 0::2], cells[:, 1::2]
                left *= 1.0 - fx
                right *= fx
                left += right
                out[:, :, rows, cb] = left

    def _read_rows(self, fields, i, qt, cols, x, hist, out, clamped):
        """Grid read of nested interval i of every stacked field (this one
        first) in the columns cols of paths x at times qt, into out (F, 3,
        N, M): blocks of whole paths, about _CHUNK queries each, go
        through each field's _read_interval with the block's times per
        column and its history per path."""
        h = hist[:, :self.intervals[i].param_dim]
        clamped[:, cols] |= (np.abs(h) > self.x_max + 1e-12).any(1)[:, None]
        step = max(1, _CHUNK // len(qt))
        for start in range(0, x.shape[0], step):
            rows = slice(start, start + step)
            for f, field in enumerate(fields):
                out[f][:, rows, cols] = field._read_interval(
                    field.intervals[i], qt, x[rows, cols], h[rows, None])

    def read_along(self, t, x, history=None, *, stacked=(), order="C"):
        """Field read along a path grid.

        x is (N, M) paths, t (M,) with column j read at time t[j], and
        history (N, >= n-1) one row per path (None when no nested interval
        is read); history columns beyond an interval's parameter count are
        ignored.  Returns (values, clamped) over the K = N * M queries in
        x's C order: values is (K, 3) with columns value, gradient and
        second difference; clamped flags queries outside the spatial
        truncation, in x or in the history read.

        The fields in `stacked`, solved on this field's grid and band for
        its monitoring dates (any other is rejected), are read in the same
        pass: each column's time, each query's x cell and each path's
        history is bracketed once for all of them, and values has three
        more columns per stacked field, in turn.  Each field's columns
        equal its own read bit for bit.

        order="F" returns the same values with the K queries in x's
        column order (the march's slab layout): values.T reshaped to
        (3F, M, N) and transposed in its last two axes holds each
        quantity's (N, M) plane in Fortran order, without a copy.
        """
        fields = [self, *stacked]
        for f in stacked:
            if f is not self and not (
                    np.array_equal(f.x, self.x)
                    and len(f.intervals) == len(self.intervals)
                    and all(np.array_equal(a.times, b.times)
                            for a, b in zip(f.intervals, self.intervals))):
                raise ValueError("stacked fields must be solved on one grid, "
                                 "band and set of monitoring dates")
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        hist = None if history is None else np.asarray(history, dtype=float)
        if x.ndim != 2 or t.shape != x.shape[1:]:
            raise ValueError("read_along takes paths x (N, M) and one time "
                             "per column t (M,)")
        n_rows, n_cols = x.shape
        if hist is not None and (hist.ndim != 2 or len(hist) != n_rows):
            raise ValueError("history must have one row per path")
        if order not in ("C", "F"):
            raise ValueError("order must be 'C' or 'F'")
        # the buffers hold the queries in the returned order; out and
        # clamped are their (N, M) views, which the reads write through
        shape = (n_rows, n_cols) if order == "C" else (n_cols, n_rows)
        buf = np.empty((len(fields), 3, *shape))
        flags = np.empty(shape, dtype=bool)
        out, clamped = ((buf, flags) if order == "C"
                        else (buf.swapaxes(2, 3), flags.T))
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
                self._read_columns([f.intervals[i] for f in fields], qt, cols,
                                   x, out)
            elif hist is None:
                raise ValueError("history required for nested intervals")
            else:
                self._read_rows(fields, i, qt, _as_slice(cols), x, hist, out,
                                clamped)
        return buf.reshape(3 * len(fields), -1).T, flags.reshape(-1)

    def value(self, t: float, history=(), x: float = 0.0,
              kind: str = "value") -> float:
        if kind not in _COLUMNS:
            raise ValueError(f"unknown field kind {kind!r}")
        hist = None
        if len(history):
            hist = np.asarray(history, dtype=float).reshape(1, -1)
        vals, _ = self.read_along([t], [[x]], hist)
        return float(vals[0, _COLUMNS[kind]])


def conditional_expectation(payoff: PayoffSpec, band: VolBand,
                            grid: SpaceTimeGrid, reads=None) -> ValueField:
    """Solve the nested field so conditional values are readable anywhere,
    or, bit for bit, only at the times `reads` (`solve_interval`'s rule,
    each interval given the reads that `read_along` assigns to it).

    Marches the last interval first, restarting each earlier one with the
    node-exact diagonal of its successor.  Rejects more than three
    monitoring dates (parameter storage grows as n_x^(n-1)).
    """
    if payoff.n > 3:
        raise ValueError("at most three monitoring dates are supported")
    if band.d != 1:
        raise ValueError("conditional solves are implemented for d = 1")
    x = grid.x_nodes()
    n = payoff.n
    times = (0.0,) + payoff.times
    if reads is not None:
        part = np.searchsorted(times[1:-1], reads, side="right")
    reads = [None if reads is None else np.asarray(reads)[part == i]
             for i in range(n)]
    # charge the last interval before its n_x^n terminal block is
    # evaluated, and charge that block too: it stays alive beside the
    # march's working rows, as one more stored slice
    _, steps, _ = _schedule(band, grid, times[-2:], n - 1, reads[-1])
    _charge(field_bytes(grid.n_x ** (n - 1), len(steps) + 2, grid.n_x))
    open_axes = [x.reshape((1,) * j + (-1,) + (1,) * (n - 1 - j))
                 for j in range(n)]
    terminal = np.asarray(payoff.expr(*open_axes), dtype=float)
    if terminal.shape != (grid.n_x,) * n:
        terminal = np.broadcast_to(terminal, (grid.n_x,) * n).copy()

    intervals = [None] * n
    for i in range(n, 0, -1):
        intervals[i - 1] = solve_interval(terminal, band, grid,
                                          (times[i - 1], times[i]),
                                          reads[i - 1])
        if i > 1:
            first = intervals[i - 1].values[..., 0, :]
            terminal = np.ascontiguousarray(
                np.diagonal(first, axis1=-2, axis2=-1))
    return ValueField(intervals, x, payoff=payoff, grid=grid)


def value_field(payoff: PayoffSpec, band: VolBand,
                grid: SpaceTimeGrid) -> ValueField:
    """`conditional_expectation` read at each interval's start (the price
    at t = 0, a restart date) only: two start slices and the terminal data
    per interval; a later read lerps across the slices not stored."""
    return conditional_expectation(payoff, band, grid,
                                   reads=(0.0,) + payoff.times[:-1])


def g_expectation(payoff: PayoffSpec, band: VolBand,
                  grid: SpaceTimeGrid) -> float:
    """Worst-case expectation: `value_field` read at (t=0, x=0)."""
    return value_field(payoff, band, grid).value(0.0, (), 0.0)


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


def check_halving(grids):
    """Raise ValueError unless grids are three or more, each with about
    half the dx of the one before."""
    if len(grids) < 3:
        raise ValueError("need at least three grids")
    for g1, g2 in zip(grids, grids[1:]):
        ratio = g2.dx / g1.dx
        if not 0.45 <= ratio <= 0.55:
            raise ValueError("grids must halve dx")


def refine_study(payoff: PayoffSpec, band: VolBand, grids,
                 finest: float | None = None) -> list:
    """Values and empirical order across a chain of dx-halving grids.

    finest, when given, is the value already solved on grids[-1] (on any
    param_time_slices: the (0, 0) node read does not depend on them), and
    that grid is not solved again.
    """
    grids = list(grids)
    check_halving(grids)
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
