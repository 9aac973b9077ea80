"""Numpy kernels: the explicit backward march and the clamped bilinear read.

The march is the PDE engine's inner loop; `bilinear_read` is the reference
arithmetic the field reads in `pde` are tested against.  The march takes
each chunk of rows as one flat run of contiguous nodes: every step is a few
whole-run ufuncs, the band sup is one `maximum` of the two bound products,
and the nodes at the seams between rows, which the flat stencil also
updates, are saved before the step and restored after it.  Large blocks
are marched in row slabs, one thread each (`_slab_count`).
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_ROWS = 128       # rows marched together: a chunk and its scratch stay in cache
_SLAB_NODES = 1 << 16  # fewest nodes worth a thread of their own


def backend() -> str:
    """Name of the kernel backend, recorded in every run's metadata."""
    return "reference"


def _cores() -> int:
    """Cores the march may thread over: all the host has."""
    return os.cpu_count() or 1


def _slab_count(n_rows, n_x, cores):
    """One slab per _SLAB_NODES nodes, at most one per core and per row."""
    return max(1, min(cores, n_rows, n_rows * n_x // _SLAB_NODES))


def _scratch(n_rows, n_x):
    """Work arrays of a march of an (n_rows, n_x) block: two flat runs of
    a chunk's stencil nodes and the saved seam nodes of its rows."""
    rows = min(n_rows, _ROWS)
    run = rows * n_x - 2
    return np.empty(run), np.empty(run), np.empty((rows - 1, 2))


def march_explicit_1d(values, a_lower, a_upper, dt, dx, n_steps, store_steps, out):
    """March `values` (n_rows, n_x), C-contiguous, backward `n_steps`
    explicit steps in place.

    Interior nodes pick up dt * g(second difference) with
    g(gamma) = 0.5*(a_upper*gamma) for gamma > 0 else 0.5*(a_lower*gamma);
    boundary nodes are frozen (second difference forced to zero).
    Snapshots are copied into out[j] after step store_steps[j]; store_steps
    must increase.

    The kernel takes g as the larger of the two bound products (the
    smaller, when a_lower exceeds a_upper by rounding), which is the same
    double as the case split, and applies 0.5 and dt as one multiply by
    0.5 * dt, which gives the double of the two multiplies unless 0.5 * g
    is subnormal.

    Rows never interact, so `_slab_count` contiguous slabs of them are
    marched on as many threads (numpy releases the GIL), bit for bit.
    """
    if not values.flags.c_contiguous:
        # the flat runs are reshaped views: a copy would march unseen
        raise ValueError("march_explicit_1d needs C-contiguous values")
    n_rows, n_x = values.shape
    args = (a_lower, a_upper, dt, dx, n_steps, store_steps)
    n_slabs = _slab_count(n_rows, n_x, _cores())
    bounds = [n_rows * i // n_slabs for i in range(n_slabs + 1)]
    # scratch comes from this thread: scratch allocated on the workers stayed
    # in glibc's per-thread arenas and raised represent's peak RSS by up to
    # 54 MB (2-vCPU VM, represent-2date workload)
    slabs = [(values[lo:hi], *args, out[:, lo:hi], _scratch(hi - lo, n_x))
             for lo, hi in zip(bounds, bounds[1:])]
    if n_slabs == 1:
        _march(*slabs[0])
        return
    with ThreadPoolExecutor(max_workers=n_slabs) as pool:
        for future in [pool.submit(_march, *slab) for slab in slabs]:
            future.result()


def _march(values, a_lower, a_upper, dt, dx, n_steps, store_steps, out, work):
    """The march of march_explicit_1d in the arrays of `work` (from
    `_scratch`): each chunk of _ROWS rows runs through every step on its
    own, snapshotting into its rows of out, which may be a strided view.

    A chunk of R rows is one flat run of R * n_x nodes, and one stencil
    over it updates every node but the run's two ends.  That includes the
    two nodes at each seam between rows (last of one row, first of the
    next), so they are copied out before each step and back after it,
    which keeps them frozen bit for bit; a one-row chunk has none."""
    dx2 = dx * dx
    half_dt = 0.5 * dt
    # the larger bound product is a_upper's for gamma > 0 and a_lower's
    # otherwise; a_lower's comes second, which numpy returns on a tie (only
    # +0.0 and -0.0 tie with different bits)
    sup = np.maximum if a_lower <= a_upper else np.minimum
    n_x = values.shape[1]
    n_store = len(store_steps)
    for start in range(0, values.shape[0], _ROWS):
        rows = values[start:start + _ROWS]
        snaps = out[:, start:start + _ROWS]
        flat = rows.reshape(-1)
        left, cur, right = flat[:-2], flat[1:-1], flat[2:]
        n_seams = len(rows) - 1
        seams = (flat[n_x - 1:n_x - 1 + n_seams * n_x]
                 .reshape(n_seams, n_x)[:, :2])
        gamma, g = (w[:len(cur)] for w in work[:2])
        frozen = work[2][:n_seams]
        ns = 0
        for step in range(1, n_steps + 1):
            if n_seams:
                np.copyto(frozen, seams)
            # gamma = (right - 2.0 * cur + left) / dx2
            np.multiply(cur, 2.0, out=gamma)
            np.subtract(right, gamma, out=gamma)
            np.add(gamma, left, out=gamma)
            np.divide(gamma, dx2, out=gamma)
            # g = sup over a of a * gamma
            np.multiply(gamma, a_lower, out=g)
            np.multiply(gamma, a_upper, out=gamma)
            sup(gamma, g, out=g)
            # cur + (0.5 * dt) * g
            np.multiply(g, half_dt, out=g)
            np.add(cur, g, out=cur)
            if n_seams:
                np.copyto(seams, frozen)
            if ns < n_store and store_steps[ns] == step:
                snaps[ns] = rows
                ns += 1


def bilinear_read(times, x0, dx, field, qt, qx):
    """Bilinear read of field (n_t, n_x) at query arrays (qt, qx).

    Times may be non-uniform; space is uniform from x0 with step dx.
    Queries outside the grid are clamped to it.  The field is lerped in
    time at the query cell's two x nodes, then in x between them: the
    order of `ValueField`'s reads of intervals without a parameter axis.
    """
    qt = np.asarray(qt, dtype=np.float64)
    qx = np.asarray(qx, dtype=np.float64)
    nt = times.shape[0]
    nx = field.shape[1]
    it = np.searchsorted(times, qt, side="right") - 1
    np.clip(it, 0, nt - 2, out=it)
    wt = (qt - times[it]) / (times[it + 1] - times[it])
    np.clip(wt, 0.0, 1.0, out=wt)
    xi = (qx - x0) / dx
    np.clip(xi, 0.0, nx - 1.0, out=xi)
    ix = np.minimum(xi.astype(np.intp), nx - 2)
    fx = xi - ix
    v0 = field[it, ix] * (1.0 - wt) + field[it + 1, ix] * wt
    v1 = field[it, ix + 1] * (1.0 - wt) + field[it + 1, ix + 1] * wt
    return v0 * (1.0 - fx) + v1 * fx
