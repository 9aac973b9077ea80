"""Kernel dispatch: compiled extension when built, numpy reference otherwise.

Each kernel takes `impl=` to run a given backend; the backend-agreement
tests and benchmarks/bench_kernels.py choose one that way.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import _core_py as reference

try:
    from . import _core as _impl
except ImportError:
    _impl = reference

COMPILED = _impl is not reference
_SLAB_ROWS = 32   # fewest rows worth a thread of their own


def backend() -> str:
    return "compiled" if COMPILED else "reference"


def march_explicit_1d(values, a_lower, a_upper, dt, dx, n_steps, store_steps, out,
                      impl=None, degree=1):
    """Backward explicit march of a (n_rows, n_x) block, snapshots into out.

    store_steps must increase.  With degree > 1 the rows are split into at
    most `degree` contiguous slabs of at least _SLAB_ROWS rows, marched on
    as many threads (both backends release the GIL); rows never interact,
    so the result does not depend on the split.
    """
    impl = impl or _impl
    store_steps = np.ascontiguousarray(store_steps, dtype=np.intp)
    args = (float(a_lower), float(a_upper), float(dt), float(dx))
    n_rows, n_x = values.shape
    n_slabs = min(int(degree), n_rows // _SLAB_ROWS)
    if n_slabs < 2:
        impl.march_explicit_1d(values, *args, int(n_steps), store_steps, out)
        return
    steps = store_steps[store_steps <= n_steps]
    bounds = [n_rows * i // n_slabs for i in range(n_slabs + 1)]
    # buffers come from this thread: scratch allocated on the workers stayed
    # in glibc's per-thread arenas and raised represent's peak RSS by up to
    # 54 MB (2-vCPU VM, represent-2date workload)
    slabs = [(values[lo:hi], out[:, lo:hi], _slab_work(impl, hi - lo, n_x))
             for lo, hi in zip(bounds, bounds[1:])]
    with ThreadPoolExecutor(max_workers=n_slabs) as pool:
        futures = [pool.submit(_march_slab, impl, rows, args, int(n_steps),
                               steps, snaps, work)
                   for rows, snaps, work in slabs]
        for future in futures:
            future.result()


def _slab_work(impl, n_rows, n_x):
    """Buffers of one slab's march: no snapshot steps, an empty out and,
    for the numpy kernel, its scratch."""
    work = [np.empty(0, dtype=np.intp), np.empty((0, n_rows, n_x))]
    if impl is reference:
        work.append(reference.scratch(n_rows, n_x))
    return work


def _march_slab(impl, values, args, n_steps, store_steps, out, work):
    """March a row slab from snapshot to snapshot, copying each into the
    slab's rows of out: a strided view, which the compiled kernel (typed
    C-contiguous) cannot take."""
    done = 0
    for j, step in enumerate(store_steps):
        impl.march_explicit_1d(values, *args, int(step - done), *work)
        out[j] = values
        done = step
    impl.march_explicit_1d(values, *args, n_steps - done, *work)


def bilinear_read(times, x0, dx, field, qt, qx, impl=None):
    """Clamped bilinear read of field (n_t, n_x) at query arrays (qt, qx)."""
    impl = impl or _impl
    qt = np.ascontiguousarray(qt, dtype=np.float64)
    qx = np.ascontiguousarray(qx, dtype=np.float64)
    out = np.empty(qt.shape[0], dtype=np.float64)
    impl.bilinear_read(times, float(x0), float(dx), field, qt, qx, out)
    return out
