"""Kernel dispatch: compiled extension when built, numpy reference otherwise.

Each kernel takes `impl=` to run a given backend; the backend-agreement
tests and benchmarks/bench_kernels.py choose one that way.
"""

import numpy as np

from . import _core_py as reference

try:
    from . import _core as _impl
except ImportError:
    _impl = reference

COMPILED = _impl is not reference


def backend() -> str:
    return "compiled" if COMPILED else "reference"


def march_explicit_1d(values, a_lower, a_upper, dt, dx, n_steps, store_steps, out,
                      impl=None):
    """Backward explicit march of a (n_rows, n_x) block, snapshots into out."""
    impl = impl or _impl
    store_steps = np.ascontiguousarray(store_steps, dtype=np.intp)
    impl.march_explicit_1d(values, float(a_lower), float(a_upper), float(dt),
                           float(dx), int(n_steps), store_steps, out)


def bilinear_read(times, x0, dx, field, qt, qx, impl=None):
    """Clamped bilinear read of field (n_t, n_x) at query arrays (qt, qx)."""
    impl = impl or _impl
    qt = np.ascontiguousarray(qt, dtype=np.float64)
    qx = np.ascontiguousarray(qx, dtype=np.float64)
    out = np.empty(qt.shape[0], dtype=np.float64)
    impl.bilinear_read(times, float(x0), float(dx), field, qt, qx, out)
    return out
