import numpy as np
import pytest

import gexpect as gx
from gexpect import kernels


@pytest.fixture(scope="session")
def band12():
    return gx.VolBand.scalar(1.0, 2.0)


@pytest.fixture(scope="session")
def grid201():
    return gx.SpaceTimeGrid(n_x=201, x_max=8.0)


@pytest.fixture(scope="session")
def grid401():
    return gx.SpaceTimeGrid(n_x=401, x_max=8.0)


@pytest.fixture(scope="session")
def field_cache(band12, grid201):
    """Session-wide cache of solved fields on the 201-node oracle grid."""
    cache = {}

    def solve(source, times=(1.0,)):
        key = (source, tuple(times))
        if key not in cache:
            payoff = gx.PayoffSpec.parse(source, times)
            cache[key] = gx.conditional_expectation(payoff, band12, grid201)
        return cache[key]

    return solve


@pytest.fixture(scope="session")
def flat_read():
    """Oracle read of one query per entry of t and x (history one row per
    query), returning (values (K, 3), clamped (K,)).  Intervals without a
    parameter axis go through kernels.bilinear_read over the value and its
    node difference arrays from derivatives(); nested intervals go through
    ValueField._read_interval, the routine that serves them."""

    def read(field, t, x, hist=None):
        t = np.asarray(t, dtype=float).ravel()
        x = np.asarray(x, dtype=float).ravel()
        grads, hessians = gx.derivatives(field)
        out = np.empty((len(t), 3))
        clamped = np.abs(x) > field.x_max + 1e-12
        part = np.searchsorted(field.boundaries[1:-1], t, side="right")
        for i, iv in enumerate(field.intervals):
            sel = np.flatnonzero(part == i)
            qt = np.clip(t[sel], iv.t_start, iv.t_end)
            if iv.param_dim:
                h = np.asarray(hist, dtype=float)[sel, :iv.param_dim]
                clamped[sel] |= (np.abs(h) > field.x_max + 1e-12).any(1)
                out[sel] = field._read_interval(iv, qt, x[sel], h).T
            else:
                out[sel] = np.column_stack([
                    kernels.bilinear_read(iv.times, -field.x_max, field.dx,
                                          arr, qt, x[sel])
                    for arr in (iv.values, grads[i], hessians[i])])
        return out, clamped

    return read


@pytest.fixture(scope="session")
def full_extract():
    """Oracle decomposition: the arithmetic of extract as one pass over all
    (N, M+1) columns at once (one path-grid read, one cumulative sum per
    row for K and for int H dX), which the column march must reproduce
    bit for bit."""

    def extract(payoff, band, field, bundle, exit_margin_nodes=2):
        x = bundle.states()
        n_paths, m1 = x.shape
        read, _ = field.read_along(bundle.times, x,
                                   bundle.history(payoff))
        y, h, d2u = (column.reshape(n_paths, m1) for column in read.T)
        gamma = d2u[:, :-1]

        lo, up = band.lower_scalar, band.upper_scalar
        integrand = gx.eval_g_scalar(gamma, lo, up)
        half = bundle.alpha * gamma
        half *= 0.5
        integrand -= half
        integrand *= bundle.dt
        k = np.zeros((n_paths, m1))
        np.cumsum(integrand, axis=1, out=k[:, 1:])

        h_dx = np.diff(x, axis=1)
        h_dx *= h[:, :-1]
        int_h_dx = np.zeros((n_paths, m1))
        np.cumsum(h_dx, axis=1, out=int_h_dx[:, 1:])

        cutoff = field.x_max - exit_margin_nodes * field.dx
        excluded = np.abs(x).max(axis=1) > cutoff
        return gx.Decomposition(payoff, bundle.control.label, bundle.times,
                                y, h, k, int_h_dx, excluded)

    return extract


def brute_force_g1(gamma, lower, upper, n=10_000):
    """Independent oracle for the scalar band form: grid sup of a*gamma/2."""
    a = np.linspace(lower, upper, n)
    return 0.5 * float(np.max(a * gamma))
