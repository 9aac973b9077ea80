import tracemalloc

import numpy as np
import pytest

from gexpect import kernels


def _old_march(values, a_lower, a_upper, dt, dx, n_steps, store_steps, out):
    # the per-step numpy loop the chunked reference replaced, kept verbatim
    dx2 = dx * dx
    ns = 0
    n_store = len(store_steps)
    for step in range(1, n_steps + 1):
        gamma = (values[:, 2:] - 2.0 * values[:, 1:-1] + values[:, :-2]) / dx2
        g = np.where(gamma > 0.0, 0.5 * (a_upper * gamma), 0.5 * (a_lower * gamma))
        values[:, 1:-1] += dt * g
        if ns < n_store and store_steps[ns] == step:
            out[ns] = values
            ns += 1


def _small_slabs(monkeypatch, cores, n_x):
    # `cores` substituted cores and slabs of at least 32 rows of n_x nodes,
    # so that blocks of a few hundred rows split
    monkeypatch.setattr(kernels, "_cores", lambda: cores)
    monkeypatch.setattr(kernels, "_SLAB_NODES", 32 * n_x)


@pytest.mark.parametrize("store", [[], [5, 20, 56], [57]],
                         ids=["none", "interior", "last"])
@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("n_rows", [1, 2, 63, 64, 65, 127, 128, 129, 401])
def test_march_bit_equal_to_old_loop(n_rows, cores, store, monkeypatch):
    # row chunks (128 rows) and thread slabs (>= 32 rows each) must not
    # change a bit of the values or the snapshots
    _small_slabs(monkeypatch, cores, 41)
    base = np.random.default_rng(n_rows).standard_normal((n_rows, 41))
    steps = np.array(store, dtype=np.intp)
    want, want_out = base.copy(), np.full((len(steps), n_rows, 41), np.nan)
    _old_march(want, 0.7, 1.9, 4e-4, 0.05, 57, steps, want_out)
    got, got_out = base.copy(), np.full_like(want_out, np.nan)
    kernels.march_explicit_1d(got, 0.7, 1.9, 4e-4, 0.05, 57, steps, got_out)
    assert np.array_equal(got, want)
    assert np.array_equal(got_out, want_out)


@pytest.mark.parametrize("band", [(0.0, 2.0), (1.0, 1.0), (1.0, 1.0 - 1e-11),
                                  (0.7, 1.9)],
                         ids=["degenerate", "point", "reversed", "wide"])
@pytest.mark.parametrize("n_rows,n_x,cores",
                         [(1, 5, 1), (7, 5, 1), (129, 41, 1), (129, 41, 3),
                          (300, 5, 2)])
def test_march_bits_equal_to_old_loop_with_signed_zeros(band, n_rows, n_x,
                                                        cores, monkeypatch):
    # compares the raw bits, so a -0.0 turned into +0.0 at a row seam or in
    # the interior fails where np.array_equal would not see it; 129 rows
    # put a chunk seam (one core) or two slab seams (three cores) in the
    # block, 300 rows on two cores both
    _small_slabs(monkeypatch, cores, n_x)
    _assert_march_bits_equal(band, n_rows, n_x)


@pytest.mark.parametrize("n_rows,n_x,cores",
                         [(3300, 41, 2), (4900, 41, 3), (401, 401, 2),
                          (401, 401, 3), (27000, 5, 2)])
def test_march_bits_equal_across_host_slabs(n_rows, n_x, cores, monkeypatch):
    # blocks that _SLAB_NODES itself splits, in two or three slabs with
    # chunk seams inside each
    monkeypatch.setattr(kernels, "_cores", lambda: cores)
    assert kernels._slab_count(n_rows, n_x, cores) > 1
    _assert_march_bits_equal((0.7, 1.9), n_rows, n_x)


def _assert_march_bits_equal(band, n_rows, n_x):
    base = np.random.default_rng(n_rows + n_x).standard_normal((n_rows, n_x))
    # -0.0 on truncation nodes, in interior runs and in whole rows (whose
    # interior marches to +0.0)
    base[::3, 0] = -0.0
    base[1::3, -1] = -0.0
    base[::4, 1:n_x // 2] = -0.0
    base[2::5] = -0.0
    steps = np.array([1, 9, 30], dtype=np.intp)
    want, want_out = base.copy(), np.full((3, n_rows, n_x), np.nan)
    _old_march(want, *band, 4e-4, 0.05, 30, steps, want_out)
    got, got_out = base.copy(), np.full_like(want_out, np.nan)
    kernels.march_explicit_1d(got, *band, 4e-4, 0.05, 30, steps, got_out)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(got_out.view(np.int64), want_out.view(np.int64))


def test_march_rejects_non_contiguous_values():
    # a column slice is not C-contiguous: the kernel would march a copy
    values = np.zeros((4, 42))[:, :41]
    with pytest.raises(ValueError, match="C-contiguous"):
        kernels.march_explicit_1d(values, 1.0, 2.0, 1e-4, 0.1, 3,
                                  np.array([], dtype=np.intp),
                                  np.empty((0, 4, 41)))


def test_march_allocates_only_its_scratch(monkeypatch):
    # every step writes into the scratch made on the calling thread; a
    # per-step temporary of a chunk's size would show as ~400 KB more
    monkeypatch.setattr(kernels, "_cores", lambda: 2)
    values = np.random.default_rng(3).standard_normal((401, 401))
    steps = np.array([40], dtype=np.intp)
    out = np.empty((1, 401, 401))
    scratch = sum(w.nbytes for w in kernels._scratch(200, 401))
    tracemalloc.start()
    try:
        kernels.march_explicit_1d(values, 1.0, 2.0, 2e-4, 0.04, 80, steps, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * scratch + 64 * 1024


# (rows, n_x) of the blocks the march was timed on, with the slab count the
# rule picks on 1, 2 and 3 cores
SLAB_SHAPES = [
    ((401, 401), (1, 2, 2)),     # price, represent and tower nested block
    ((256, 401), (1, 1, 1)),
    ((128, 401), (1, 1, 1)),
    ((64, 401), (1, 1, 1)),
    ((201, 201), (1, 1, 1)),     # price's refine grids
    ((101, 101), (1, 1, 1)),
    ((1, 401), (1, 1, 1)),       # every one-date interval
    ((1, 200_001), (1, 1, 1)),   # one row is one slab, whatever its size
]


@pytest.mark.parametrize("shape,slabs", SLAB_SHAPES)
def test_slab_count_rule(shape, slabs):
    got = [kernels._slab_count(*shape, cores) for cores in (1, 2, 3)]
    assert got == list(slabs)


def test_march_uses_the_host_cores(monkeypatch):
    marched = []
    monkeypatch.setattr(kernels, "_cores", lambda: 3)
    monkeypatch.setattr(kernels, "_march",
                        lambda values, *_: marched.append(len(values)))
    kernels.march_explicit_1d(np.zeros((401, 401)), 1.0, 2.0, 1e-4, 0.04, 1,
                              np.array([], dtype=np.intp),
                              np.empty((0, 401, 401)))
    assert sorted(marched) == [200, 201]


def test_march_boundary_frozen():
    values = np.ascontiguousarray(np.random.default_rng(1).standard_normal((2, 21)))
    edges = values[:, [0, -1]].copy()
    kernels.march_explicit_1d(values, 1.0, 2.0, 1e-4, 0.1, 40,
                              np.array([], dtype=np.intp),
                              np.empty((0, 2, 21)))
    assert np.array_equal(values[:, [0, -1]], edges)


def test_march_snapshots_are_intermediate_states():
    rng = np.random.default_rng(2)
    base = np.ascontiguousarray(rng.standard_normal((1, 31)))
    work = base.copy()
    steps = np.array([10], dtype=np.intp)
    out = np.empty((1, 1, 31))
    kernels.march_explicit_1d(work, 1.0, 2.0, 2e-4, 0.08, 20, steps, out)
    ten = base.copy()
    kernels.march_explicit_1d(ten, 1.0, 2.0, 2e-4, 0.08, 10,
                              np.array([], dtype=np.intp), np.empty((0, 1, 31)))
    assert np.array_equal(out[0], ten)


def test_bilinear_exact_on_nodes():
    times = np.array([0.0, 0.5, 1.0])
    field = np.arange(15.0).reshape(3, 5).copy()
    out = kernels.bilinear_read(times, 0.0, 1.0, field,
                                np.array([0.5]), np.array([2.0]))
    assert out[0] == field[1, 2]


def test_bilinear_clamps_outside_domain():
    times = np.array([0.0, 1.0])
    field = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = kernels.bilinear_read(times, 0.0, 1.0, field,
                                np.array([-1.0, 2.0]), np.array([-9.0, 9.0]))
    assert out[0] == 1.0 and out[1] == 4.0


def test_bilinear_linear_in_both_axes():
    # an affine field is reproduced exactly at interior query points
    times = np.linspace(0.0, 1.0, 5)
    x = np.linspace(-2.0, 2.0, 9)
    field = np.ascontiguousarray(2.0 * times[:, None] + 3.0 * x[None, :])
    qt = np.array([0.33, 0.6])
    qx = np.array([0.1, -1.3])
    out = kernels.bilinear_read(times, -2.0, 0.5, field, qt, qx)
    assert np.allclose(out, 2.0 * qt + 3.0 * qx, atol=1e-12)
