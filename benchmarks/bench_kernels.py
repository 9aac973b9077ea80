#!/usr/bin/env python3
"""Timings of the numpy kernels and the fused field read.

Workloads mirror the engine's hot paths: the explicit backward march at the
default pricing resolution (a single row, and the 401-row nested parameter
block of a two-date payoff on 1 and 2 cores, i.e. in one slab or in two
row slabs on two threads) and on `price`'s two coarser refinement grids
(the 201- and 101-row nested blocks, on the host's cores), the bilinear
kernel (kept as the reference the field read is tested against), and
`ValueField.read_along`, the fused path-grid read of value, gradient and
second difference.  The read runs on a one-date field (`sq(x1)`, no
parameter axis) and on a two-date field (`sq(x2 - x1)`, whose second
interval carries the first date as a parameter axis), in two shapes: the whole (N, M) grid of 8192 paths x 257 grid times
(2.1M queries) in one call, and the shape the decomposition march reads,
one call per 16-column slab of a 4096-path block x 257 grid times (17
calls, 1.05M queries).  The march-shaped read also runs on the three
single-date fields the difference check marches together (`sq(x1)`,
`sq(x1) + 0.1` and `0.9 * sq(x1)`): one stacked read per slab against
three single reads.  Two sweep cases time whole Monte Carlo folds on
nine constant controls and `sq(x2 - x1)` at dates 0.5 and 1: one
`dual_value` at `price`'s shape (20000 paths x 512 steps, which reads two
columns of each control's paths) and one block of `gmartingale_gap` at
`represent`'s (4096 paths x 256 steps, a decomposition march per
control).  Each line is the best of `--repeat` runs; a march line also
gives it per interior node update (rows x (n_x - 2) x steps), so the
1-row and 401-row costs compare, and the number of row slabs the march
picks on the cores it is given (`kernels._cores` is substituted).

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import time

import numpy as np

import gexpect as gx
from gexpect import kernels


def _time(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_march(n_rows, n_x, n_steps, repeat, cores=None):
    """Best time of the march of an (n_rows, n_x) block on `cores` cores
    (the host's when None), and the slab count it marches in."""
    cores = cores or kernels._cores()
    rng = np.random.default_rng(0)
    base = np.ascontiguousarray(rng.standard_normal((n_rows, n_x)))
    steps = np.array([n_steps], dtype=np.intp)
    out = np.empty((1, n_rows, n_x))
    dx = 16.0 / (n_x - 1)
    dt = 0.8 * dx * dx / 2.0

    def run():
        work = base.copy()
        kernels.march_explicit_1d(work, 1.0, 2.0, dt, dx, n_steps, steps, out)

    host = kernels._cores
    kernels._cores = lambda: cores
    try:
        return _time(run, repeat), kernels._slab_count(n_rows, n_x, cores)
    finally:
        kernels._cores = host


def bench_read(n_queries, n_t, n_x, repeat):
    rng = np.random.default_rng(1)
    times = np.linspace(0.0, 1.0, n_t)
    field = np.ascontiguousarray(rng.standard_normal((n_t, n_x)))
    qt = rng.uniform(0.0, 1.0, n_queries)
    qx = rng.uniform(-8.0, 8.0, n_queries)

    def run():
        kernels.bilinear_read(times, -8.0, 16.0 / (n_x - 1), field, qt, qx)

    return _time(run, repeat)


def _read_case(source, times, n_paths, n_steps=256):
    band = gx.VolBand.scalar(1.0, 2.0)
    grid = gx.SpaceTimeGrid(n_x=401, x_max=8.0)
    payoff = gx.PayoffSpec.parse(source, times)
    field = gx.conditional_expectation(payoff, band, grid)
    bundle = gx.simulate(gx.ControlProcess.constant(1.5), n_paths, n_steps,
                         seed=1)
    return field, bundle, bundle.history(payoff)


def bench_read_along(source, times, repeat, n_paths=8192):
    """Every grid time of every path, as one path-grid read."""
    field, bundle, hist = _read_case(source, times, n_paths)
    paths = bundle.states()
    return _time(lambda: field.read_along(bundle.times, paths, hist), repeat)


def bench_read_slabs(source, times, repeat, n_paths=4096, width=16):
    """March-shaped read: one path-grid read per slab of `width` columns
    of one path block, as `representation.march` reads."""
    field, bundle, hist = _read_case(source, times, n_paths)
    paths = bundle.states()
    m1 = len(bundle.times)

    def run():
        for start in range(0, m1, width):
            cols = slice(start, start + width)
            field.read_along(bundle.times[cols], paths[:, cols], hist)

    return _time(run, repeat)


def bench_read_stacked(repeat, stacked, n_paths=4096, width=16):
    """The march-shaped read of three single-date fields on one grid: one
    stacked read per slab when `stacked`, else three single reads."""
    field, bundle, _ = _read_case("sq(x1)", (1.0,), n_paths)
    band = gx.VolBand.scalar(1.0, 2.0)
    others = [gx.conditional_expectation(gx.PayoffSpec.parse(src), band,
                                         field.grid)
              for src in ("sq(x1) + 0.1", "0.9 * sq(x1)")]
    paths = bundle.states()
    m1 = len(bundle.times)

    def run():
        for start in range(0, m1, width):
            cols = slice(start, start + width)
            if stacked:
                field.read_along(bundle.times[cols], paths[:, cols],
                                 stacked=others)
            else:
                for f in (field, *others):
                    f.read_along(bundle.times[cols], paths[:, cols])

    return _time(run, repeat)


def _sweep_case():
    band = gx.VolBand.scalar(1.0, 2.0)
    payoff = gx.PayoffSpec.parse("sq(x2 - x1)", (0.5, 1.0))
    return band, payoff, gx.ControlFamily.constants(band, 9)


def bench_dual_value(repeat, n_paths=20_000, n_steps=512):
    """`price`'s dual sweep: the payoff at its dates under every control."""
    _, payoff, family = _sweep_case()
    return _time(lambda: gx.dual_value(payoff, family, n_paths, n_steps,
                                       seed=1), repeat)


def bench_gap_block(repeat, n_paths=4096, n_steps=256):
    """One path block of `represent`'s gap sweep, on one thread."""
    band, payoff, family = _sweep_case()
    field = gx.conditional_expectation(payoff, band,
                                       gx.SpaceTimeGrid(n_x=401, x_max=8.0))
    return _time(lambda: gx.gmartingale_gap(payoff, band, field, family,
                                            n_paths, n_steps, seed=1),
                 repeat)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    marches = [("march 1 row, n_x=401, 1563 steps", (1, 401, 1563, None)),
               ("march 401 rows, n_x=401, 782 steps, 1 core",
                (401, 401, 782, 1)),
               ("march 401 rows, n_x=401, 782 steps, 2 cores",
                (401, 401, 782, 2)),
               ("march 201 rows, n_x=201, 196 steps",
                (201, 201, 196, None)),
               ("march 101 rows, n_x=101, 49 steps", (101, 101, 49, None))]
    cases = [
        ("bilinear read, 1e6 queries, field 1564x401",
         lambda: bench_read(1_000_000, 1564, 401, args.repeat)),
        ("dual_value, 20000 x 512, 9 controls",
         lambda: bench_dual_value(args.repeat)),
        ("gap sweep, one block 4096 x 256, 9 controls",
         lambda: bench_gap_block(args.repeat)),
    ]
    reads = [("1-date sq(x1)", "sq(x1)", (1.0,)),
             ("2-date sq(x2-x1)", "sq(x2 - x1)", (0.5, 1.0))]
    print(f"{'workload':48s} {'best':>11s}")
    for label, source, dates in reads:
        best = bench_read_along(source, dates, args.repeat)
        print(f"{f'read_along, 2.1M queries, {label}':48s} "
              f"{best * 1e3:9.1f}ms")
        best = bench_read_slabs(source, dates, args.repeat)
        print(f"{f'read_along, 17 slabs x 4096, {label}':48s} "
              f"{best * 1e3:9.1f}ms")
    for label, stacked in (("3 fields stacked", True),
                           ("3 single reads", False)):
        best = bench_read_stacked(args.repeat, stacked)
        print(f"{f'read_along, 17 slabs x 4096, {label}':48s} "
              f"{best * 1e3:9.1f}ms")
    for label, (n_rows, n_x, n_steps, cores) in marches:
        best, slabs = bench_march(n_rows, n_x, n_steps, args.repeat, cores)
        per_node = best / (n_rows * (n_x - 2) * n_steps)
        print(f"{label:48s} {best * 1e3:9.1f}ms "
              f"{per_node * 1e9:6.2f}ns/node  {slabs} slab(s)")
    for label, bench in cases:
        print(f"{label:48s} {bench() * 1e3:9.1f}ms")


if __name__ == "__main__":
    main()
