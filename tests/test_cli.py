import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import gexpect as gx
from gexpect.cli import _KEYS, RunConfig, _read, _refine_grids, main
from gexpect.representation import terminal_defect

BASE = """\
[band]
a_lower = 1.0
a_upper = 2.0

[payoff]
expression = sq(x1)
times = 1.0

[grid]
n_x = 201
x_max = 8.0

[mc]
n_paths = 8000
n_steps = 64
seed = 99

[family]
constant_controls = 5

[run]
out_dir = {out}
"""


def write_config(tmp_path, text=None, **overrides):
    out = tmp_path / "out"
    body = (text or BASE).format(out=out)
    for key, val in overrides.items():
        section, name = key.split("__")
        body = _set_key(body, section, name, val)
    path = tmp_path / "run.cfg"
    path.write_text(body)
    return path, out


def _set_key(body, section, name, val):
    lines = body.splitlines()
    out = []
    in_section = False
    replaced = False
    for line in lines:
        if line.startswith("["):
            if in_section and not replaced:
                out.append(f"{name} = {val}")
                replaced = True
            in_section = line.strip() == f"[{section}]"
        elif in_section and line.split("=")[0].strip() == name:
            line = f"{name} = {val}"
            replaced = True
        out.append(line)
    if not replaced:
        out.append(f"{name} = {val}")
    return "\n".join(out) + "\n"


ALL_KEYS = """\
[band]
a_lower = 0.5
a_upper = 1.5

[payoff]
expression = min(abs(x2 - x1), 1)
times = 0.25, 1

[grid]
n_x = 161
x_max = 6.5
cfl_fraction = 0.7
param_time_slices = 8

[mc]
n_paths = 300
n_steps = 32
seed = 7

[family]
constant_controls = 4
floor = 1e-05
file = {family}

[run]
out_dir = {out}
parallel = 3
gap_tolerance = 0.05
csv_paths = 5
"""


def test_config_round_trip(tmp_path):
    fam_path = tmp_path / "family.txt"
    gx.write_family(gx.ControlFamily.constants(gx.VolBand.scalar(0.5, 1.5), 2),
                    fam_path)
    base, _ = write_config(tmp_path)
    every = tmp_path / "every.cfg"
    every.write_text(ALL_KEYS.format(family=fam_path, out=tmp_path / "o"))
    defaults = RunConfig()
    for path in (base, every):
        cfg = RunConfig.from_file(path)
        again = RunConfig.from_string(cfg.emit())
        assert again == cfg
        assert again.fingerprint() == cfg.fingerprint()
    assert all(getattr(cfg, f.name) != getattr(defaults, f.name)
               for f in fields(RunConfig))


def test_emit_and_fingerprint_are_pinned():
    # literals: a key reordered, renamed or dropped in cli._KEYS fails here
    default_text = (
        "[band]\na_lower = 1.0\na_upper = 2.0\n\n"
        "[payoff]\nexpression = sq(x1)\ntimes = 1.0\n\n"
        "[grid]\nn_x = 401\nx_max = 8.0\ncfl_fraction = 0.8\n"
        "param_time_slices = 32\n\n"
        "[mc]\nn_paths = 20000\nn_steps = 512\nseed = 20100920\n\n"
        "[family]\nconstant_controls = 9\nfloor = 1e-06\n\n"
        "[run]\nout_dir = out\nparallel = 0\ngap_tolerance = 0.03\n"
        "csv_paths = 64\n")
    base_text = (default_text
                 .replace("n_x = 401", "n_x = 201")
                 .replace("n_paths = 20000\nn_steps = 512\nseed = 20100920",
                          "n_paths = 8000\nn_steps = 64\nseed = 99")
                 .replace("constant_controls = 9", "constant_controls = 5")
                 .replace("out_dir = out", "out_dir = pinned"))
    default = RunConfig()
    base = RunConfig.from_string(BASE.format(out="pinned"))
    assert default.emit() == default_text
    assert default.fingerprint() == "fda5fca1c8428dea"
    assert base.emit() == base_text
    assert base.fingerprint() == "f11752608e42499b"


def test_unknown_key_rejected(tmp_path):
    path, _ = write_config(tmp_path)
    text = path.read_text() + "\nwibble = 3\n"
    path.write_text(text)
    assert main(["price", "--config", str(path)]) == 1


def test_unknown_section_rejected(tmp_path):
    path, _ = write_config(tmp_path)
    path.write_text(path.read_text() + "\n[extra]\nkey = 1\n")
    assert main(["price", "--config", str(path)]) == 1


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nseed = 5\n\n[band]\na_lower = 1.0\n",
    "[DEFAULT]\nseed = 5\n",
    "[DEFAULT]\nseed = 5\n\n[mc]\nn_paths = 100\n",
], ids=["beside-band", "alone", "beside-mc"])
def test_default_section_rejected(tmp_path, capsys, text):
    # [DEFAULT] is an unknown section, not defaults merged into the others
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert main(["price", "--config", str(path), "--quiet",
                 "--out", str(tmp_path / "out")]) == 1
    assert ("config error: unknown config section [DEFAULT]"
            in capsys.readouterr().err)
    with pytest.raises(gx.ConfigError, match=r"\[DEFAULT\]"):
        RunConfig.from_string(text)


def test_missing_config_is_usage_error(tmp_path):
    assert main(["price", "--config", str(tmp_path / "absent.cfg")]) == 1


def test_price_quadratic(tmp_path, capsys):
    path, out = write_config(tmp_path)
    assert main(["price", "--config", str(path), "--quiet"]) == 0
    payload = json.loads((out / "price.json").read_text())
    assert payload["value"] == pytest.approx(2.0, abs=1e-2)
    assert payload["dual_lower_bound"] == pytest.approx(
        2.0, abs=3.0 * payload["dual_stderr"] + 1e-6)
    assert payload["dual_argmax"] == "const-2"
    assert payload["fingerprint"] == RunConfig.from_file(path).fingerprint()
    assert len(payload["convergence"]) == 3
    meta = json.loads((out / "meta.json").read_text())
    assert meta["fingerprint"] == payload["fingerprint"]
    assert meta["kernel_backend"] == "reference"


def test_price_constant_exact(tmp_path):
    path, out = write_config(tmp_path, payoff__expression="const(3)")
    assert main(["price", "--config", str(path), "--quiet"]) == 0
    payload = json.loads((out / "price.json").read_text())
    assert payload["value"] == 3.0
    assert payload["dual_lower_bound"] == 3.0


def test_price_call_oracle(tmp_path):
    path, out = write_config(tmp_path, payoff__expression="call(x1, 0)",
                             grid__n_x=401)
    assert main(["price", "--config", str(path), "--quiet"]) == 0
    payload = json.loads((out / "price.json").read_text())
    assert payload["value"] == pytest.approx(0.5642, abs=1e-2)


def test_price_awkward_grid_sizes(tmp_path):
    # convergence-chain node counts must snap to odd grids for any odd n_x
    for n_x in (101, 103, 31):
        path, out = write_config(tmp_path, grid__n_x=n_x, mc__n_paths=500)
        assert main(["price", "--config", str(path), "--quiet"]) == 0
        payload = json.loads((out / "price.json").read_text())
        assert len(payload["convergence"]) == 3


def test_price_refinement_chain(tmp_path, capsys):
    assert [g.n_x for g in _refine_grids(RunConfig())] == [101, 201, 401]
    # odd node counts whose near-halving chain does not halve dx
    for n_x in (5, 21, 37):
        path, out = write_config(tmp_path, grid__n_x=n_x)
        assert main(["price", "--config", str(path), "--quiet"]) == 1
        assert (f"config error: grid.n_x = {n_x} "
                in capsys.readouterr().err)
        assert not out.exists()


def test_price_gap_breach_exit_3(tmp_path):
    # a zero gap window on a kinked payoff, whose sup no constant control
    # attains (gap about +0.05 against 2se about 0.007), forces the
    # verification-breach exit path
    path, _ = write_config(tmp_path, payoff__expression="min(abs(x1), 1)",
                           run__gap_tolerance="0")
    assert main(["price", "--config", str(path), "--quiet"]) == 3


def test_represent_csv_embeds_fingerprint(tmp_path):
    path, out = write_config(tmp_path, payoff__expression="x1",
                             mc__n_paths=200, mc__n_steps=64)
    assert main(["represent", "--config", str(path), "--quiet"]) == 0
    first = (out / "decomposition.csv").read_text().splitlines()[0]
    assert first == f"# fingerprint={RunConfig.from_file(path).fingerprint()}"


def test_price_stores_no_field(tmp_path):
    # price reads its value at (0, 0) only: its peak stays below the full
    # field of the nested payoff (the small Monte Carlo sizes keep the
    # 0.5 MB path block from setting the peak)
    path, out = write_config(tmp_path, payoff__expression="sq(x2 - x1)",
                             payoff__times="0.5,1.0", mc__n_paths=256,
                             mc__n_steps=16)
    cfg = RunConfig.from_file(path)
    field = gx.conditional_expectation(cfg.payoff(), cfg.band(), cfg.grid())
    full = sum(iv.values.nbytes for iv in field.intervals)
    value = field.value(0.0, (), 0.0)
    del field
    tracemalloc.start()
    try:
        assert main(["price", "--config", str(path), "--quiet"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full
    assert json.loads((out / "price.json").read_text())["value"] == value


def test_price_numerical_failure_exit_2(tmp_path):
    path, _ = write_config(tmp_path, payoff__expression="sq(x3)",
                           payoff__times="0.3,0.6,1.0", grid__n_x=401,
                           mc__n_steps=10)
    assert main(["price", "--config", str(path), "--quiet"]) == 2


def test_represent_linear_symmetric(tmp_path):
    path, out = write_config(tmp_path, payoff__expression="x1",
                             mc__n_paths=400, mc__n_steps=128)
    assert main(["represent", "--config", str(path), "--quiet"]) == 0
    lines = [json.loads(l) for l in (out / "reports.jsonl").read_text().splitlines()]
    summary = next(r for r in lines if r["kind"] == "represent_summary")
    assert summary["symmetric"] is True
    assert summary["k_abs_max"] <= 1e-9
    assert (out / "decomposition.csv").exists()


def test_represent_quadratic(tmp_path):
    path, out = write_config(tmp_path, mc__n_paths=1200, mc__n_steps=256)
    assert main(["represent", "--config", str(path), "--quiet"]) == 0
    lines = [json.loads(l) for l in (out / "reports.jsonl").read_text().splitlines()]
    summary = next(r for r in lines if r["kind"] == "represent_summary")
    assert summary["symmetric"] is False
    assert -0.05 <= summary["sup_mean_neg_k1"] <= 0.01
    assert summary["gap_argmax"] == "const-2"
    assert summary["asymmetry"] == pytest.approx(1.0, abs=2e-2)


def test_represent_concave_argmax(tmp_path):
    path, out = write_config(tmp_path, payoff__expression="neg(sq(x1))",
                             mc__n_paths=1200, mc__n_steps=256)
    assert main(["represent", "--config", str(path), "--quiet"]) == 0
    lines = [json.loads(l) for l in (out / "reports.jsonl").read_text().splitlines()]
    summary = next(r for r in lines if r["kind"] == "represent_summary")
    assert summary["gap_argmax"] == "const-1"


def test_verify_requires_suite(tmp_path):
    path, _ = write_config(tmp_path)
    assert main(["verify", "--config", str(path), "--quiet"]) == 1
    assert main(["verify", "--config", str(path), "--suite", "bogus"]) == 1


def test_verify_tower_and_mollify(tmp_path):
    path, out = write_config(tmp_path, mc__n_paths=2000, mc__n_steps=128)
    code = main(["verify", "--config", str(path), "--suite", "tower,mollify",
                 "--quiet"])
    assert code == 0
    lines = (out / "reports.jsonl").read_text().splitlines()
    assert all(json.loads(l)["passed"] for l in lines)


def test_verify_bdg_suite(tmp_path):
    path, out = write_config(tmp_path, mc__n_paths=20000, mc__n_steps=128,
                             family__constant_controls=3)
    assert main(["verify", "--config", str(path), "--suite", "bdg",
                 "--quiet"]) == 0
    lines = (out / "reports.jsonl").read_text().splitlines()
    assert len(lines) == 6  # three integrands, two sides each


def test_seed_and_out_overrides(tmp_path):
    path, out = write_config(tmp_path)
    alt = tmp_path / "alt"
    assert main(["price", "--config", str(path), "--seed", "123",
                 "--out", str(alt), "--quiet"]) == 0
    assert (alt / "price.json").exists()
    cfg = RunConfig.from_file(path)
    cfg.seed = 123
    payload = json.loads((alt / "price.json").read_text())
    assert payload["fingerprint"] == cfg.fingerprint()


def test_byte_identical_reruns(tmp_path):
    path, out = write_config(tmp_path, mc__n_paths=3000)
    a = tmp_path / "a"
    b = tmp_path / "b"
    for target in (a, b):
        assert main(["price", "--config", str(path), "--out", str(target),
                     "--quiet"]) == 0
        assert main(["verify", "--config", str(path), "--suite",
                     "tower,mollify", "--out", str(target / "v"),
                     "--quiet"]) == 0
    assert (a / "price.json").read_bytes() == (b / "price.json").read_bytes()
    assert ((a / "v" / "reports.jsonl").read_bytes()
            == (b / "v" / "reports.jsonl").read_bytes())


def test_family_file_config(tmp_path, band12):
    fam = gx.ControlFamily.constants(band12, 3)
    fam_path = tmp_path / "family.txt"
    gx.write_family(fam, fam_path)
    path, out = write_config(tmp_path, family__file=str(fam_path))
    assert main(["price", "--config", str(path), "--quiet"]) == 0
    payload = json.loads((out / "price.json").read_text())
    assert len(payload["dual_table"]) == 3


def test_negative_csv_paths_rejected(tmp_path, capsys):
    path, out = write_config(tmp_path, run__csv_paths=-1)
    assert main(["represent", "--config", str(path), "--quiet"]) == 1
    assert "config error: run.csv_paths" in capsys.readouterr().err
    assert not (out / "decomposition.csv").exists()


@pytest.mark.parametrize("overrides, message", [
    ({"grid__param_time_slices": 0}, "param_time_slices must be >= 1"),
    ({"grid__param_time_slices": -5}, "param_time_slices must be >= 1"),
    ({"run__parallel": -3}, "run.parallel must be >= 0"),
    ({"payoff__sup_bound": -3}, "unknown key(s) in [payoff]: sup_bound"),
    ({"run__gap_tolerance": -1}, "run.gap_tolerance must be >= 0"),
    ({"run__gap_tolerance": "nan"}, "run.gap_tolerance must be >= 0"),
    ({"payoff__expression": "sq(x2 - x1)", "payoff__times": "0.3,1",
      "mc__n_steps": 16}, "monitoring times must lie on the path grid"),
], ids=["slices-0", "slices-negative", "parallel-negative",
        "sup-bound-negative", "gap-tolerance-negative", "gap-tolerance-nan",
        "dates-off-grid"])
@pytest.mark.parametrize("command", ["price", "represent"])
def test_bad_setting_is_config_error(tmp_path, capsys, command, overrides,
                                     message):
    path, out = write_config(tmp_path, **overrides)
    assert main([command, "--config", str(path), "--quiet"]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["price", "verify"])
def test_seed_override_is_validated(tmp_path, capsys, command):
    # --seed replaces mc.seed after the file's checks: it must pass them too
    path, out = write_config(tmp_path)
    suites = ["--suite", "bdg"] if command == "verify" else []
    assert main([command, "--config", str(path), "--quiet", "--seed", "-5",
                 *suites]) == 1
    err = capsys.readouterr().err
    assert "config error: mc.seed" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("body", [
    None,
    "floor = 1e-06\n",
    "floor = 1e-06\ncount = 1\ncontrol.1.label = high\n"
    "control.1.breakpoints = 0.0,1.0\ncontrol.1.values = 3.0\n",
    # 0.3 is not a multiple of 1 / mc.n_steps = 1 / 64
    "floor = 1e-06\ncount = 1\ncontrol.1.label = step\n"
    "control.1.breakpoints = 0.0,0.3,1.0\ncontrol.1.values = 1.0,2.0\n",
], ids=["missing", "no-count", "outside-band", "breakpoint-off-grid"])
def test_bad_family_file_is_config_error(tmp_path, body):
    fam_path = tmp_path / "family.txt"
    if body is not None:
        fam_path.write_text(body)
    path, _ = write_config(tmp_path, family__file=str(fam_path))
    src = str(Path(gx.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (
               src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-m", "gexpect.cli", "price",
                          "--config", str(path), "--quiet"],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 1
    assert "config error" in run.stderr
    assert "Traceback" not in run.stderr


def test_represent_all_paths_excluded_exit_2(tmp_path, capsys):
    # every path of some control leaves the truncation: a numerical
    # failure, not a crash (seed and family are the config defaults)
    path, _ = write_config(tmp_path, grid__n_x=41, grid__x_max=0.5,
                           mc__n_paths=64, mc__n_steps=32,
                           mc__seed=20100920, family__constant_controls=9)
    assert main(["represent", "--config", str(path), "--quiet"]) == 2
    assert "numerical failure:" in capsys.readouterr().err


def test_verify_apriori_alone_matches_shared_march(tmp_path):
    # apriori reads the payoff's decomposition on the difference check's
    # paths: alone it marches the payoff by itself, beside difference it
    # takes the statistics of the difference check's march; same reports
    path, _ = write_config(tmp_path, grid__n_x=121, grid__x_max=3.0,
                           mc__n_paths=600, mc__n_steps=32,
                           family__constant_controls=3)
    apriori = {}
    for suites in ("apriori", "apriori,difference",
                   "bdg,apriori,difference,tower,doob,mollify"):
        out = tmp_path / suites.replace(",", "-")
        assert main(["verify", "--config", str(path), "--suite", suites,
                     "--out", str(out), "--quiet"]) in (0, 3)
        lines = (out / "reports.jsonl").read_text().splitlines()
        checks = [json.loads(line)["config"]["check"] for line in lines]
        # reports in the order the suites are named
        assert list(dict.fromkeys(checks)) == suites.split(",")
        apriori[suites] = [line for line, check in zip(lines, checks)
                           if check == "apriori"]
    assert len(apriori["apriori"]) == 2
    assert len(set(map(tuple, apriori.values()))) == 1


def test_verify_apriori_all_paths_excluded_exit_2(tmp_path, capsys):
    # as above: a control with no included path fails the suite instead of
    # dropping out of its sup
    path, _ = write_config(tmp_path, grid__n_x=41, grid__x_max=0.5,
                           mc__n_paths=64, mc__n_steps=32,
                           mc__seed=20100920, family__constant_controls=9)
    assert main(["verify", "--config", str(path), "--suite", "apriori",
                 "--quiet"]) == 2
    assert "numerical failure:" in capsys.readouterr().err


@pytest.mark.parametrize("args, parallel, code, message", [
    (["represent"], 1, 2, "~1099.51 GB (> limit 1.50 GB) for 1 block(s)"),
    (["verify", "--suite", "bdg"], 1, 2, "~1099.51 GB"),
    (["verify", "--suite", "tower,mollify"], 1, 0, None),  # draws no paths
    # 8000 paths are 2 blocks: no more are in flight at run.parallel 64
    (["represent"], 64, 2, "~2199.02 GB (> limit 1.50 GB) for 2 block(s)"),
])
def test_oversized_path_blocks_exit_2(tmp_path, capsys, args, parallel, code,
                                      message):
    # a block of 4096 paths x 2**25 steps would need ~1.1 TB: the sweep
    # refuses before drawing it
    path, _ = write_config(tmp_path, grid__n_x=41, mc__n_steps=2 ** 25,
                           run__parallel=parallel)
    tracemalloc.start()
    try:
        assert main([args[0], "--config", str(path), "--quiet",
                     *args[1:]]) == code
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    err = capsys.readouterr().err
    if code == 2:
        assert f"numerical failure: path blocks would need {message}" in err


def test_many_threads_at_default_steps_pass_the_block_guard(tmp_path):
    # 128 blocks of 512 steps would be ~2.15 GB, but 1000 paths fill one
    path, _ = write_config(tmp_path, grid__n_x=41, mc__n_paths=1000,
                           mc__n_steps=512, run__parallel=128)
    assert main(["represent", "--config", str(path), "--quiet"]) == 0


def test_represent_symmetry_reads_every_included_path(tmp_path):
    # 2 of 8192 paths stay inside the truncation, none of them among the
    # first 2048: the symmetry statistic is read from those two (a concave
    # payoff, so that K does not vanish under the one control, a_upper)
    path, out = write_config(tmp_path, payoff__expression="-sq(x1)",
                             grid__n_x=41, grid__x_max=0.4,
                             mc__n_paths=8192, mc__n_steps=16, mc__seed=1,
                             family__constant_controls=1)
    assert main(["represent", "--config", str(path), "--quiet"]) == 0
    summary = json.loads((out / "reports.jsonl").read_text().splitlines()[0])
    cfg = RunConfig.from_file(path)
    band, payoff = cfg.band(), cfg.payoff()
    field = gx.conditional_expectation(payoff, band, cfg.grid())
    control, = cfg.family()
    dec = gx.extract(payoff, band, field, gx.simulate(
        control, cfg.n_paths, cfg.n_steps,
        gx.derive_seed(cfg.seed, "represent")))
    inc = dec.included
    assert inc.sum() == 2 and not inc[:2048].any()
    assert summary["exclusion_rate"] == 8190 / 8192
    assert summary["k_abs_max"] == np.abs(dec.k[inc]).max() > 0.0


@pytest.mark.parametrize("expression, times", [("call(x1, 0)", "1"),
                                               ("call(x2 - x1, 0)", "0.5,1")])
@pytest.mark.parametrize("n_paths", [1000, 4196])
@pytest.mark.parametrize("parallel", [1, 2])
def test_represent_symmetry_matches_is_symmetric(tmp_path, expression, times,
                                                 n_paths, parallel):
    # represent reads the symmetry evidence off its gap sweep; it must equal
    # is_symmetric on every path (call payoffs: K depends on the path; on
    # seed 4 the largest |K| of 4196 paths lies past the first 2048, so
    # reading too few paths shows)
    path, out = write_config(tmp_path, payoff__expression=expression,
                             payoff__times=times, grid__n_x=101,
                             grid__x_max=3.0, mc__n_paths=n_paths,
                             mc__n_steps=8, mc__seed=4,
                             family__constant_controls=3,
                             run__parallel=parallel)
    assert main(["represent", "--config", str(path), "--quiet"]) == 0
    summary = json.loads((out / "reports.jsonl").read_text().splitlines()[0])
    cfg = RunConfig.from_file(path)
    band, payoff = cfg.band(), cfg.payoff()
    field = gx.conditional_expectation(payoff, band, cfg.grid())
    ev = gx.is_symmetric(payoff, band, field, cfg.family(), tol=1e-8,
                         n_paths=n_paths, n_steps=cfg.n_steps,
                         seed=gx.derive_seed(cfg.seed, "represent"))
    assert ev.k_abs_max > 0.0
    if n_paths > 2048:
        first = gx.is_symmetric(payoff, band, field, cfg.family(), tol=1e-8,
                                n_paths=2048, n_steps=cfg.n_steps,
                                seed=gx.derive_seed(cfg.seed, "represent"))
        assert ev.k_abs_max > first.k_abs_max
    assert ([summary[k] for k in ("symmetric", "k_abs_max", "value",
                                  "value_negated", "asymmetry")]
            == [ev.symmetric, ev.k_abs_max, ev.value, ev.value_negated,
                ev.asymmetry])


def test_represent_rows_match_full_extraction(tmp_path):
    # the rows and diagnostics folded per path block equal a full
    # simulate + extract of the argmax control; the exported rows span two
    # blocks and some paths leave the truncation
    path, out = write_config(tmp_path, payoff__expression="sq(x2 - x1)",
                             payoff__times="0.5,1", grid__x_max=3.0,
                             mc__n_paths=4146, mc__n_steps=8,
                             family__constant_controls=3,
                             run__csv_paths=4100)
    assert main(["represent", "--config", str(path), "--quiet"]) == 0
    cfg = RunConfig.from_file(path)
    summary = json.loads((out / "reports.jsonl").read_text().splitlines()[0])
    band, payoff = cfg.band(), cfg.payoff()
    field = gx.conditional_expectation(payoff, band, cfg.grid())
    control = next(c for c in cfg.family() if c.label == summary["control"])
    bundle = gx.simulate(control, cfg.n_paths, cfg.n_steps,
                         gx.derive_seed(cfg.seed, "represent"))
    dec = gx.extract(payoff, band, field, bundle)
    ref = tmp_path / "reference.csv"
    dec.to_csv(ref, max_paths=cfg.csv_paths, fingerprint=cfg.fingerprint())
    assert (out / "decomposition.csv").read_bytes() == ref.read_bytes()
    assert 0.0 < summary["exclusion_rate"] == dec.exclusion_rate
    assert summary["residual_rms"] == pytest.approx(gx.residual_rms(dec),
                                                    rel=1e-12)
    assert summary["min_dk"] == gx.monotonicity(dec)
    assert summary["terminal_defect"] == terminal_defect(dec, bundle)


def test_cli_import_loads_no_scipy():
    # scipy is imported only when pde.RegularGridInterpolator is looked up,
    # and that lookup binds the name in the module
    code = "\n".join((
        "import sys",
        "import gexpect.cli",
        "from gexpect import pde",
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']",
        "assert not loaded, loaded",
        "assert 'RegularGridInterpolator' not in vars(pde)",
        "found = pde.RegularGridInterpolator",
        "assert vars(pde)['RegularGridInterpolator'] is found",
        "from scipy.interpolate import RegularGridInterpolator",
        "assert found is RegularGridInterpolator",
    ))
    src = str(Path(gx.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (
               src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert run.returncode == 0, run.stderr


ROOT = Path(__file__).resolve().parents[1]


def _run_fresh(*argv):
    """Run python with argv in a fresh process that imports gexpect and
    perfbench's modules from this checkout (install patches the whole
    process)."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (
               str(ROOT / "src"), str(ROOT / "perfbench"),
               os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env)


def test_readme_python_blocks_run():
    # the README's library quick start is the documented API: it must run
    # as written, in a fresh process
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    run = _run_fresh("-c", "\n".join(blocks))
    assert run.returncode == 0, run.stderr
    # every exported name resolves and is exported once
    assert len(set(gx.__all__)) == len(gx.__all__)
    missing = [n for n in gx.__all__ if not hasattr(gx, n)]
    assert not missing, missing


def test_readme_config_block_is_the_defaults():
    # the README's ini block says it shows every key with its default
    readme = (ROOT / "README.md").read_text()
    block, = re.findall(r"^```ini\n(.*?)^```", readme, re.M | re.S)
    lines = [line.split("#")[0].rstrip() for line in block.splitlines()]
    parser = _read("\n".join(line for line in lines if line), "README.md")
    assert RunConfig.from_parser(parser) == RunConfig()
    shown = {(section, key) for section in parser.sections()
             for key in parser[section]}
    assert shown == {(section, key) for section, key, _, _ in _KEYS}


def test_python_m_gexpect_version():
    run = _run_fresh("-m", "gexpect", "--version")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == gx.__version__


def test_perfbench_spans_install():
    # the benchmark's tracer binds gexpect names by lookup; renaming or
    # deleting one of them must fail here, not only in a traced bench run
    run = _run_fresh("-c", "import spans; spans.install(spans.Recorder('t'))")
    assert run.returncode == 0, run.stderr


def test_perfbench_worker_lookups(tmp_path):
    # the benchmark worker reads the config loader, the kernel backend,
    # the sweep's thread count and the package version; renaming one of
    # them must fail here, not only in a benchmark run
    path, _ = write_config(tmp_path, run__parallel=2)
    result = tmp_path / "result.json"
    run = _run_fresh(str(ROOT / "perfbench" / "worker.py"),
                     "--workload", "price-2date", "--config", str(path),
                     "--result", str(result), "--setup-only")
    assert run.returncode == 0, run.stderr
    env = json.loads(result.read_text())["env"]
    assert env["backend"] == "reference"
    assert env["run_parallel"] == 2
    assert env["gexpect"] == gx.__version__


def test_perfbench_traced_represent_counts(tmp_path):
    # the tracer's counters also bind parameter names (the march's values,
    # n_steps and out; iter_increment_blocks' seed, n_steps and d) and
    # read_along's result shape: a tiny traced represent counts in each
    path, _ = write_config(tmp_path, payoff__expression="sq(x2 - x1)",
                           payoff__times="0.5,1", grid__n_x=33,
                           mc__n_paths=256, mc__n_steps=16)
    names = ("kernels.march_explicit_1d.node_updates",
             "montecarlo.iter_increment_blocks.blocks",
             "pde.ValueField.read_along.queries",
             "pde.solve_interval.field_mb",
             "representation.gmartingale_gap.busy_s")
    run = _run_fresh("-c", "\n".join((
        "import spans",
        "from gexpect import cli",
        "rec = spans.Recorder('t')",
        "spans.install(rec)",
        f"cfg = cli.RunConfig.from_file({str(path)!r})",
        "assert cli.cmd_represent(cfg, quiet=True) == 0",
        "metrics = rec.metrics()",
        f"idle = [n for n in {names!r} if not metrics[n] > 0]",
        "assert not idle, idle",
    )))
    assert run.returncode == 0, run.stderr
