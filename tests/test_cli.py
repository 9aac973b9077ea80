import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gexpect as gx
from gexpect.cli import RunConfig, main
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


def test_config_round_trip(tmp_path):
    path, _ = write_config(tmp_path)
    cfg = RunConfig.from_file(path)
    again = RunConfig.from_string(cfg.emit())
    assert again == cfg
    assert again.fingerprint() == cfg.fingerprint()


def test_unknown_key_rejected(tmp_path):
    path, _ = write_config(tmp_path)
    text = path.read_text() + "\nwibble = 3\n"
    path.write_text(text)
    assert main(["price", "--config", str(path)]) == 1


def test_unknown_section_rejected(tmp_path):
    path, _ = write_config(tmp_path)
    path.write_text(path.read_text() + "\n[extra]\nkey = 1\n")
    assert main(["price", "--config", str(path)]) == 1


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


def test_price_gap_breach_exit_3(tmp_path):
    # an impossible gap window forces the verification-breach exit path
    path, _ = write_config(tmp_path, run__gap_tolerance="-1.0")
    assert main(["price", "--config", str(path), "--quiet"]) == 3


def test_represent_csv_embeds_fingerprint(tmp_path):
    path, out = write_config(tmp_path, payoff__expression="x1",
                             mc__n_paths=200, mc__n_steps=64)
    assert main(["represent", "--config", str(path), "--quiet"]) == 0
    first = (out / "decomposition.csv").read_text().splitlines()[0]
    assert first == f"# fingerprint={RunConfig.from_file(path).fingerprint()}"


def test_price_numerical_failure_exit_2(tmp_path):
    path, _ = write_config(tmp_path, payoff__expression="sq(x3)",
                           payoff__times="0.3,0.6,1.0", grid__n_x=401)
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


@pytest.mark.parametrize("body", [
    None,
    "floor = 1e-06\n",
    "floor = 1e-06\ncount = 1\ncontrol.1.label = high\n"
    "control.1.breakpoints = 0.0,1.0\ncontrol.1.values = 3.0\n",
], ids=["missing", "no-count", "outside-band"])
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


def test_verify_apriori_all_paths_excluded_exit_2(tmp_path, capsys):
    # as above: a control with no included path fails the suite instead of
    # dropping out of its sup
    path, _ = write_config(tmp_path, grid__n_x=41, grid__x_max=0.5,
                           mc__n_paths=64, mc__n_steps=32,
                           mc__seed=20100920, family__constant_controls=9)
    assert main(["verify", "--config", str(path), "--suite", "apriori",
                 "--quiet"]) == 2
    assert "numerical failure:" in capsys.readouterr().err


def test_represent_symmetry_paths_excluded_exit_2(tmp_path, capsys):
    # the gap sweep keeps included paths (2 of 8192), but none among the
    # first 2048 that the symmetry check reads: exit 2, not "symmetric"
    path, _ = write_config(tmp_path, grid__n_x=41, grid__x_max=0.4,
                           mc__n_paths=8192, mc__n_steps=16, mc__seed=1,
                           family__constant_controls=1)
    assert main(["represent", "--config", str(path), "--quiet"]) == 2
    assert "all paths excluded" in capsys.readouterr().err


@pytest.mark.parametrize("expression, times", [("call(x1, 0)", "1"),
                                               ("call(x2 - x1, 0)", "0.5,1")])
@pytest.mark.parametrize("n_paths", [1000, 4196])
@pytest.mark.parametrize("parallel", [1, 2])
def test_represent_symmetry_matches_is_symmetric(tmp_path, expression, times,
                                                 n_paths, parallel):
    # represent reads the symmetry evidence off its gap sweep; it must equal
    # a separate is_symmetric sweep of the first min(n_paths, 2048) paths
    # (call payoffs: K depends on the path; on seed 4 the largest |K| of
    # 4196 paths lies past the first 2048, so reading too many paths shows)
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
                         n_paths=min(n_paths, 2048), n_steps=cfg.n_steps,
                         seed=gx.derive_seed(cfg.seed, "represent"),
                         degree=parallel)
    assert ev.k_abs_max > 0.0
    if n_paths > 2048:
        every = gx.is_symmetric(payoff, band, field, cfg.family(), tol=1e-8,
                                n_paths=n_paths, n_steps=cfg.n_steps,
                                seed=gx.derive_seed(cfg.seed, "represent"))
        assert every.k_abs_max > ev.k_abs_max
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
