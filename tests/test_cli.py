import json
import subprocess
import sys

import numpy as np
import pytest

from symevol.cli import main
from symevol.config import (ConfigError, canonical_text, config_digest,
                            load_config, resolve_config_path)

SMALL_CONFIG = """\
[model]
a1 = 1
a2 = 1
a3 = 0.75
a4 = 1.5
omega = 2
epsilon = 0.1
n = 2

[initial]
q1 = 0
v1 = 0.5
q2 = 0
v2 = 0.5

[scenario]
horizon = 5
label = smoke

[integrator]
rtol = 1e-9
atol = 1e-11
sample_dt = 0.5
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_CONFIG)
    return path


def test_config_digest_canonicalization(tmp_path):
    a = tmp_path / "a.ini"
    b = tmp_path / "b.ini"
    a.write_text("[model]\na1 = 1\na2 = 2\n")
    b.write_text("[model]\na2 =  2\na1 = 1\n")
    assert config_digest(load_config(a)) == config_digest(load_config(b))
    assert "model.a1=1" in canonical_text(load_config(a))


def test_resolve_config_presets(small_config):
    assert resolve_config_path(str(small_config)) == small_config
    assert resolve_config_path("fig1").name == "fig1.ini"
    with pytest.raises(ConfigError):
        resolve_config_path("nonexistent.ini")


def test_simulate_writes_csv_and_manifest(small_config, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", str(small_config), "--out", str(out)]) == 0
    csv_text = (out / "trajectory.csv").read_text().splitlines()
    assert csv_text[0] == "t,q1,v1,q2,v2,E1,E2"
    first = csv_text[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[5]) == 0.125
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["outputs"] == ["trajectory.csv"]
    assert len(manifest["config_digest"]) == 64


def test_simulate_rerun_byte_identical(small_config, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", str(small_config), "--out", str(out1)]) == 0
    assert main(["simulate", str(small_config), "--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["config_digest"] == m2["config_digest"]


def test_simulate_numbers_round_trip(small_config, tmp_path):
    from symevol.config import build_scenario
    from symevol.experiments import run_scenario

    out = tmp_path / "out"
    main(["simulate", str(small_config), "--out", str(out)])
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    parsed = np.array([[float(v) for v in row.split(",")] for row in rows])
    res = run_scenario(build_scenario(load_config(small_config)))
    np.testing.assert_array_equal(parsed[:, 0], res.trajectory.times)
    np.testing.assert_array_equal(parsed[:, 1:5], res.trajectory.states)


def test_simulate_malformed_config(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nomega = fast\n")
    assert main(["simulate", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert main(["simulate", str(tmp_path / "missing.ini"),
                 "--out", str(tmp_path / "o")]) == 2


def test_simulate_blow_up_exit_code(tmp_path, capsys):
    cfg = tmp_path / "boom.ini"
    cfg.write_text(SMALL_CONFIG.replace("epsilon = 0.1", "epsilon = 0.9")
                   .replace("q1 = 0", "q1 = 3").replace("q2 = 0", "q2 = 3")
                   .replace("horizon = 5", "horizon = 50"))
    assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "last good time" in capsys.readouterr().err


def test_compare_table_and_exponent(small_config, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(["compare", str(small_config), "--out", str(out),
                 "--eps-list", "0.1,0.05,0.025", "--window", "2.0"])
    assert code == 0
    rows = (out / "compare.csv").read_text().splitlines()
    assert rows[0] == "epsilon,sup_r1,sup_r2,sup_E1,sup_E2"
    assert len(rows) == 4
    summary = json.loads((out / "compare_summary.json").read_text())
    assert 0.5 <= summary["scaling_exponent"] <= 1.5


def test_compare_single_epsilon_has_no_exponent(small_config, tmp_path):
    out = tmp_path / "cmp1"
    assert main(["compare", str(small_config), "--out", str(out),
                 "--eps-list", "0.1"]) == 0
    summary = json.loads((out / "compare_summary.json").read_text())
    assert summary["scaling_exponent"] == "n/a"


def test_compare_rejects_unsupported_omega(small_config, tmp_path, capsys):
    text = small_config.read_text()
    cases = [  # (config edit, extra arguments)
        (("omega = 2", "omega = 1.5"), []),
        (("omega = 2", "omega = 2"), ["--resonance", "13"]),
        (("v2 = 0.5", "v2 = 0"), []),  # normal-mode initial data
    ]
    for k, ((old, new), extra) in enumerate(cases):
        bad = small_config.parent / f"bad_{k}.ini"
        bad.write_text(text.replace(old, new))
        capsys.readouterr()
        assert main(["compare", str(bad), "--out", str(tmp_path / f"x{k}"),
                     "--eps-list", "0.1", *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / f"x{k}").exists()


def test_resonance_json_omega2(capsys):
    assert main(["resonance", "--omega", "2", "--a1", "1", "--a2", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["second_order"]["ratio"]["exact"] == "91/24"
    assert abs(report["second_order"]["ratio"]["value"] - 91.0 / 24.0) < 1e-12
    assert report["first_order"]["ratio"]["exact"] == "8/1"
    assert report["first_order"]["r2_sq"] == pytest.approx(1.0 / 24.0)


def test_resonance_none_and_classification(capsys):
    assert main(["resonance", "--omega", "2", "--a1", "0", "--a2", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["second_order"]["ratio"] == "none"

    assert main(["resonance", "--omega", "3", "--a1", "1", "--a2", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["resonance_13"]["ratio"]["exact"] == "1401/976"

    assert main(["resonance", "--omega", "1", "--a1", "0", "--a2", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    modes = {entry["mode"]: entry for entry in report["classification"]}
    assert modes["q1-normal-mode"]["stable"] is False
    assert modes["in-phase"]["stable"] is True


def test_resonance_invalid_inputs(capsys):
    assert main(["resonance", "--omega", "1", "--a2", "0"]) == 2
    assert main(["resonance", "--omega", "5"]) == 2
    assert main(["resonance", "--omega", "two"]) == 2


def _ensemble_config(tmp_path, extra=""):
    path = tmp_path / "ens.ini"
    path.write_text(SMALL_CONFIG + f"""
[ensemble]
count = 6
seed = 42
q1 = fixed 0
v1 = normal 0.5 0.05
q2 = fixed 0
v2 = fixed 0.5
{extra}
""")
    return path


def test_ensemble_outputs_and_determinism(tmp_path):
    cfg = _ensemble_config(tmp_path)
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    assert main(["ensemble", str(cfg), "--out", str(out1)]) == 0
    assert main(["ensemble", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "moments.csv").read_bytes() == (out2 / "moments.csv").read_bytes()
    assert (out1 / "histograms.json").read_bytes() == (out2 / "histograms.json").read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["seed"] == 42
    assert manifest["failures"] == 0
    assert manifest["failed_particles"] == []
    stats = manifest["integrator_stats"]
    assert set(stats) == {"accepted", "rejected", "rhs_evals", "min_accepted", "max_accepted"}
    assert 6 * stats["min_accepted"] <= stats["accepted"] <= 6 * stats["max_accepted"]
    rows = (out1 / "moments.csv").read_text().splitlines()
    assert rows[0] == "t,mean_v1,disp_v1,mean_v2,disp_v2,mean_E1,mean_E2"


def test_ensemble_manifest_lists_failed_particles(tmp_path):
    cfg = _ensemble_config(tmp_path)
    text = cfg.read_text()
    # a wide q1 range at epsilon = 0.9 pushes part of the ensemble to escape
    for old, new in (("epsilon = 0.1", "epsilon = 0.9"), ("count = 6", "count = 12"),
                     ("q1 = fixed 0", "q1 = uniform 0 3.2"), ("v1 = normal 0.5 0.05", "v1 = fixed 0.1"),
                     ("q2 = fixed 0", "q2 = fixed 0.1"), ("v2 = fixed 0.5", "v2 = fixed 0.1")):
        text = text.replace(old, new)
    cfg.write_text(text)
    out = tmp_path / "fail"
    assert main(["ensemble", str(cfg), "--out", str(out), "--horizon", "30"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    failed = manifest["failed_particles"]
    assert manifest["failures"] == len(failed) > 0
    assert [i for i, _ in failed] == sorted({i for i, _ in failed})
    assert all(0 <= i < 12 and "(last good time t = " in message for i, message in failed)


def test_ensemble_degenerate_sampler_zero_dispersion_column(tmp_path):
    cfg = _ensemble_config(tmp_path)
    text = cfg.read_text().replace("v1 = normal 0.5 0.05", "v1 = fixed 0.5")
    cfg.write_text(text)
    out = tmp_path / "deg"
    assert main(["ensemble", str(cfg), "--out", str(out)]) == 0
    rows = (out / "moments.csv").read_text().splitlines()[1:]
    disp = [float(r.split(",")[2]) for r in rows]
    assert all(v == 0.0 for v in disp)


def test_ensemble_workers_byte_identical(tmp_path):
    serial = _ensemble_config(tmp_path, extra="workers = 1\n")
    four = tmp_path / "four.ini"
    four.write_text(serial.read_text().replace("workers = 1", "workers = 4"))
    assert main(["ensemble", str(serial), "--out", str(tmp_path / "w1")]) == 0
    assert main(["ensemble", str(four), "--out", str(tmp_path / "w4")]) == 0
    for name in ("moments.csv", "histograms.json"):
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w4" / name).read_bytes()
    manifests = [json.loads((tmp_path / d / "manifest.json").read_text()) for d in ("w1", "w4")]
    assert manifests[0]["integrator_stats"] == manifests[1]["integrator_stats"]


def test_reproduce_figure_cli(tmp_path):
    out = tmp_path / "fig"
    assert main(["reproduce-figure", "--which", "fig1", "--out", str(out),
                 "--horizon", "20", "--sample-dt", "0.5", "--rtol", "1e-9"]) == 0
    rows = (out / "fig1.csv").read_text().splitlines()
    assert rows[0] == "t,v1,v2,E1,E2"
    assert float(rows[1].split(",")[3]) == 0.125


def test_order_check_cli(capsys):
    assert main(["order-check", "--steps", "0.2,0.1,0.05", "--horizon", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 3.5 <= report["order"] <= 4.5


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "symevol", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()
