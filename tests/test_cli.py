import configparser
import contextlib
import csv
import importlib.util
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from symevol.cli import _write_csv, main
from symevol.experiments import compare_full_vs_averaged
from symevol.config import (_KEYS, ConfigError, build_compare, build_ensemble, build_scenario,
                            load_config, preset_path, resolve_config_path, run_digest)
from symevol.integrate import MAX_GRID_POINTS

ROOT = Path(__file__).resolve().parents[1]

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
    # key order and whitespace do not change the run a config builds
    a = tmp_path / "a.ini"
    b = tmp_path / "b.ini"
    a.write_text(SMALL_CONFIG)
    b.write_text(SMALL_CONFIG.replace("a1 = 1\na2 = 1\n", "a2 =   1\na1=1\n"))
    assert a.read_text() != b.read_text()
    assert (run_digest(build_scenario(load_config(a)))
            == run_digest(build_scenario(load_config(b))))


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
    traj = run_scenario(build_scenario(load_config(small_config)))
    np.testing.assert_array_equal(parsed[:, 0], traj.times)
    np.testing.assert_array_equal(parsed[:, 1:5], traj.states)


def test_observables_key_is_ignored(small_config, tmp_path):
    # no command reads [scenario] observables: any value loads and runs the
    # same trajectory as a config without the key
    assert main(["simulate", str(small_config), "--out", str(tmp_path / "none")]) == 0
    reference = (tmp_path / "none" / "trajectory.csv").read_bytes()
    for k, value in enumerate(("actions,invariants", "momenta")):
        cfg = tmp_path / f"obs{k}.ini"
        cfg.write_text(SMALL_CONFIG.replace("[scenario]", f"[scenario]\nobservables = {value}"))
        out = tmp_path / f"obs{k}"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        assert (out / "trajectory.csv").read_bytes() == reference, value


def _digest_of(argv, out):
    assert main([*argv, "--out", str(out)]) == 0
    return json.loads((out / "manifest.json").read_text())["config_digest"]


def test_manifest_digest_covers_overrides(small_config, tmp_path):
    # equal digests must mean equal data: every override that changes the run
    # changes the digest, and a run without overrides has the digest of the
    # record its config builds
    cfg = load_config(small_config)
    sim = [_digest_of(["simulate", str(small_config), *extra], tmp_path / f"s{k}")
           for k, extra in enumerate(([], ["--horizon", "3"], ["--horizon", "4"],
                                      ["--sample-dt", "0.25"], ["--rtol", "1e-8"]))]
    assert sim[0] == run_digest(build_scenario(cfg)) and len(set(sim)) == len(sim)
    cmp = [_digest_of(["compare", str(small_config), *extra], tmp_path / f"c{k}")
           for k, extra in enumerate(([], ["--eps-list", "0.1"], ["--eps-list", "0.05"],
                                      ["--window", "0.5"]))]
    # 0.1 is the default ladder: the same run as no flag
    assert cmp[0] == cmp[1] == run_digest(build_compare(cfg))
    assert len({cmp[0], cmp[2], cmp[3]}) == 3
    ens = _ensemble_config(tmp_path, count=2)
    seeds = [_digest_of(["ensemble", str(ens), *extra], tmp_path / f"e{k}")
             for k, extra in enumerate(([], ["--seed", "1"], ["--seed", "2"]))]
    assert seeds[0] == run_digest(build_ensemble(load_config(ens))) and len(set(seeds)) == 3


def test_simulate_spellings_of_one_run_share_a_digest(tmp_path):
    # the fig1 preset cut to horizon 3, written five ways: one run, one digest
    preset = preset_path("fig1").read_text().replace("horizon = 1000", "horizon = 3")
    spellings = {
        "as_is": (preset, []),
        "flag": (preset, ["--horizon", "3"]),
        "float": (preset.replace("horizon = 3", "horizon = 3.0"), []),
        "rtol": (preset.replace("rtol = 1e-10", "rtol = 1.0e-10"), []),
        "ignored_key": (preset + "workers = 1\n", []),
    }
    digests, data = set(), set()
    for name, (text, flags) in spellings.items():
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(text)
        digests.add(_digest_of(["simulate", str(cfg), *flags], tmp_path / name))
        data.add((tmp_path / name / "trajectory.csv").read_bytes())
    assert len(data) == 1 and len(digests) == 1


def test_compare_digest_ignores_settings_compare_does_not_read(tmp_path):
    # compare reads neither [scenario], [integrator] sample_dt nor the
    # config's own epsilon: configs that differ only there make one run
    bare = (SMALL_CONFIG.replace("[scenario]\nhorizon = 5\nlabel = smoke\n", "")
            .replace("sample_dt = 0.5\n", ""))
    texts = {"bare": bare,
             "scenario": SMALL_CONFIG.replace("horizon = 5", "horizon = 7"),
             "epsilon": bare.replace("epsilon = 0.1", "epsilon = 0.3")}
    digests, data = set(), set()
    for name, text in texts.items():
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(text)
        digests.add(_digest_of(["compare", str(cfg)], tmp_path / name))
        data.add((tmp_path / name / "compare.csv").read_bytes())
    assert len(data) == 1 and len(digests) == 1


def test_default_setting_written_out_shares_the_digest(tmp_path):
    # a config that omits rtol runs the default 1e-10, as one that writes it
    omitted, written = tmp_path / "omitted.ini", tmp_path / "written.ini"
    omitted.write_text(SMALL_CONFIG.replace("rtol = 1e-9\n", ""))
    written.write_text(SMALL_CONFIG.replace("rtol = 1e-9", "rtol = 1e-10"))
    assert (_digest_of(["simulate", str(omitted)], tmp_path / "o")
            == _digest_of(["simulate", str(written)], tmp_path / "w"))


def test_simulate_malformed_config(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nomega = fast\n")
    assert main(["simulate", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert main(["simulate", str(tmp_path / "missing.ini"),
                 "--out", str(tmp_path / "o")]) == 2
    rk4 = tmp_path / "rk4.ini"  # only rk45 runs; rk4 must not silently run rk45
    rk4.write_text(SMALL_CONFIG.replace("[integrator]", "[integrator]\nmethod = rk4"))
    assert main(["simulate", str(rk4), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def _run_cli(argv):
    """(exit code, stderr lines) of one in-process CLI call; a warning
    counts as a stderr line, as the installed command prints it."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    return code, lines


BAD_SETTINGS = [["--rtol", "0"], ["--rtol", "-1"], ["--rtol", "nan"], ["--rtol", "1e-300"],
                ["--atol", "0"], ["--sample-dt", "-0.1"], ["--sample-dt", "1e-300"],
                ["--horizon", "-1"], ["--horizon", "inf"], ["--horizon", "nan"]]


def test_bad_run_settings_exit_2_before_any_output(small_config, tmp_path):
    runs = [["simulate", str(small_config)], ["ensemble", str(_ensemble_config(tmp_path))],
            ["reproduce-figure", "--which", "fig1"]]
    for k, argv in enumerate(run + flag for run in runs for flag in BAD_SETTINGS):
        out = tmp_path / f"o{k}"
        code, lines = _run_cli([*argv, "--out", str(out)])
        assert code == 2 and len(lines) == 1 and "Traceback" not in lines[0], argv
        assert not out.exists(), argv
    # options that used to be accepted and ignored are usage errors now
    for argv in (["compare", str(small_config), "--horizon", "3"],
                 ["compare", str(small_config), "--sample-dt", "7"],
                 ["reproduce-figure", "--which", "fig1", "--atol", "1e-9"]):
        code, lines = _run_cli([*argv, "--out", str(tmp_path / "removed")])
        assert code == 2 and len(lines) == 1 and "unrecognized arguments" in lines[0], argv
        assert not (tmp_path / "removed").exists()
    for argv in (["--horizon", "-1"], ["--steps", "0,0,0"], ["--steps", "0.2,0.1,1e-300"]):
        code, lines = _run_cli(["order-check", *argv])
        assert code == 2 and len(lines) == 1 and lines[0].startswith("config error: "), argv
    for eps_list in ("abc", "0.1,x", "nan", "0", "1.5", ","):
        out = tmp_path / "eps"
        code, lines = _run_cli(["compare", str(small_config), "--eps-list", eps_list,
                                "--out", str(out)])
        assert code == 2 and len(lines) == 1 and lines[0].startswith("config error: "), eps_list
        assert not out.exists(), eps_list
    # grids over the sample ceiling: a compare window of 10^10 samples, and
    # 6 particles of 2*10^6 samples each
    for argv in (["compare", str(small_config), "--window", "1e9", "--eps-list", "1"],
                 ["ensemble", str(_ensemble_config(tmp_path)), "--horizon", "20000",
                  "--sample-dt", "0.01"]):
        out = tmp_path / "huge"
        code, lines = _run_cli([*argv, "--out", str(out)])
        assert code == 2 and len(lines) == 1 and "over 10000000 samples" in lines[0], argv
        assert not out.exists(), argv


SETTING_FLAGS = {
    "simulate": ("--rtol", "--atol", "--sample-dt", "--horizon"),
    "ensemble": ("--rtol", "--atol", "--sample-dt", "--horizon"),
    "reproduce-figure": ("--rtol", "--sample-dt", "--horizon"),
    "order-check": ("--horizon", "--steps"),
    "resonance": ("--omega", "--a1", "--a2", "--e0"),
}
# valid values per flag (horizons short: a valid long run is slow, not a defect)
VALID_SETTING = {"--rtol": ("1e-6",), "--atol": ("1e-9",), "--sample-dt": ("0.5",),
                 "--horizon": ("1.5",), "--steps": ("0.05",), "--omega": ("1", "2", "3"),
                 "--a1": ("1",), "--a2": ("1",), "--e0": ("1/4",)}
# the last two are beyond the float range, which exact (Fraction) inputs can reach
EDGE_VALUES = ("0", "-1", "nan", "inf", "1e-300", "1e300", "1e400", "1e-400")


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cli_contract_for_any_run_setting(data):
    command = data.draw(st.sampled_from(sorted(SETTING_FLAGS)), label="command")
    values = {flag: data.draw(st.sampled_from((*VALID_SETTING[flag], *EDGE_VALUES)), label=flag)
              for flag in SETTING_FLAGS[command]}
    assume(not (values.get("--horizon") == values.get("--sample-dt") == "1e300"))
    if "--steps" in values:
        values["--steps"] = "0.2,0.1," + values["--steps"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = {"simulate": ["simulate", "fig1", "--out", str(out)],
                "ensemble": ["ensemble", str(_ensemble_config(Path(tmp), count=4)),
                             "--out", str(out)],
                "reproduce-figure": ["reproduce-figure", "--which", "fig1", "--out", str(out)],
                "order-check": ["order-check"], "resonance": ["resonance"]}[command]
        code, lines = _run_cli(argv + [x for item in values.items() for x in item])
        assert code in (0, 2, 3), (argv, values, code)
        assert len(lines) <= 1 and not any("Traceback" in line for line in lines), lines
        assert code == 0 or not out.exists()


def test_simulate_blow_up_exit_code(tmp_path, capsys):
    cfg = tmp_path / "boom.ini"
    cfg.write_text(SMALL_CONFIG.replace("epsilon = 0.1", "epsilon = 0.9")
                   .replace("q1 = 0", "q1 = 3").replace("q2 = 0", "q2 = 3")
                   .replace("horizon = 5", "horizon = 50"))
    assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "last good time" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # a failed run writes nothing


def test_loose_atol_stays_on_the_solution(tmp_path):
    # at atol 1e300 the Taylor step's tolerance bounds nothing, but the cap
    # at e^-2 of the series' estimated radius of convergence keeps every
    # step where the series converges: the run stays on the default run's
    # solution (without the cap it takes one step of 10 and ends near 1e8)
    runs = []
    for extra in ([], ["--atol", "1e300"]):
        out = tmp_path / f"atol{len(runs)}"
        assert main(["simulate", "fig1", "--horizon", "10", "--out", str(out), *extra]) == 0
        runs.append(np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1))
    assert runs[0].shape == runs[1].shape == (41, 7)
    assert np.max(np.abs(runs[1] - runs[0])) < 1e-6


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


def _strict_json(text):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_compare_all_zero_sups_have_no_exponent(tmp_path, capsys):
    # a window so short that every sup is exactly 0: no log-log fit, and
    # every JSON written is valid JSON
    out = tmp_path / "cmp0"
    assert main(["compare", "fig1", "--eps-list", "0.1,0.05", "--window", "1e-20",
                 "--out", str(out)]) == 0
    assert _strict_json(capsys.readouterr().out)["scaling_exponent"] == "n/a"
    assert _strict_json((out / "compare_summary.json").read_text())["scaling_exponent"] == "n/a"
    assert _strict_json((out / "manifest.json").read_text())["scaling_exponent"] == "n/a"


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


def test_compare_reads_settings_from_config(small_config, tmp_path):
    # [compare] eps_list, window and resonance are run settings like any other:
    # a key in the config and the same value as a flag make one run, one digest,
    # and so do an omitted resonance and omega's default named explicitly
    keyed = tmp_path / "keyed.ini"
    keyed.write_text(SMALL_CONFIG + "\n[compare]\neps_list = 0.05\nwindow = 0.5\n"
                                    "resonance = 12-second\n")
    runs = {
        "keyed": ["compare", str(keyed)],
        "flags": ["compare", str(small_config), "--eps-list", "0.05", "--window", "0.5",
                  "--resonance", "12-second"],
        "flag_wins": ["compare", str(keyed), "--eps-list", "0.1", "--window", "1",
                      "--resonance", "12-first"],
        "defaults": ["compare", str(small_config)],
        "default_named": ["compare", str(small_config), "--resonance", "12-first"],
    }
    digests = {name: _digest_of(argv, tmp_path / name) for name, argv in runs.items()}
    data = {name: (tmp_path / name / "compare.csv").read_bytes() for name in runs}
    assert data["keyed"] == data["flags"] and digests["keyed"] == digests["flags"]
    assert data["flag_wins"] == data["defaults"] == data["default_named"] != data["keyed"]
    assert digests["defaults"] == digests["default_named"] == digests["flag_wins"]
    assert data["keyed"].splitlines()[1].startswith(b"0.050000000000000003,")
    summary = json.loads((tmp_path / "keyed" / "compare_summary.json").read_text())
    assert summary["resonance"] == "12-second" and summary["window_L"] == 0.5
    summary = json.loads((tmp_path / "defaults" / "compare_summary.json").read_text())
    assert summary["resonance"] == "12-first"


@pytest.mark.parametrize("key", ["eps_list = abc", "eps_list = 0", "window = wide",
                                 "resonance = bogus", "resonance = 13"])
def test_compare_bad_config_setting_exit_2(tmp_path, key):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(SMALL_CONFIG + f"\n[compare]\n{key}\n")
    out = tmp_path / "out"
    code, lines = _run_cli(["compare", str(cfg), "--out", str(out)])
    assert code == 2 and len(lines) == 1 and lines[0].startswith("config error: "), lines
    assert not out.exists()


def test_compare_does_not_read_scenario(small_config, tmp_path):
    # compare integrates over [0, window/epsilon]: a config without [scenario]
    # runs, and writes what the same config with a horizon writes
    bare = tmp_path / "bare.ini"
    bare.write_text(SMALL_CONFIG.replace("[scenario]\nhorizon = 5\nlabel = smoke\n", ""))
    assert "[scenario]" not in bare.read_text()
    for name, cfg in (("bare", bare), ("with_horizon", small_config)):
        code, lines = _run_cli(["compare", str(cfg), "--eps-list", "0.1,0.05",
                                "--out", str(tmp_path / name)])
        assert code == 0 and lines == [], name
    assert ((tmp_path / "bare" / "compare.csv").read_bytes()
            == (tmp_path / "with_horizon" / "compare.csv").read_bytes())


def test_compare_runs_through_normal_mode(tmp_path):
    # at omega 1, 1e-6 from the q1 normal mode and with loose tolerances, where
    # the polar chart is singular: the regular chart runs the averaged system
    # to the end
    text = (SMALL_CONFIG.replace("omega = 2", "omega = 1").replace("a2 = 1", "a2 = 20")
            .replace("q2 = 0", "q2 = 1e-6").replace("v2 = 0.5", "v2 = 1e-6"))
    cfg = tmp_path / "near_mode.ini"
    cfg.write_text(text)
    argv = ["compare", str(cfg), "--eps-list", "1", "--window", "2",
            "--rtol", "1e-3", "--atol", "1e-3"]
    code, lines = _run_cli([*argv, "--out", str(tmp_path / "mid")])
    assert code == 0 and lines == []
    rows = (tmp_path / "mid" / "compare.csv").read_text().splitlines()
    assert len(rows) == 2 and all(math.isfinite(float(v)) for v in rows[1].split(","))
    # the same system from initial data on the normal mode is rejected up front
    cfg.write_text(text.replace("q2 = 1e-6", "q2 = 0").replace("v2 = 1e-6", "v2 = 0"))
    code, lines = _run_cli([*argv, "--out", str(tmp_path / "mode")])
    assert code == 2 and len(lines) == 1 and lines[0].startswith("config error: normal-mode")
    assert not (tmp_path / "mode").exists()


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
    # exact inputs whose ratios or squares leave the float range
    for argv in (["--omega", "1", "--a1", "1e400"], ["--omega", "1", "--a1", "1", "--a2", "1e-400"],
                 ["--omega", "2", "--e0", "1e400"],
                 # and whose reported values underflow a float
                 ["--omega", "3", "--a1", "1e400"], ["--omega", "2", "--e0", "1e-400"],
                 ["--omega", "2", "--e0", "1e-330"],
                 # or land among the subnormal floats, with few correct digits
                 ["--omega", "2", "--e0", "1e-320"],
                 ["--omega", "1", "--a1", "1e-200", "--a2", "1e200"]):
        code, lines = _run_cli(["resonance", *argv])
        assert code == 2 and len(lines) == 1 and lines[0].startswith("config error: "), argv
    # a true zero is a float: the 1:2 surface of energy 0 has r1^2 = r2^2 = 0
    capsys.readouterr()
    assert main(["resonance", "--omega", "2", "--e0", "0"]) == 0
    first = json.loads(capsys.readouterr().out)["first_order"]
    assert first["r1_sq"] == first["r2_sq"] == 0.0


ENSEMBLE_SECTION = """
[ensemble]
count = {count}
seed = 42
q1 = fixed 0
v1 = normal 0.5 0.05
q2 = fixed 0
v2 = fixed 0.5
"""


def _ensemble_config(tmp_path, extra="", count=6):
    path = tmp_path / "ens.ini"
    path.write_text(SMALL_CONFIG + ENSEMBLE_SECTION.format(count=count) + extra + "\n")
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
    assert set(stats) == {"method", "order", "accepted", "rejected", "rejected_error",
                          "rejected_nonfinite", "rhs_evals", "h_min", "h_max", "h_final",
                          "min_accepted", "max_accepted"}
    assert (stats["method"], stats["rejected_error"]) == ("taylor", 0) and stats["order"] > 2
    for key in ("h_min", "h_max", "h_final"):  # the spread over the particles
        assert 0.0 < stats[key]["min"] <= stats[key]["median"] <= stats[key]["max"]
    assert stats["h_min"]["min"] <= stats["h_max"]["max"]
    assert stats["rejected"] == stats["rejected_error"] + stats["rejected_nonfinite"]
    assert 6 * stats["min_accepted"] <= stats["accepted"] <= 6 * stats["max_accepted"]
    rows = (out1 / "moments.csv").read_text().splitlines()
    assert rows[0] == "t,mean_v1,disp_v1,mean_v2,disp_v2,mean_E1,mean_E2"


def test_every_run_command_writes_integrator_stats(small_config, tmp_path):
    # each of the four run commands explains its runs in the manifest: the
    # method, the step counts and the smallest, largest and last step of its
    # run, of its ensemble's rows (their spread over the rows), and of both
    # runs of every compare rung, which each equal the run made on its own.
    # The full model runs the Taylor method, compare's averaged field rk45
    keys = {"method", "accepted", "rejected", "rejected_error", "rejected_nonfinite",
            "rhs_evals", "h_min", "h_max", "h_final"}
    runs = {"simulate": ["simulate", str(small_config)],
            "reproduce-figure": ["reproduce-figure", "--which", "fig1", "--horizon", "2"],
            "compare": ["compare", str(small_config), "--eps-list", "0.1,0.05"],
            "ensemble": ["ensemble", str(_ensemble_config(tmp_path))]}
    manifests = {}
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
        manifests[name] = json.loads((tmp_path / name / "manifest.json").read_text())
    for name in ("simulate", "reproduce-figure"):
        stats = manifests[name]["integrator_stats"]
        assert set(stats) == keys | {"order"}
        assert (stats["method"], stats["rejected_error"]) == ("taylor", 0) and stats["order"] > 2
        assert stats["rhs_evals"] == stats["accepted"] + stats["rejected"] > 0
        assert 0.0 < stats["h_min"] <= stats["h_final"] <= stats["h_max"]
    stats = manifests["ensemble"]["integrator_stats"]
    assert set(stats) == keys | {"order", "min_accepted", "max_accepted"}
    assert stats["method"] == "taylor" and set(stats["h_max"]) == {"min", "median", "max"}
    rungs = manifests["compare"]["integrator_stats"]
    assert [rung["epsilon"] for rung in rungs] == [0.1, 0.05]
    ladder, initial, settings = build_compare(load_config(small_config), {"eps_list": "0.1,0.05"})
    for rung, params in zip(rungs, ladder, strict=True):
        assert set(rung) == {"epsilon", "full", "averaged"}
        res = compare_full_vs_averaged(params, initial, **settings)
        assert rung["full"] == res.full_stats and rung["averaged"] == res.averaged_stats
        assert set(rung["full"]) == keys | {"order"} and set(rung["averaged"]) == keys
        assert (rung["full"]["method"], rung["averaged"]["method"]) == ("taylor", "rk45")
        assert rung["full"]["accepted"] > 0 and rung["averaged"]["accepted"] > 0
        assert rung["averaged"]["rhs_evals"] == 1 + 6 * (rung["averaged"]["accepted"]
                                                         + rung["averaged"]["rejected"])


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
    # when every particle fails, no statistics exist: a numerical failure;
    # from q1 = 1.5 up every particle of this ensemble escapes
    cfg.write_text(text.replace("q1 = uniform 0 3.2", "q1 = uniform 2 3.2"))
    code, lines = _run_cli(["ensemble", str(cfg), "--out", str(tmp_path / "none"),
                            "--horizon", "30"])
    assert code == 3 and len(lines) == 1
    assert lines[0].startswith("numerical failure: every particle integration failed")
    assert not (tmp_path / "none").exists()


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


@pytest.mark.parametrize("sampler", ["normal 0.5 -1", "uniform 0.4 inf", "fixed nan",
                                     "normal 0.5 nan", "uniform -inf 0.6", "fixed", ""])
def test_ensemble_bad_sampler_exit_2(tmp_path, sampler):
    cfg = _ensemble_config(tmp_path)
    cfg.write_text(cfg.read_text().replace("v1 = normal 0.5 0.05", f"v1 = {sampler}"))
    out = tmp_path / "out"
    code, lines = _run_cli(["ensemble", str(cfg), "--out", str(out)])
    assert code == 2 and len(lines) == 1 and lines[0].startswith("config error: bad sampler")
    assert not out.exists()


@pytest.mark.parametrize("key, edit", [
    ("vv2", ("v2 = fixed 0.5", "vv2 = normal 0.5 0.05")),
    ("sed", ("seed = 42", "sed = 42")),
    ("q3", ("q2 = fixed 0", "q2 = fixed 0\nq3 = fixed 0")),
])
def test_ensemble_unknown_key_exit_2(tmp_path, key, edit):
    # [ensemble] is the one section whose unknown keys are errors: a misspelt
    # coordinate would run fixed at its [initial] value, a misspelt seed at 0
    cfg = _ensemble_config(tmp_path)
    cfg.write_text(cfg.read_text().replace(*edit))
    assert f"\n{key} = " in cfg.read_text()
    out = tmp_path / "out"
    code, lines = _run_cli(["ensemble", str(cfg), "--out", str(out)])
    assert code == 2 and len(lines) == 1 and lines[0].startswith("config error: "), lines
    assert f"[ensemble] {key};" in lines[0], lines
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "ensemble"])
@pytest.mark.parametrize("default", ["[DEFAULT]\nn = 3\n", "[DEFAULT]\nlabel = x\n", "[DEFAULT]\n"],
                         ids=["n", "label", "empty"])
def test_default_section_exit_2(tmp_path, command, default):
    # configparser copies a [DEFAULT] section's keys into every section, so
    # n = 3 there would set [model] n unseen, and in [ensemble] any such key
    # would be reported as misspelt; the loader rejects the section itself
    cfg = tmp_path / "default.ini"
    cfg.write_text(default + _ensemble_config(tmp_path).read_text().replace("n = 2\n", ""))
    assert "\nn = " not in cfg.read_text().split("[model]")[1]
    out = tmp_path / "out"
    code, lines = _run_cli([command, str(cfg), "--out", str(out)])
    assert code == 2 and lines == ["config error: a [DEFAULT] section is not supported; "
                                   "write each key in the section that reads it"], lines
    assert not out.exists()


@pytest.mark.parametrize("text, where", [("[model]\na1 = 1\nfoo\n", "[line  3]: 'foo\\n'"),
                                         ("[model\n", "line: 1 '[model\\n'"),
                                         ("[model]\na1 = 5%\n", "'%' must be followed")],
                         ids=["no-equals", "open-header", "percent"])
def test_unparsable_config_exit_2_on_one_line(tmp_path, text, where):
    # configparser writes the line number and the offending line on lines of
    # their own, and a stray % fails only when the value is read; the loader
    # reports each as one config error line that keeps them
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    code, lines = _run_cli(["simulate", str(cfg), "--out", str(out)])
    assert code == 2 and len(lines) == 1, lines
    assert lines[0].startswith("config error: cannot parse config: ") and where in lines[0], lines
    assert not out.exists()


def test_benchmark_ensemble_config_runs(tmp_path, monkeypatch):
    # the benchmark's [ensemble] text carries the retired key workers, which
    # is accepted and ignored
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "benchmarks" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    cfg = tmp_path / "bench.ini"
    cfg.write_text(workloads.FIG1_MODEL.format(v1=0.5, v2=0.5)
                   + workloads.ENSEMBLE_SECTION.format(count=4))
    assert "workers = 1" in cfg.read_text()
    code, lines = _run_cli(["ensemble", str(cfg), "--out", str(tmp_path / "out"),
                            "--horizon", "1", "--seed", "3"])
    assert code == 0 and lines == []
    assert (tmp_path / "out" / "moments.csv").exists()


def test_readme_config_block_holds_every_key(tmp_path):
    # the example under README's "Config format" names every key of the table,
    # but the retired [ensemble] workers, and no other
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Config format", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    example_ini = tmp_path / "readme.ini"
    example_ini.write_text(block)
    documented = {(s, k) for s, keys in load_config(example_ini).items() for k in keys}
    table = {(s, k) for s, keys in _KEYS.items() for k in keys}
    assert documented == table - {("ensemble", "workers")}


@pytest.mark.parametrize("edit", [("a1 = 1", "a1 = nan"), ("a4 = 1.5", "a4 = inf"),
                                  ("omega = 2", "omega = nan"), ("omega = 2", "omega = inf")])
def test_non_finite_model_coefficient_exit_2(tmp_path, edit):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(SMALL_CONFIG.replace(*edit))
    out = tmp_path / "out"
    code, lines = _run_cli(["simulate", str(cfg), "--out", str(out)])
    assert code == 2 and len(lines) == 1 and "must be finite" in lines[0], lines
    assert not out.exists()


@pytest.mark.parametrize("command, edit, flags", [
    ("simulate", ("q1 = 0", "t0 = -5\nq1 = 0"), []),
    ("ensemble", ("q1 = 0", "t0 = -5\nq1 = 0"), []),
    ("simulate", ("label = smoke", "label = caf\xe9"), []),  # written as latin-1
    ("simulate", ("omega = 2", "omega = 1e300"), []),
    ("ensemble", ("v1 = normal 0.5 0.05", "v1 = uniform 0.6 0.4"), []),
    ("ensemble", ("v1 = normal 0.5 0.05", "v1 = uniform -1e308 1e308"), []),
    ("ensemble", ("seed = 42", "seed = -1"), []),
    ("ensemble", ("seed = 42", "seed = 18446744073709551616"), []),
    ("ensemble", ("seed = 42", "seed = 42"), ["--seed", "-1"]),
])
def test_bad_input_exit_2_before_any_output(tmp_path, command, edit, flags):
    # a time before the decay starts, a non-UTF-8 byte, an omega whose square
    # overflows, an empty or unbounded uniform range and a seed outside the
    # generator's key are rejected where they are read
    cfg = tmp_path / "bad.ini"
    cfg.write_text(_ensemble_config(tmp_path).read_text().replace(*edit), encoding="latin-1")
    out = tmp_path / "out"
    code, lines = _run_cli([command, str(cfg), "--out", str(out), *flags])
    assert code == 2 and len(lines) == 1 and lines[0].startswith("config error: "), lines
    assert not out.exists()


def _sections(text: str) -> dict:
    parser = configparser.ConfigParser()
    parser.read_string(text)
    return {section: dict(parser[section]) for section in parser.sections()}


def _fuzzed_config(command: str, edit) -> bytes:
    """SMALL_CONFIG (with an [ensemble] section for ``ensemble``) after one
    edit: ("drop", section, key or None, _), ("set", section, key, value) or
    ("byte", _, _, position), which puts the byte 0xe9 at that position."""
    kind, section, key, value = edit
    sections = _sections(SMALL_CONFIG + (ENSEMBLE_SECTION.format(count=4)
                                         if command == "ensemble" else ""))
    if kind == "drop" and key is None:
        sections.pop(section, None)
    elif kind == "drop":
        sections.get(section, {}).pop(key, None)
    elif kind == "set":
        sections.setdefault(section, {})[key] = value
    data = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items()).encode()
    if kind == "byte":
        position = value % (len(data) + 1)
        data = data[:position] + b"\xe9" + data[position:]
    return data


_FUZZ_SECTIONS = _sections(SMALL_CONFIG + ENSEMBLE_SECTION.format(count=4))
_FUZZ_KEYS = [(s, k) for s, keys in _FUZZ_SECTIONS.items() for k in keys] + [("initial", "t0")]
# one particle of the fuzzed ensemble holds horizon / sample_dt = 10 samples
_COUNT_OVER_CEILING = str(MAX_GRID_POINTS // 10 + 1)
_FUZZ_KEY = st.sampled_from(_FUZZ_KEYS)
_FUZZ_SECTION = st.sampled_from(sorted(_FUZZ_SECTIONS))
CONFIG_EDITS = st.one_of(
    st.builds(lambda section: ("drop", section, None, None), _FUZZ_SECTION),
    st.builds(lambda key: ("drop", *key, None), _FUZZ_KEY),
    st.builds(lambda section: ("set", section, "unknown_key", "1"), _FUZZ_SECTION),
    st.builds(lambda key, value: ("set", *key, value), _FUZZ_KEY,
              st.sampled_from(("abc", "nan", "inf", "-1", "0", "1e300"))),
    st.builds(lambda count: ("set", "ensemble", "count", count),
              st.sampled_from(("0", _COUNT_OVER_CEILING))),
    st.builds(lambda position: ("byte", None, None, position), st.integers(0, 10**4)),
)


@settings(max_examples=30, deadline=None)
@given(command=st.sampled_from(("simulate", "compare", "ensemble")), edit=CONFIG_EDITS)
@example(command="simulate", edit=("set", "initial", "t0", "-5"))
@example(command="ensemble", edit=("set", "initial", "t0", "-5"))
@example(command="simulate", edit=("byte", None, None, 40))
@example(command="simulate", edit=("set", "model", "omega", "1e300"))
# numerical failures (exit 3), which write no output directory
@example(command="simulate", edit=("set", "initial", "q1", "1e300"))
@example(command="ensemble", edit=("set", "model", "a1", "1e300"))
@example(command="ensemble", edit=("set", "ensemble", "v1", "uniform 0.6 0.4"))
@example(command="ensemble", edit=("set", "ensemble", "v1", "uniform -1e308 1e308"))
@example(command="ensemble", edit=("set", "ensemble", "seed", "-1"))
@example(command="ensemble", edit=("set", "ensemble", "seed", "18446744073709551616"))
def test_cli_contract_for_any_config(command, edit):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "fuzz.ini", Path(tmp) / "out"
        cfg.write_bytes(_fuzzed_config(command, edit))
        code, lines = _run_cli([command, str(cfg), "--out", str(out)])
        assert code in (0, 2, 3), (command, edit, code)
        assert len(lines) <= 1 and not any("Traceback" in line for line in lines), lines
        assert code == 0 or not out.exists()


def test_reproduce_figure_cli(tmp_path):
    out = tmp_path / "fig"
    assert main(["reproduce-figure", "--which", "fig1", "--out", str(out),
                 "--horizon", "20", "--sample-dt", "0.5", "--rtol", "1e-9"]) == 0
    rows = (out / "fig1.csv").read_text().splitlines()
    assert rows[0] == "t,v1,v2,E1,E2"
    assert float(rows[1].split(",")[3]) == 0.125


def test_reproduce_figure_digest_covers_rtol(tmp_path):
    digests = []
    for k, rtol in enumerate(([], ["--rtol", "1e-10"], ["--rtol", "1e-4"])):
        out = tmp_path / f"f{k}"
        assert main(["reproduce-figure", "--which", "fig1", "--horizon", "5",
                     "--out", str(out), *rtol]) == 0
        digests.append(json.loads((out / "manifest.json").read_text())["config_digest"])
    assert digests[0] == digests[1] != digests[2]  # 1e-10 is the default


@pytest.mark.parametrize("which, flags", [
    ("fig1", ["--horizon", "20"]),
    ("fig2", ["--horizon", "30", "--sample-dt", "0.1", "--rtol", "1e-9"]),
])
def test_reproduce_figure_is_simulate_of_preset(tmp_path, which, flags):
    # reproduce-figure is the simulate run of the bundled preset: its CSV is
    # the t,v1,v2,E1,E2 columns of simulate's, byte for byte, under one digest,
    # and both manifests report the same integrator statistics and sample count
    fig, sim = tmp_path / "fig", tmp_path / "sim"
    fig_digest = _digest_of(["reproduce-figure", "--which", which, *flags], fig)
    sim_digest = _digest_of(["simulate", which, *flags], sim)
    columns = (0, 2, 4, 5, 6)
    lines = (sim / "trajectory.csv").read_bytes().split(b"\r\n")
    cut = b"\r\n".join(b",".join(line.split(b",")[k] for k in columns) if line else line
                        for line in lines)
    assert (fig / f"{which}.csv").read_bytes() == cut
    assert fig_digest == sim_digest
    fig_run, sim_run = (json.loads((out / "manifest.json").read_text()) for out in (fig, sim))
    for key in ("integrator_stats", "samples"):
        assert fig_run[key] == sim_run[key]


def test_reproduce_figure_reads_bundled_preset_not_working_directory(tmp_path, monkeypatch):
    # a file named like the figure in the working directory is a config for
    # simulate, but --which names the bundled figure
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fig1").write_text(SMALL_CONFIG)
    flags = ["--horizon", "2"]
    fig_digest = _digest_of(["reproduce-figure", "--which", "fig1", *flags], tmp_path / "fig")
    preset = run_digest(build_scenario(load_config(preset_path("fig1")), {"horizon": 2.0}))
    assert fig_digest == preset
    assert _digest_of(["simulate", "fig1", *flags], tmp_path / "sim") != preset
    rows = (tmp_path / "fig" / "fig1.csv").read_text().splitlines()
    assert rows[1].startswith("0,0.5,0.5,") and len(rows) == 10  # preset sample_dt 0.25


@pytest.mark.parametrize("command", ["simulate", "reproduce-figure", "compare", "ensemble"])
def test_out_naming_a_file_exit_2(small_config, tmp_path, command):
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    argv = {"simulate": ["simulate", str(small_config)],
            "reproduce-figure": ["reproduce-figure", "--which", "fig1"],
            "compare": ["compare", str(small_config)],
            "ensemble": ["ensemble", str(_ensemble_config(tmp_path))]}[command]
    code, lines = _run_cli([*argv, "--out", str(taken)])
    assert code == 2 and len(lines) == 1, lines
    assert lines[0].startswith("config error: cannot create output directory"), lines
    assert taken.read_text() == "a file\n"


def test_simulate_span_below_step_floor(tmp_path):
    # the whole span is below the step-size floor 1e-14: one step reaches t_end
    # the end time is a sample of its own, also when sample_dt exceeds the span
    for k, extra in enumerate(([], ["--sample-dt", "1e-300"])):
        out = tmp_path / f"tiny{k}"
        code, lines = _run_cli(["simulate", "fig1", "--horizon", "1e-300", *extra,
                                "--out", str(out)])
        assert code == 0 and lines == []
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "t,q1,v1,q2,v2,E1,E2" and rows[1].startswith("0,")
        assert len(rows) == 3 and rows[2].startswith("1e-300,"), extra
    out = tmp_path / "tiny_ensemble"
    assert main(["ensemble", str(_ensemble_config(tmp_path)), "--horizon", "1e-300",
                 "--sample-dt", "1e-300", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"] == 0 and manifest["failed_particles"] == []


def _csv_writer_reference(path, header, columns):
    """The CSV bytes as the standard library's csv module writes them."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([f"{float(v):.17g}" for v in row])


SPECIAL_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300,
                  -1e300, 1.0, 3, -7, 2**60, 0.1, 1 / 3, 123456789.123456789]


@pytest.mark.parametrize("n_rows", [1, 1023, 1024, 2500])
def test_write_csv_matches_csv_writer(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    special = np.resize(np.array(SPECIAL_VALUES), n_rows)
    columns = [np.arange(n_rows) * 0.001, special, rng.normal(size=n_rows) * 10.0 ** rng.integers(
        -300, 300, n_rows), rng.permutation(special), np.arange(n_rows)]
    header = ["t", "a", "b", "c", "k"]
    _write_csv(tmp_path / "fast.csv", header, columns)
    _csv_writer_reference(tmp_path / "ref.csv", header, columns)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_csv_tuple_and_integer_columns(tmp_path):
    # compare passes one tuple per column; a table of integers stays integer-valued
    rows = [(0.1, 2.5e-3, 1e-17, 3, math.nan), (0.05, -0.0, 5e-324, 1e300, math.inf)]
    cases = [(["epsilon", "a", "b", "c", "d"], list(zip(*rows))),
             (["i", "j"], [np.arange(5), np.arange(5) * -(2**40)]),
             (["t"], [np.array([])])]
    for k, (header, columns) in enumerate(cases):
        _write_csv(tmp_path / f"fast{k}.csv", header, columns)
        _csv_writer_reference(tmp_path / f"ref{k}.csv", header, columns)
        assert (tmp_path / f"fast{k}.csv").read_bytes() == (tmp_path / f"ref{k}.csv").read_bytes()


def test_ensemble_outputs_match_reference_writers(tmp_path):
    from symevol.config import build_ensemble
    from symevol.experiments import run_ensemble

    cfg = _ensemble_config(tmp_path)
    out = tmp_path / "ens"
    assert main(["ensemble", str(cfg), "--out", str(out)]) == 0
    report = run_ensemble(build_ensemble(load_config(cfg)))
    _csv_writer_reference(tmp_path / "moments_ref.csv",
                          ["t", "mean_v1", "disp_v1", "mean_v2", "disp_v2", "mean_E1", "mean_E2"],
                          [report.times, report.mean_v1, report.disp_v1, report.mean_v2,
                           report.disp_v2, report.mean_E1, report.mean_E2])
    assert (out / "moments.csv").read_bytes() == (tmp_path / "moments_ref.csv").read_bytes()
    hist = json.loads((out / "histograms.json").read_text())
    assert hist["v1_counts"] == report.hist_v1.tolist()
    assert hist["v2_counts"] == report.hist_v2.tolist()


def test_order_check_cli(capsys):
    assert main(["order-check", "--steps", "0.2,0.1,0.05", "--horizon", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 3.5 <= report["order"] <= 4.5


def test_order_check_cli_fits_the_steps_taken(capsys):
    # a step of 20, 30 or 40 over a span of 10 is one step of 10; 0.7 and 1.3
    # over a span of 1 are both one step of 1
    for argv in (["--steps", "20,30,40", "--horizon", "10"],
                 ["--steps", "0.3,0.7,1.3", "--horizon", "1"]):
        code, lines = _run_cli(["order-check", *argv])
        assert code == 2 and len(lines) == 1 and "distinct step sizes" in lines[0], argv
    # the report lists the steps taken: 1/round(1/0.3) = 1/3, not 0.3
    assert main(["order-check", "--steps", "0.3,0.2,0.1", "--horizon", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["steps"] == [1 / 3, 0.2, 0.1]


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "symevol", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()
