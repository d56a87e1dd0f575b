import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "datadiff", Path(__file__).resolve().parents[1] / "tools" / "datadiff.py")
datadiff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(datadiff)


def _write(root, name, text):
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_report_names_each_file_and_its_largest_differences(tmp_path):
    # hand-made outputs of two trees: the compare-and-report step alone, no command runs
    old, new = tmp_path / "old", tmp_path / "new"
    same = "t,v1\n0.0,0.5\n0.25,0.49\n"
    manifest = {"command": "simulate", "config_digest": "ab", "outputs": ["trajectory.csv"]}
    for root, version, wall in ((old, "0.9.0", 0.125), (new, "1.0.0", 3.5)):
        _write(root, "a/trajectory.csv", same)
        _write(root, "a/manifest.json", json.dumps(
            {**manifest, "tool_version": version, "wall_time_s": wall}, indent=2))
    _write(old, "b/compare.csv", "eps,err\n0.1,2.0\n0.05,-4e-3\n")
    _write(new, "b/compare.csv", "eps,err\n0.1,2.5\n0.05,-4.004e-3\n")
    _write(old, "b/stdout.txt", "done: 3 particles\n[exit status 0]\n")
    _write(new, "b/stdout.txt", "done: 3 rows\n[exit status 0]\n")
    _write(old, "c/nan.csv", "x\nnan\n1.0\n")
    _write(new, "c/nan.csv", "x\nnan\ninf\n")
    _write(new, "d/extra.json", "{}\n")
    lines, moved = datadiff.report(old, new)
    assert moved
    assert lines == [
        "a/manifest.json: identical",
        "a/trajectory.csv: identical",
        "b/compare.csv: max abs diff 0.5, max rel diff 0.2",
        "b/stdout.txt: text differs",
        "c/nan.csv: max abs diff inf, max rel diff inf",
        "d/extra.json: only in new",
    ]
    # a manifest field other than the version and the wall time counts
    _write(new, "a/manifest.json", json.dumps({**manifest, "config_digest": "cd"}))
    assert datadiff.compare_file(old / "a/manifest.json", new / "a/manifest.json") == "text differs"
    same_lines, same_moved = datadiff.report(old / "a", old / "a")
    assert not same_moved and all(line.endswith(": identical") for line in same_lines)
