"""tools/csv_digests.py's comparison with a saved listing."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "csv_digests.py"


def _tool():
    spec = importlib.util.spec_from_file_location("csv_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_meta_digest_ignores_timing_only(tmp_path):
    tool = _tool()
    meta = {"command": "run", "steps": 12, "rhs_evals": 48, "dt_min": 0.01, "dt_max": 0.02,
            "wall_time_s": 0.5, "phase_wall_s": {"step": 0.4, "write": 0.1}}
    retimed = dict(meta, wall_time_s=0.7, phase_wall_s={"step": 0.6, "write": 0.1})
    digest = tool.meta_digest(json.dumps(meta, indent=2, sort_keys=True))
    assert tool.meta_digest(json.dumps(retimed)) == digest
    assert tool.meta_digest(json.dumps(dict(meta, steps=13))) != digest
    (tmp_path / "a" / "b").mkdir(parents=True)
    (tmp_path / "a" / "b" / "meta.json").write_text(json.dumps(retimed))
    (tmp_path / "a" / "trace.csv").write_text("t\n")
    assert tool.meta_digests(str(tmp_path)) == {"a/b/meta.json": digest}


def test_expect_names_each_csv_that_differs(tmp_path):
    tool = _tool()
    listing = tmp_path / "digests.txt"
    listing.write_text("aa  a/trace.csv\nbb  b/harnack.csv\ncc  gone.csv\n\n")
    expected = tool.read_listing(str(listing))
    assert expected == {"a/trace.csv": "aa", "b/harnack.csv": "bb", "gone.csv": "cc"}
    assert tool.changed(expected, dict(expected)) == []
    now = {"a/trace.csv": "aa", "b/harnack.csv": "b2", "new.csv": "dd"}
    assert tool.changed(expected, now) == [
        ("b/harnack.csv", "digest differs"),
        ("gone.csv", "missing"),
        ("new.csv", "not in the listing"),
    ]
