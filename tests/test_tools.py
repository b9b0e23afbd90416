"""tools/csv_digests.py's comparison with a saved listing."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "csv_digests.py"


def _tool():
    spec = importlib.util.spec_from_file_location("csv_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
