"""tools/csv_digests.py's comparison with a saved listing,
tools/bench_record.py's record of alternating pairs, tools/code_lines.py's
count, tools/untested_lines.py's line tracer, and a check that every
public name of src/gcf is read by the program itself."""

import ast
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"
# Public names of src/gcf that only tests read, each kept as an independent
# reference that tests compare the program against.
KEPT_FOR_TESTS = {
    "hessian_oracle": "the covariant Hessian from the embedding alone, against geometry.box_op",
    "P_tensor_trace": "the Harnack tensor contracted term by term, against harnack.P_trace",
    "self_similar_start_time": "the start time of the self-similar solution, for equality cases",
}


def _tool(name="csv_digests"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
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


def _fake_result(path, wall_s, peak_rss_mb, sha):
    # the keys of a perfbench/run.py result file that the record reads
    path.write_text(json.dumps({
        "correct": True, "attempted": 4, "failed": 0, "workload": "verify-suites",
        "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                    "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}},
        "provenance": {"git_sha": sha, "seed": 1},
    }))
    return path


def test_bench_record_from_two_result_files(tmp_path):
    tool = _tool("bench_record")
    spec = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]
    base = tool.read_result(_fake_result(tmp_path / "base.json", 1.0, 40.0, "b" * 40))
    head = tool.read_result(_fake_result(tmp_path / "head.json", 0.8, 40.0, "h" * 40))
    assert base["metrics"] == {"wall_s": 1.0, "peak_rss_mb": 40.0}

    def moved(result, wall_s):
        return dict(result, metrics=dict(result["metrics"], wall_s=wall_s))

    # head wins the wall_s of two pairs out of three; an equal peak is no win
    pairs = [{"order": ["base", "head"], "base": base, "head": head},
             {"order": ["head", "base"], "base": moved(base, 1.2), "head": moved(head, 0.9)},
             {"order": ["base", "head"], "base": moved(base, 0.9), "head": moved(head, 1.0)}]
    record = tool.build_record("t", {"rev": "HEAD~1", "sha": "b" * 40}, {"pairs": 3}, spec,
                               {"verify-suites": pairs})
    wl = record["workloads"]["verify-suites"]
    assert wl["provenance"]["base"]["git_sha"] == "b" * 40
    assert wl["provenance"]["head"]["git_sha"] == "h" * 40
    assert [p["order"] for p in wl["pairs"]] == [p["order"] for p in pairs]
    assert all(p[tree]["correct"] and "provenance" not in p[tree]
               for p in wl["pairs"] for tree in ("base", "head"))
    wall = wl["metrics"]["wall_s"]
    assert wall["faster"] == "2/3"
    assert wall["base"] == {"median": 1.0, "q1": 0.95, "q3": 1.1}
    assert wall["head"]["median"] == 0.9
    assert wl["metrics"]["peak_rss_mb"]["faster"] == "0/3"
    assert set(record["noisy"]) == {"peak_rss_mb"}
    assert json.loads(json.dumps(record)) == record


SAMPLE_MODULE = '''"""Module docstring,
over two lines."""

import numpy as np  # a trailing comment keeps its line

# a comment line


class Shape:
    """Class docstring."""

    def area(self):
        """Method docstring,

        over three lines."""
        text = """a string that is not a docstring
spans two code lines"""
        return (1.0 +
                2.0)
'''


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path, monkeypatch, capsys):
    tool = _tool("code_lines")
    # import, class, def, the two lines of text, the two of the return
    assert tool.count_code_lines(SAMPLE_MODULE) == 7
    package = tmp_path / "src" / "gcf"
    package.mkdir(parents=True)
    (package / "b.py").write_text(SAMPLE_MODULE)
    (package / "a.py").write_text("x = 1\n\n# comment\ny = 2\n")
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    assert tool.main() == 0
    assert capsys.readouterr().out.splitlines() == [
        "     2  a.py", "     7  b.py", "     9  total"
    ]


TRACED_MODULE = '''"""A sample module: its docstring is not code."""

import threading


def sign(x):
    # a comment is not code
    if x > 0:
        return 1
    return -1


def in_a_thread():
    worker = threading.Thread(target=sign, args=(-1,))
    worker.start()
    worker.join()


def never(x):
    """Nor is a function's docstring."""
    return max(x,
               1)
'''


def test_untested_lines_lists_the_lines_no_call_ran(tmp_path):
    tool = _tool("untested_lines")
    path = tmp_path / "pkg" / "sample.py"
    path.parent.mkdir()
    path.write_text(TRACED_MODULE)
    # the module docstring's store, the import, the three defs and the code
    # lines of their bodies
    assert tool.executable_lines(path) == {1, 3, 6, 8, 9, 10, 13, 14, 15, 16, 19, 21, 22}
    tracer = tool.LineTracer(tmp_path / "pkg")
    before = sys.gettrace()
    tracer.start()
    try:
        spec = importlib.util.spec_from_file_location("sample", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.sign(1)
        module.in_a_thread()  # the thread runs sign's last line
    finally:
        tracer.stop()
    assert sys.gettrace() is before
    assert tracer.unrun() == [(path, 21), (path, 22)]
    assert tool.report(tracer, root=tmp_path) == [
        "pkg/sample.py:21: return max(x,",
        "pkg/sample.py:22: 1)",
        "2 line(s) of pkg not run",
    ]


def test_every_public_name_of_src_is_read_outside_its_definition():
    # a public module-level function or class of src/gcf that no code in
    # src/, perfbench/ or tools/ names, by use or by import, is a copy that
    # only tests call
    defined, read = set(), set()
    for path in (p for d in ("src", "perfbench", "tools") for p in (ROOT / d).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if (ROOT / "src" / "gcf") in path.parents:
            defined |= {
                node.name for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
            }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.rsplit(".", 1)[-1])
    assert sorted(defined - read) == sorted(KEPT_FOR_TESTS)
