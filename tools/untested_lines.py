"""List the lines of src/gcf that a pytest run never executes.

    PYTHONPATH=src:tools python -m pytest -q -p untested_lines

A pytest plugin that needs nothing beyond the standard library.  When
pytest configures it, it turns a line tracer on with sys.settrace, for
the main thread only: src/gcf starts no threads, and a line that only a
thread runs is listed.  After the test summary it prints every line of the
*.py files of src/gcf that can execute but never did, as
`path:line: source`, then their count.  The lines that can execute are
those of each file's compiled code objects (co_lines): blank lines,
comments and the docstrings of functions are never listed, nor are the
lines of a module's `if __name__ == "__main__":` block, which run only
when the module runs as a script.  A line counts as run when the tracer
sees a "line" event on it, or a "call" event of a code object that starts
on it.  Subprocesses that tests start (such as `python -m gcf.cli`) are
not traced, so the lines only they run are listed.  A run whose report
lists any line fails: its exit status is 1 where it would be 0.  Tracing
makes the tier-1 run about twice as slow.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def executable_lines(path) -> set:
    """The numbers of the lines of a source file that hold executable code,
    less those of its script-only blocks."""
    source = Path(path).read_text(encoding="utf-8")
    todo = [compile(source, str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        # a module's first instruction sits on line 0, and some on no line
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines - script_lines(source)


def script_lines(source: str) -> set:
    """The numbers of the lines of a module's top-level
    `if __name__ == "__main__":` blocks, the `if` line included."""
    return {
        line
        for node in ast.parse(source).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        for line in range(node.lineno, node.end_lineno + 1)
    }


class LineTracer:
    """The lines run in the *.py files under one directory, while started.

    start() installs the tracer for this thread; stop() puts back the trace
    function that was there before.
    """

    def __init__(self, directory):
        self.directory = Path(directory).resolve()
        self.run = {}  # resolved path -> numbers of the lines run
        self._files = {}  # co_filename -> that set, or None outside the directory
        self._before = None

    def _lines_of(self, filename: str):
        if filename not in self._files:
            path = Path(filename).resolve()
            inside = self.directory in path.parents and path.suffix == ".py"
            self._files[filename] = self.run.setdefault(path, set()) if inside else None
        return self._files[filename]

    def _trace(self, frame, event, arg):
        lines = self._lines_of(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def start(self) -> None:
        self._before = sys.gettrace()
        sys.settrace(self._trace)

    def stop(self) -> None:
        sys.settrace(self._before)

    def unrun(self) -> list:
        """(path, line number) of each executable line not run, sorted."""
        return sorted(
            (path, line)
            for path in self.directory.rglob("*.py")
            for line in executable_lines(path) - self.run.get(path.resolve(), set())
        )


def report(tracer: LineTracer, root: Path = ROOT) -> list:
    """The report's lines: `path:line: source` per line the tracer's files
    hold and it did not see run, paths relative to root, then the count."""
    unrun = tracer.unrun()
    out = [
        f"{path.relative_to(root)}:{line}: "
        f"{path.read_text(encoding='utf-8').splitlines()[line - 1].strip()}"
        for path, line in unrun
    ]
    out.append(f"{len(unrun)} line(s) of {tracer.directory.relative_to(root)} not run")
    return out


class _Report:
    """The plugin's state: a started tracer, and the hooks that stop it,
    fail the run if its report lists a line, and print the report."""

    def __init__(self, tracer: LineTracer, root: Path = ROOT):
        self.tracer, self.root, self.lines = tracer, root, []

    def pytest_sessionfinish(self, session):
        # a plain hook runs inside the terminal reporter's wrapper, before the
        # summary is printed; pytest returns session.exitstatus after it
        self.tracer.stop()
        self.lines = report(self.tracer, self.root)
        if len(self.lines) > 1 and session.exitstatus == 0:  # a line besides the count
            session.exitstatus = 1

    def pytest_terminal_summary(self, terminalreporter):
        terminalreporter.section("src/gcf lines that no test ran")
        for line in self.lines:
            terminalreporter.write_line(line)


def pytest_configure(config):
    tracer = LineTracer(ROOT / "src" / "gcf")
    tracer.start()
    config.pluginmanager.register(_Report(tracer), "untested_lines_report")
