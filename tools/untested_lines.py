"""List the lines of src/gcf that a pytest run never executes.

    PYTHONPATH=src:tools python -m pytest -q -p untested_lines

A pytest plugin that needs nothing beyond the standard library.  When
pytest configures it, it turns a line tracer on with sys.settrace, and
with threading.settrace for the threads that tests start (such as a
sweep's thread pool).  After the test summary it prints every line of the
*.py files of src/gcf that can execute but never did, as
`path:line: source`, then their count.  The lines that can execute are
those of each file's compiled code objects (co_lines): blank lines,
comments and the docstrings of functions are never listed.  A line counts
as run when the tracer sees a "line" event on it, or a "call" event of a
code object that starts on it.  Subprocesses that tests start (such as
`python -m gcf.cli`) are not traced, so the lines only they run are
listed.  The report does not change pytest's exit status.  Tracing makes
the tier-1 run about twice as slow.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def executable_lines(path) -> set:
    """The numbers of the lines of a source file that hold executable code."""
    todo = [compile(Path(path).read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        # a module's first instruction sits on line 0, and some on no line
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


class LineTracer:
    """The lines run in the *.py files under one directory, while started.

    start() installs the tracer for this thread and for threads started
    later; stop() puts back the trace functions that were there before.
    """

    def __init__(self, directory):
        self.directory = Path(directory).resolve()
        self.run = {}  # resolved path -> numbers of the lines run
        self._files = {}  # co_filename -> that set, or None outside the directory
        self._lock = threading.Lock()  # traced threads may meet a new file at once
        self._before = None

    def _lines_of(self, filename: str):
        if filename not in self._files:
            with self._lock:
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
        self._before = sys.gettrace(), threading.gettrace()
        threading.settrace(self._trace)
        sys.settrace(self._trace)

    def stop(self) -> None:
        sys.settrace(self._before[0])
        threading.settrace(self._before[1])

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
    """The plugin's state: the tracer over src/gcf, started when made, and
    the hook that stops it and prints its report."""

    def __init__(self):
        self.tracer = LineTracer(ROOT / "src" / "gcf")
        self.tracer.start()

    def pytest_terminal_summary(self, terminalreporter):
        self.tracer.stop()
        terminalreporter.section("src/gcf lines that no test ran")
        for line in report(self.tracer):
            terminalreporter.write_line(line)


def pytest_configure(config):
    config.pluginmanager.register(_Report(), "untested_lines_report")
