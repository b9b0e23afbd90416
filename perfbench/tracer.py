"""Per-layer tracing of gcf, done from outside the package.

`Tracer.install()` replaces the public functions and methods of each layer
module (plus the CLI's config-parsing helpers and its per-tuple sweep
worker) by wrappers, in every gcf module and module-level dict that holds
them, and `uninstall()` puts the originals back.  Each call records a
span: its name, how long it took, and its self time (duration minus the
time covered by the spans it caused).

A span that starts with an empty stack on a worker thread was caused by
whatever the main thread is running at that moment (the sweep waiting on
its thread pool), so its interval is taken out of that span's self time.
Busy time summed over threads can therefore exceed wall time.

The CLI's serialisation time is measured by difference: the outermost
spans of `cli.main` and of the sweep worker ("cli.root"), less their
outermost flow runs, monitors and verify suites ("cli.work"), their config
parsing ("cli.parse"), and the time the main thread spent waiting on
worker threads ("cli.wait").

Counters per thread are merged only when read, so the wrappers take a lock
only when a thread's outermost span starts or ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from collections import Counter
from time import perf_counter

LAYERS = ("stencils", "speedlaw", "geometry", "flow", "harnack", "verify", "cli")
# Private CLI helpers wrapped as well: config parsing, and the sweep worker.
CLI_PARSE = ("_load_json", "_law_from_doc", "_flow_config_from_doc")
CLI_EXTRA = CLI_PARSE + ("_sweep_one",)
# Spans whose callees are counted by name (calls made while one is open).
SCOPES = ("flow.run", "flow.step")
# CLI spans that start a thread's work, and the computations they call,
# besides the verify suites.
CLI_ROOTS = ("cli.main", "cli._sweep_one")
CLI_WORK = ("flow.run", "harnack.monitor")


def _array_bytes(args, result):
    return getattr(args[0], "nbytes", 0) + getattr(result, "nbytes", 0)


def _trace_states(args, result):
    return len(args[0])


# Extra per-call quantity accumulated for some spans.
UNITS = {"stencils": _array_bytes, "harnack.monitor": _trace_states}


class _Thread:
    def __init__(self, is_main):
        self.is_main = is_main
        self.stack = []  # open frames: [child seconds, foreign intervals or None]
        self.depth = {}  # open spans per tracked key (scope or group), only > 0
        self.stats = {}  # name -> [calls, seconds, self seconds, raised, units]
        self.under = {}  # tracked key -> {name: calls made while it was open}
        self.outer = {}  # tracked key -> seconds of its outermost spans; cli.wait


def _covered(intervals, lo, hi):
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._main = None
        self._patches = []
        self._open_roots = 0
        self.concurrency = 0  # most threads inside gcf at the same moment

    def _state(self):
        try:
            return self._local.st
        except AttributeError:
            pass
        st = _Thread(threading.current_thread() is threading.main_thread())
        self._local.st = st
        with self._lock:
            self._threads.append(st)
            if st.is_main:
                self._main = st
        return st

    def _wrap(self, fn, name, keys):
        """Wrapper recording a span `name`; `keys` are the tracked keys it opens."""
        units = UNITS.get(name) or UNITS.get(name.split(".", 1)[0])
        state, lock = self._state, self._lock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            st = state()
            stack, depth = st.stack, st.depth
            adopter = None
            if not stack:
                with lock:
                    self._open_roots += 1
                    self.concurrency = max(self.concurrency, self._open_roots)
                if not st.is_main:
                    try:
                        adopter = self._main.stack[-1]
                    except (AttributeError, IndexError):
                        pass
            if depth:
                under = st.under
                for key in depth:
                    calls = under.get(key)
                    if calls is None:
                        calls = under[key] = {}
                    calls[name] = calls.get(name, 0) + 1
            for key in keys:
                depth[key] = depth.get(key, 0) + 1
            frame = [0.0, None]
            stack.append(frame)
            raised = 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = 0
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[0]
                if frame[1]:
                    waited = _covered(frame[1], t0, t1)
                    own -= waited
                    st.outer["cli.wait"] = st.outer.get("cli.wait", 0.0) + waited
                if stack:
                    stack[-1][0] += dur
                else:
                    with lock:
                        self._open_roots -= 1
                        if adopter is not None:
                            if adopter[1] is None:
                                adopter[1] = []
                            adopter[1].append((t0, t1))
                rec = st.stats.get(name)
                if rec is None:
                    rec = st.stats[name] = [0, 0, 0.0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += own
                rec[3] += raised
                if units is not None and not raised:
                    rec[4] += units(args, result)
                for key in keys:
                    if depth[key] == 1:
                        del depth[key]
                        st.outer[key] = st.outer.get(key, 0.0) + dur
                    else:
                        depth[key] -= 1

        return span

    def install(self):
        """Wrap every layer's functions and methods; returns self."""
        self._state()
        suites = set(getattr(importlib.import_module("gcf.verify"), "SUITES", {}).values())
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gcf.{layer}")
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (
                    not attr.startswith("_") or (layer == "cli" and attr in CLI_EXTRA)
                ):
                    name = f"{layer}.{attr}"
                    keys = tuple(
                        key
                        for key, hit in (
                            (name, name in SCOPES),
                            ("cli.parse", layer == "cli" and attr in CLI_PARSE),
                            ("cli.root", name in CLI_ROOTS),
                            ("cli.work", name in CLI_WORK or obj in suites),
                        )
                        if hit
                    )
                    wrappers[obj] = self._wrap(obj, name, keys)
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            name = f"{layer}.{attr}.{meth}"
                            self._patch(obj, meth, self._wrap(fn, name, ()))
        for modname in sorted(sys.modules):
            if modname != "gcf" and not modname.startswith("gcf."):
                continue
            mod = sys.modules[modname]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            self._patch(obj, key, wrappers[val])
        return self

    def _patch(self, owner, key, new):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, new)

    def uninstall(self):
        for owner, key, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._patches.clear()

    def totals(self):
        """Counters merged over threads: (stats, under, outer)."""
        stats, outer = {}, Counter()
        under = {s: Counter() for s in SCOPES}
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for name, rec in st.stats.items():
                acc = stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
                for i, v in enumerate(rec):
                    acc[i] += v
            for key in SCOPES:
                under[key].update(st.under.get(key, {}))
            outer.update(st.outer)
        return stats, under, outer
