"""gcf benchmark: runs the `gcf` CLI in-process on workloads generated from a
seed, checks every result, and reports the metrics listed in BENCHMARK.json.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gcf is imported from ./src.  The
run repeats one operation (see workloads.py) for about S seconds: it starts
another only if that one should end within half an operation of S.

--trace 0 reports the end-to-end metrics, with nothing traced:
  wall_s       mean wall time of one operation
  setup_s      median over fresh interpreters (probe.py; half run before the
               operations, half after) of importing gcf.cli and parsing and
               validating the config, up to the first step
  cpu_s        mean process user+sys CPU time of one operation
  peak_rss_mb  peak resident memory of the process after its first operation
Operation times are averaged rather than taken as a median because the
speed of a shared machine switches between levels for seconds at a time,
and a median of such samples jumps between those levels from run to run.
The result file keeps every sample, their median, and the highest
percentile with ten samples above it.

--trace 1 reports the per-layer metrics.  Each round runs the operation
untraced (and, for the sweep, once more on a single thread), then traced,
with gcf's functions wrapped from outside (tracer.py); a kernel pass
(kernels.py) follows.

An operation fails on a nonzero exit, a wrong verdict, or a CSV whose sha256
differs from the first repetition's.  The last line of stdout is the JSON
result; a fuller record with provenance, the generated configs, every
sample and every digest goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import mean, median
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Set-up probes, half before the timed operations and half after them, so
# the median spans the run's changes in machine speed.
SETUP_PROBES = 8

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
from kernels import kernel_pass  # noqa: E402
from tracer import Tracer  # noqa: E402


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git(*args):
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(wl):
    import numpy

    sha = _git("rev-parse", "HEAD")
    src = hashlib.sha256()
    for path in sorted((SRC / "gcf").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "git_dirty": None if sha is None else bool(_git("status", "--porcelain", "--untracked-files=no")),
        "source_sha256": src.hexdigest(),
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": wl.seed,
        "configs": wl.configs,
        "calls": [c.argv for c in wl.calls],
        "env": wl.env,
    }


def setup_times(wl, count):
    argv = [sys.executable, str(BENCH / "probe.py"), str(SRC), *wl.calls[0].argv]
    times = []
    for _ in range(count):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]))
    return times


class Runner:
    """Runs operations of one workload and checks each of their results."""

    def __init__(self, wl):
        import gcf.cli

        self.cli = gcf.cli
        self.wl = wl
        sweep = wl.configs.get("sweep.json")
        self.n_tuples = len(sweep["tuples"]) if sweep else None
        self.reference = None
        self.volume = (0, 0)  # CSV data rows and bytes of the last operation
        self.attempted = self.failed = 0
        self.failures = []

    def op(self):
        """One operation: (wall s, cpu s, completed units)."""
        for call in self.wl.calls:
            if call.out_dir:
                shutil.rmtree(call.out_dir, ignore_errors=True)
        results = []
        t0, c0 = perf_counter(), process_time()
        for call in self.wl.calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    # Looked up on each call, so a traced operation enters
                    # through the tracer's wrapper of main.
                    rc = self.cli.main(list(call.argv))
                except SystemExit as exc:
                    rc = exc.code
                except Exception:  # a traceback from gcf is a failed call
                    rc = "exception"
                    traceback.print_exc(file=err)
            results.append((call, rc, out.getvalue(), err.getvalue()))
        wall, cpu = perf_counter() - t0, process_time() - c0

        # Outputs are read and checked until one operation passes; later ones
        # must reproduce its CSVs byte for byte.
        scans = [workloads.scan(c.out_dir) if c.out_dir else ({}, 0, 0) for c in self.wl.calls]
        found = [dig for dig, _, _ in scans]
        self.volume = (sum(r for _, r, _ in scans), sum(b for _, _, b in scans))
        first = self.reference is None
        problems, units = [], 0
        for (call, rc, out, err), dig, ref in zip(results, found, self.reference or found):
            why = workloads.check(call, rc, out, self.n_tuples, files=first)
            if why is None and dig != ref:
                why = "CSV digest differs from the first repetition"
            if why:
                problems.append(f"{' '.join(call.argv[:3])}: {why}; stderr: {err.strip()[-300:]}")
            else:
                # A passing sweep completed every tuple (see workloads.check).
                units += self.n_tuples or 1
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures += problems
        elif first:
            self.reference = found
        return wall, cpu, units


def tail(values):
    """Highest whole percentile with at least ten samples above it, or None."""
    k = len(values)
    if k < 11:
        return None
    p = math.floor(100 * (k - 10) / k)
    rank = math.ceil(p * k / 100)
    return {"percentile": p, "value": sorted(values)[max(rank, 1) - 1], "samples": k}


def _done(start, seconds, rounds):
    """Whether another round of the mean length so far would end more than
    half a round after the deadline, which keeps runs near `seconds` long."""
    now = perf_counter()
    return now + (now - start) / rounds / 2 > start + seconds


def end_to_end(runner, seconds):
    walls, cpus = [], []
    rss = None
    start = perf_counter()
    while True:
        wall, cpu, _ = runner.op()
        if rss is None:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls.append(wall)
        cpus.append(cpu)
        if _done(start, seconds, len(walls)):
            break
    metrics = {
        "wall_s": mean(walls),
        "cpu_s": mean(cpus),
        "peak_rss_mb": rss,
    }
    return metrics, {"wall_s": walls, "cpu_s": cpus}


def _layer(stats, layer, idx):
    return sum(rec[idx] for name, rec in stats.items() if name.split(".", 1)[0] == layer)


def _per(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(stats, under, outer, k):
    """Per-operation layer metrics from k traced operations' merged spans."""
    get = lambda name, idx: stats.get(name, (0, 0.0, 0.0, 0, 0))[idx] / k  # noqa: E731
    m = {}
    for layer in ("stencils", "speedlaw"):
        m[f"{layer}.calls"] = _layer(stats, layer, 0) / k
        m[f"{layer}.self_s"] = _layer(stats, layer, 2) / k
    m["stencils.us_per_call"] = _per(m["stencils.self_s"], m["stencils.calls"], 1e6)
    m["stencils.bytes_computed"] = _layer(stats, "stencils", 4) / k
    m["geometry.derive_state.calls"] = get("geometry.derive_state", 0)
    m["geometry.self_s"] = _layer(stats, "geometry", 2) / k
    m["flow.steps"] = get("flow.step", 0) - get("flow.step", 3)
    m["flow.rhs_evals"] = under["flow.step"]["speedlaw.SpeedLaw.f"] / k
    d2_in_run = under["flow.run"]["stencils.d2_periodic"] + under["flow.run"]["stencils.d2_reflect"]
    m["flow.radii_per_step"] = _per(d2_in_run, under["flow.run"]["flow.step"])
    m["flow.step.self_s"] = get("flow.step", 2)
    m["flow.step.us_per_call"] = _per(get("flow.step", 1), get("flow.step", 0), 1e6)
    m["flow.stable_dt.self_s"] = get("flow.stable_dt", 2)
    m["flow.run.self_s"] = get("flow.run", 2)
    m["harnack.monitor.states"] = get("harnack.monitor", 4)
    m["harnack.monitor.self_s"] = get("harnack.monitor", 2)
    m["harnack.monitor.us_per_state"] = _per(get("harnack.monitor", 1), m["harnack.monitor.states"], 1e6)
    m["cli.parse_s"] = outer["cli.parse"] / k
    # See tracer.py: the CLI's own time outside runs, monitors, suites,
    # config parsing and waits on the sweep's threads.
    m["cli.serialise_s"] = (
        outer["cli.root"] - outer["cli.work"] - outer["cli.parse"] - outer["cli.wait"]
    ) / k
    m["cli.sweep.tuple_s"] = _per(get("cli._sweep_one", 1), get("cli._sweep_one", 0))
    for suite in workloads.SUITES:
        m[f"verify.{suite}.s"] = get(f"verify.{suite}_suite", 1)
    m["verify.self_s"] = _layer(stats, "verify", 2) / k
    return m


def per_layer(runner, seconds):
    sweep = runner.n_tuples is not None
    plain, single, traced, ratios, rates = [], [], [], [], []
    tracer = Tracer()
    start = perf_counter()
    while True:
        wall, cpu, done = runner.op()
        plain.append(wall)
        ratios.append(cpu / wall)
        rates.append(done / wall)
        if sweep:
            os.environ["GCF_THREADS"] = "1"
            single.append(runner.op()[0])
            os.environ["GCF_THREADS"] = runner.wl.env["GCF_THREADS"]
        tracer.install()
        try:
            traced.append(runner.op()[0])
        finally:
            tracer.uninstall()
        if _done(start, seconds, len(traced)):
            break
    m = layer_metrics(*tracer.totals(), len(traced))
    rows, size = runner.volume
    m["cli.rows_written"] = rows
    m["cli.bytes_written"] = size
    m["cli.mb_per_s"] = _per(size / 1e6, m["cli.serialise_s"])
    m["cli.sweep.cpu_over_wall"] = median(ratios) if sweep else 0.0
    m["cli.sweep.tuples_per_s"] = median(rates) if sweep else 0.0
    m["cli.sweep.speedup_vs_1thread"] = median(single) / median(plain) if sweep else 0.0
    m["trace.overhead_s"] = median(traced) - median(plain)
    m["trace.wall_s"] = median(traced)
    m["trace.threads"] = tracer.concurrency
    m.update(kernel_pass())
    return m, {"untraced_wall_s": plain, "single_thread_wall_s": single, "traced_wall_s": traced}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "gcf" / "cli.py").is_file():
        print(f"perfbench: no gcf sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))

    work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = workloads.build(args.workload, args.seed, str(work), _nproc())
        os.environ.update(wl.env)
        runner = Runner(wl)
        if args.trace:
            values, samples = per_layer(runner, args.seconds)
        else:
            setup = setup_times(wl, SETUP_PROBES // 2)
            values, samples = end_to_end(runner, args.seconds)
            setup += setup_times(wl, SETUP_PROBES - SETUP_PROBES // 2)
            values["setup_s"] = median(setup)
            samples["setup_s"] = setup
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(values) != {m["name"] for m in spec}:
        print(f"perfbench: metrics {sorted(set(values) ^ {m['name'] for m in spec})} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, trace=args.trace, seconds=args.seconds,
                  fail_ratio=runner.failed / runner.attempted, failures=runner.failures,
                  samples=samples, wall_s_median=median(samples["wall_s"]) if "wall_s" in samples else None,
                  wall_s_tail=tail(samples.get("wall_s", [])),
                  digests=runner.reference,
                  provenance=provenance(wl))
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {runner.failed}/{runner.attempted} operations")
    for why in runner.failures[:5]:
        print(f"failure: {why}")
    if not args.trace:
        tail_s = record["wall_s_tail"]
        print(f"wall_s over {len(samples['wall_s'])} operations: median {record['wall_s_median']:.6g} s"
              + (f", p{tail_s['percentile']} {tail_s['value']:.6g} s" if tail_s else "")
              + f"; setup_s median of {len(samples['setup_s'])} probes")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
