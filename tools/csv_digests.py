"""Print the sha256 of every CSV and meta.json that a fixed set of `gcf`
runs writes.

    python3 tools/csv_digests.py OUT_DIR [--seed N] [--expect FILE]

Runs, in-process through `gcf.cli.main` and from the `src/` of this
checkout, the benchmark's surface-dense and sweep-mixed configs for the
seed (generated by `perfbench/workloads.build`), the six fixed configs
of FIXED, and the six verification suites with `--out`, all under
OUT_DIR; each run must exit 0, or with the code FIXED gives it.  That is
38 CSVs and 27 meta.json files (one per run and per completed sweep
tuple).  A CSV's digest is that of its bytes; a meta.json's is that of
its JSON without the timing keys (TIMING_KEYS), so it covers the steps,
the RHS evaluations and the dt range.  Prints one `sha256  path` line per
file, paths relative to OUT_DIR, sorted.  Run it in two checkouts and diff
the outputs to show that a change leaves every CSV byte-identical and
every run's record unchanged, or save the listing of one checkout and
pass it to the other with --expect FILE: then every file whose digest
differs from FILE's, or that only one of the two lists, is named on
stderr, and the exit status is 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from gcf.cli import main as gcf_main  # noqa: E402


# Configs the benchmark's workloads leave out, with the exit code each
# run must give: an n=1 `gcf run`, whose trace.csv has the n=1 columns (H
# repeats K); a short exponential-law `gcf harnack`, whose lhs_eq12 and
# bound_eq316 columns are NaN; a contracting circle centred off the origin
# that shrinks past it (exit 3) under `gcf run` and under `gcf harnack`,
# whose partial trace.csv and meta.json record the failed step (harnack
# also monitors the states stored before it); a round n=1 `gcf harnack`
# whose stride stores only its first and last states (exit 2, after
# writing trace.csv and meta.json); and a round n=1 `gcf harnack` whose
# clock starts away from 0, at t0 = 2, the circle's self-similar time.
_SHAPE = {"type": "fourier", "R0": 1.0, "modes": [[3, 0.02], [2, 0.01]]}
_EARLY_END = {
    "n": 1, "speed": {"a": 1, "beta": 1}, "grid": {"N": 32},
    "initial": {"type": "fourier", "R0": 1.0, "modes": [[1, 0.5]]},
    "time": {"t_end": 1}, "output": {"stride": 10},
}
FIXED = {
    "run-n1": ("run", 0, {
        "n": 1, "speed": {"a": -1.0, "beta": -0.5}, "grid": {"N": 128}, "initial": _SHAPE,
        "time": {"t_end": 0.5}, "output": {"stride": 25},
    }),
    "harnack-exp": ("harnack", 0, {
        "n": 1, "speed": {"kind": "exp"}, "grid": {"N": 64}, "initial": _SHAPE,
        "time": {"t_end": 0.02}, "output": {"stride": 3},
    }),
    "run-early-end": ("run", 3, _EARLY_END),
    "harnack-early-end": ("harnack", 3, _EARLY_END),
    "harnack-two-states": ("harnack", 2, {
        "n": 1, "speed": {"a": -1.0, "beta": -0.5}, "grid": {"N": 64},
        "initial": {"type": "circle", "R0": 1.0}, "time": {"t_end": 0.5},
        "output": {"stride": 100000},
    }),
    "harnack-self-similar": ("harnack", 0, {
        "n": 1, "speed": {"a": -1.0, "beta": -0.5}, "grid": {"N": 64},
        "initial": {"type": "circle", "R0": 1.0}, "time": {"t0": 2.0, "t_end": 2.5},
        "output": {"stride": 5},
    }),
}


# The meta.json keys that hold wall times, which differ from run to run.
TIMING_KEYS = ("wall_time_s", "phase_wall_s")


def meta_digest(text: str) -> str:
    """sha256 of a meta.json's JSON text without its TIMING_KEYS."""
    meta = json.loads(text)
    for key in TIMING_KEYS:
        meta.pop(key, None)
    return hashlib.sha256(json.dumps(meta, sort_keys=True).encode()).hexdigest()


def meta_digests(out_dir: str) -> dict:
    """meta_digest of every meta.json under out_dir, keyed by relative path."""
    found = {}
    for base, _, files in os.walk(out_dir):
        if "meta.json" in files:
            path = os.path.join(base, "meta.json")
            found[os.path.relpath(path, out_dir)] = meta_digest(Path(path).read_text())
    return found


def calls(out_dir: str, seed: int) -> list:
    """(argv, expected exit code) of every run, writing under out_dir."""
    argvs = [
        (call.argv, 0)
        for name in ("surface-dense", "sweep-mixed")
        for call in workloads.build(name, seed, os.path.join(out_dir, name), 1).calls
    ]
    for name, (command, code, doc) in FIXED.items():
        work = os.path.join(out_dir, name)
        os.makedirs(work, exist_ok=True)
        path = os.path.join(work, f"{command}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
        argvs.append(([command, "--config", path, "--out", os.path.join(work, "out")], code))
    argvs += [
        (["verify", "--suite", s, "--out", os.path.join(out_dir, "verify", s)], 0)
        for s in workloads.SUITES
    ]
    return argvs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--expect", metavar="FILE", help="a saved listing to compare against")
    args = parser.parse_args(argv)
    for call, code in calls(args.out_dir, args.seed):
        with contextlib.redirect_stdout(sys.stderr):
            rc = gcf_main(call)
        if rc != code:
            print(f"gcf {' '.join(call)} exited {rc}", file=sys.stderr)
            return 1
    digests, _, _ = workloads.scan(args.out_dir)
    digests = dict(sorted({**digests, **meta_digests(args.out_dir)}.items()))
    for path, digest in digests.items():
        print(f"{digest}  {path}")
    if args.expect is None:
        return 0
    differ = changed(read_listing(args.expect), digests)
    for path, why in differ:
        print(f"{path}: {why}", file=sys.stderr)
    print(f"{len(differ)} of {len(digests)} files differ from {args.expect}", file=sys.stderr)
    return 1 if differ else 0


def read_listing(path: str) -> dict:
    """The {path: digest} of a listing this script printed."""
    listing = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                digest, name = line.split()
                listing[name] = digest
    return listing


def changed(expected: dict, digests: dict) -> list:
    """(path, reason) of each file whose digest differs, or that one side lacks."""
    out = []
    for path in sorted(expected.keys() | digests.keys()):
        if path not in digests:
            out.append((path, "missing"))
        elif path not in expected:
            out.append((path, "not in the listing"))
        elif digests[path] != expected[path]:
            out.append((path, "digest differs"))
    return out


if __name__ == "__main__":
    sys.exit(main())
