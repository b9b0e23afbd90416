"""Record perfbench's end-to-end metrics of this checkout against another
revision, in alternating pairs, as BENCH_<label>.json at the repository root.

    python3 tools/bench_record.py --label L --against REV \
        [--pairs 10] [--seconds 4] [--seed 1]

Checks REV out into a temporary git worktree (removed on exit) and runs
`perfbench/run.py --workload W --seed N --seconds S --trace 0` of each tree
as a subprocess, for every workload of this checkout's BENCHMARK.json, in
--pairs pairs.  Pair i runs REV first when i is even and this checkout
first when i is odd, so neither tree always runs in the other's wake.
After each run it reads the tree's
perfbench/results/<workload>-seed<N>-trace0.json.

The record holds each tree's provenance (perfbench's, from its first run
of each workload), every pair's result (correct, attempted, failed and the
metric values), and per workload and metric the median and quartiles of
each tree and "faster in k/m pairs": the pairs in which this checkout's
value is better than REV's, in the direction BENCHMARK.json gives.
NOISY names the metrics known to move without a change to the code they
measure, with the CHANGES.md FOUND entry that shows it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]
TREES = ("base", "head")  # REV's worktree, and this checkout

NOISY = {
    "setup_s": "moves with the run's context, not only the set-up code: a median of 8 "
               "subprocess launches per run (CHANGES.md FOUND: perfbench's `setup_s` "
               "moves with the run's context)",
    "peak_rss_mb": "follows glibc's heap placement: tcache keeps freed 1024-byte arrays "
                   "near the heap top, which stops the heap from being trimmed, and the "
                   "sweep reads bimodal after the set-up probes (CHANGES.md FOUND: the "
                   "cause of surface-dense's jumping `peak_rss_mb`; FOUND: perfbench's "
                   "sweep-mixed `peak_rss_mb`)",
}


def _git(*args) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


def read_result(path) -> dict:
    """The parts of a perfbench result file that a record keeps."""
    with open(path) as fh:
        record = json.load(fh)
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: m["value"] for name, m in record["metrics"].items()},
        "provenance": record["provenance"],
    }


def _spread(values: list) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return {"median": median(values), "q1": q1, "q3": q3}


def summarise(pairs: list, spec: list) -> dict:
    """Per metric of spec (BENCHMARK.json's end_to_end list), each tree's
    median and quartiles over the pairs and how many pairs head wins."""
    out = {}
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        base = [p["base"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "base": _spread(base),
            "head": _spread(head),
            "faster": f"{wins}/{len(pairs)}",
        }
    return out


def build_record(label: str, against: dict, settings: dict, spec: list, runs: dict) -> dict:
    """The BENCH_<label>.json document.  runs maps each workload to its
    pairs, each a dict with the "order" the trees ran in and, per tree, a
    read_result."""
    workloads = {}
    for name, pairs in runs.items():
        workloads[name] = {
            "provenance": {tree: pairs[0][tree]["provenance"] for tree in TREES},
            "pairs": [
                {"order": p["order"],
                 **{tree: {k: v for k, v in p[tree].items() if k != "provenance"}
                    for tree in TREES}}
                for p in pairs
            ],
            "metrics": summarise(pairs, spec),
        }
    return {
        "label": label,
        "against": against,
        "settings": settings,
        "noisy": {m["name"]: NOISY[m["name"]] for m in spec if m["name"] in NOISY},
        "workloads": workloads,
    }


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {tree} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    return read_result(tree / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--against", required=True, metavar="REV")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    sha = _git("rev-parse", "--verify", args.against + "^{commit}")
    against = {"rev": args.against, "sha": sha}

    scratch = Path(tempfile.mkdtemp(prefix="bench_record-"))
    base = scratch / "tree"
    _git("worktree", "add", "--detach", str(base), sha)
    trees = {"base": base, "head": ROOT}
    try:
        runs = {}
        for wl in bench["workloads"]:
            pairs = runs.setdefault(wl["name"], [])
            for i in range(args.pairs):
                order = list(TREES) if i % 2 == 0 else list(reversed(TREES))
                pair = {"order": order}
                for tree in order:
                    pair[tree] = _run(trees[tree], wl["name"], args.seed, args.seconds)
                pairs.append(pair)
                print(f"{wl['name']} pair {i + 1}/{args.pairs}: wall_s "
                      f"{pair['base']['metrics']['wall_s']:.4g} -> "
                      f"{pair['head']['metrics']['wall_s']:.4g}", file=sys.stderr)
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base)],
                       capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)

    settings = {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
                "command": ["python3", "perfbench/run.py", "--trace", "0"]}
    record = build_record(args.label, against, settings, bench["end_to_end"], runs)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, wl in record["workloads"].items():
        for metric, s in wl["metrics"].items():
            print(f"{name} {metric}: median {s['base']['median']:.4g} -> "
                  f"{s['head']['median']:.4g} {s['unit']}, faster in {s['faster']} pairs")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
