"""The benchmark's workloads: inputs generated from a seed, the `gcf` CLI
calls that consume them, and the checks on what those calls produce.

One operation is one workload round: a single `gcf harnack` or `gcf sweep`
call, or the six `gcf verify --suite X` calls of verify-suites.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("surface-dense", "sweep-mixed", "verify-suites")
SUITES = ("speedlaw", "oracle", "evolution", "identity", "pexpand", "pevol")
MIN_MARGIN_REL = -1e-3
SWEEP_TUPLES = 20


@dataclass
class Call:
    argv: list
    out_dir: str | None  # directory the call writes its CSVs to, if any


@dataclass
class Workload:
    name: str
    seed: int
    configs: dict  # file name -> generated JSON document
    calls: list  # the Calls of one operation, in order
    env: dict = field(default_factory=dict)  # environment the calls run under


def _flow_doc(n, beta, size, modes, t_end, stride):
    return {
        "n": n,
        "speed": {"a": -1.0, "beta": beta},
        "grid": {"N": size},
        "initial": {"type": "fourier", "R0": 1.0, "modes": modes},
        "time": {"t_end": t_end},
        "output": {"stride": stride},
    }


def _oriented(rng, modes):
    # Flipping the sign of every odd mode swaps the poles of the surface.  The
    # geometry, and so the work, stays the same while the node-by-node input
    # values change.
    sign = rng.choice((1.0, -1.0))
    return [[k, sign * a if k % 2 else a] for k, a in modes]


def _stratified(rng, lo, hi, count):
    # One uniform draw inside each of `count` equal slices of (lo, hi), in a
    # random order: every seed gets the same spread of values, so the total
    # work of a sweep barely changes from seed to seed.
    values = [lo + (hi - lo) * (j + rng.random()) / count for j in range(count)]
    rng.shuffle(values)
    return values


def sweep_doc(rng):
    """Sweep config: every fourth tuple has n=2, b in (0.1, 0.9/n), one mode."""
    groups = {n: [i for i in range(SWEEP_TUPLES) if (i % 4 == 3) == (n == 2)] for n in (1, 2)}
    tuples = [None] * SWEEP_TUPLES
    for n, members in groups.items():
        bs = _stratified(rng, 0.1, 0.9 / n, len(members))
        amps = _stratified(rng, 0.005, 0.03, len(members))
        ks = [2 + j % 3 for j in range(len(members))]
        rng.shuffle(ks)
        for i, b, amp, k in zip(members, bs, amps, ks):
            tuples[i] = {
                "n": n,
                "b": b,
                "shape": {"type": "fourier", "R0": 1.0, "modes": [[k, amp]]},
            }
    return {
        "tuples": tuples,
        "grid": {"N": 128},
        "time": {"t_end": 1.0},
        "output": {"stride": 40},
    }


def build(name: str, seed: int, work: str, nproc: int) -> Workload:
    """Generate the inputs of workload `name` into `work` and list its calls."""
    rng = random.Random(f"{name}:{seed}")
    env = {}
    if name == "surface-dense":
        command, doc = "harnack", _flow_doc(2, -0.25, 128, _oriented(rng, [[2, 0.03], [3, 0.01]]), 0.25, 1)
    elif name == "sweep-mixed":
        command, doc = "sweep", sweep_doc(rng)
        env["GCF_THREADS"] = str(nproc)
    elif name == "verify-suites":
        # The seed only rotates the order in which the suites run.
        shift = rng.randrange(len(SUITES))
        order = SUITES[shift:] + SUITES[:shift]
        return Workload(name, seed, {}, [Call(["verify", "--suite", s], None) for s in order])
    else:
        raise ValueError(f"unknown workload {name!r}")
    fname = f"{command}.json"
    path, out = os.path.join(work, fname), os.path.join(work, "out")
    os.makedirs(work, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return Workload(name, seed, {fname: doc}, [Call([command, "--config", path, "--out", out], out)], env)


def scan(out_dir: str) -> tuple:
    """(sha256 of every CSV under out_dir keyed by relative path, data rows,
    bytes) in one pass over the files."""
    found, rows, size = {}, 0, 0
    for base, _, files in os.walk(out_dir):
        for fname in files:
            if fname.endswith(".csv"):
                path = os.path.join(base, fname)
                with open(path, "rb") as fh:
                    data = fh.read()
                found[os.path.relpath(path, out_dir)] = hashlib.sha256(data).hexdigest()
                rows += max(0, data.count(b"\n") - 1)
                size += len(data)
    return dict(sorted(found.items())), rows, size


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        return header, [line.rstrip("\n").split(",") for line in fh]


def check(call: Call, rc: int, stdout: str, n_tuples: int | None, files: bool) -> str | None:
    """Why the call's result is wrong, or None when it is right.

    files=False skips reading the CSVs, for outputs whose digests already
    matched ones that were checked.
    """
    if rc != 0:
        return f"exit code {rc}"
    try:
        return _check_outputs(call, stdout, n_tuples, files)
    except (OSError, ValueError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def _check_outputs(call, stdout, n_tuples, files):
    command = call.argv[0]
    if command == "harnack" and files:
        header, rows = _read_csv(os.path.join(call.out_dir, "harnack.csv"))
        margin, p_trace = header.index("margin"), header.index("P_trace")
        min_margin = min(float(r[margin]) for r in rows)
        scale = max(abs(float(r[p_trace])) for r in rows)
        rel = min_margin / scale
        if not rel >= MIN_MARGIN_REL:
            return f"min_margin_rel {rel:.3e} below {MIN_MARGIN_REL:g}"
    elif command == "sweep" and files:
        header, rows = _read_csv(os.path.join(call.out_dir, "sweep.csv"))
        if len(rows) != n_tuples:
            return f"{len(rows)} sweep rows, expected {n_tuples}"
        # A row that is not ok has a NaN margin, so this also checks status.
        status, margin = header.index("status"), header.index("min_margin_rel")
        for r in rows:
            rel = float(r[margin])
            if not rel >= MIN_MARGIN_REL:
                return f"tuple {r[0]} ({r[status]}): min_margin_rel {rel:.3e} below {MIN_MARGIN_REL:g}"
    elif command == "verify":
        lines = [ln for ln in stdout.splitlines() if ln.strip()]
        if not lines or not all(ln.startswith("PASS ") for ln in lines):
            return "verify rows not all PASS"
    return None
