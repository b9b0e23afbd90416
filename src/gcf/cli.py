"""Configuration-driven command line: run flows, emit Harnack monitors,
execute verification suites, sweep parameters.

All outputs are flat files written atomically (temp file + rename):
trace.csv, harnack.csv, report.csv, sweep.csv, and a meta.json with the
echoed configuration.  Numeric fields carry 17 significant digits, so
identical configurations reproduce byte-identical CSVs.  A sweep steps its
tuples as ensembles (see flow.ensembles), one run per ensemble.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 early flow termination (lost convexity, the origin leaving the body, or
step underflow), 4 law outside the Harnack-bound hypotheses when
enforcement is requested.  A configuration error prints one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .errors import GcfError, InvalidConfig
from .flow import DEFAULT_SAFETY, FlowConfig, InitialShape, ensembles, run
from .geometry import derive_state
from .harnack import monitor, theorem_hypotheses
from .speedlaw import SpeedLaw
from .verify import SUITES

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NONCONVEX = 3
EXIT_HYPOTHESES = 4

# What a malformed config raises while it is read: bad JSON is a
# ValueError, a missing field a KeyError, a field of the wrong type a
# TypeError.
CONFIG_ERRORS = (GcfError, KeyError, ValueError, TypeError)


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _number_or_blank(x) -> str:
    try:
        return _fmt(x)
    except (TypeError, ValueError):
        return ""


def _atomic_write(path: str, text) -> None:
    """Write text, a string or an iterable of string chunks, to path.

    Chunks go to a temporary file one at a time, which is renamed to path
    once complete, so the text is never held whole in memory.
    """
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_json(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise InvalidConfig("the config must be a JSON object")
    return doc


def _section(doc: dict, key: str) -> dict:
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise InvalidConfig(f"{key!r} must be a JSON object, got {value!r}")
    return value


def _law_from_doc(doc: dict) -> SpeedLaw:
    speed = _section(doc, "speed")
    kind = speed.get("kind", "power")
    if kind == "exp":
        return SpeedLaw.exponential()
    return SpeedLaw.power(float(speed["a"]), float(speed["beta"]))


def _flow_config_from_doc(doc: dict) -> FlowConfig:
    law = _law_from_doc(doc)
    n = int(doc["n"])
    size = int(_section(doc, "grid").get("N", 256))
    init = _section(doc, "initial")
    kind = init.get("type", "circle")
    if kind in ("circle", "sphere", "round"):
        shape = InitialShape("round", R0=float(init.get("R0", 1.0)))
    elif kind == "fourier":
        modes = tuple((int(k), float(a)) for k, a in init.get("modes", []))
        shape = InitialShape("fourier", R0=float(init.get("R0", 1.0)), modes=modes)
    else:
        raise GcfError(f"unknown initial type {kind!r}")
    tdoc = _section(doc, "time")
    return FlowConfig(
        n=n,
        size=size,
        law=law,
        shape=shape,
        t_end=float(tdoc["t_end"]),
        t0=float(tdoc.get("t0", 0.0)),
        safety=float(tdoc.get("safety", DEFAULT_SAFETY)),
        stride=int(_section(doc, "output").get("stride", 1)),
    )


def _meta(doc: dict, law: SpeedLaw, wall: float, reason: str, command: str, **extra) -> str:
    payload = {
        "command": command,
        "config": doc,
        "law_mapping": {
            "kind": law.kind,
            "a": law.a if law.is_power else None,
            "beta": law.beta if law.is_power else None,
            "paper_b": law.paper_b,
        },
        "termination_reason": reason,
        "gcf_version": __version__,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "wall_time_s": wall,
        **extra,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _trace_csv(trace):
    """trace.csv as text chunks, one per stored state."""
    if trace.n == 1:
        yield "t,node_index,angle,h,r,K,H\n"
    else:
        yield "t,node_index,angle,h,r1,r2,K,H\n"
    for t, grid in zip(trace.times, trace.grids):
        st = derive_state(grid)
        cols = (st.angles, st.h, *st.radii, st.K, st.H)
        row = _fmt(t) + ",%d" + ",%.17g" * len(cols) + "\n"
        yield "".join(row % r for r in zip(range(grid.size), *(c.tolist() for c in cols)))


def _harnack_csv(samples):
    """harnack.csv as text chunks, one per sample."""
    yield "t,node_index,u,dt_u_spatial,dt_u_fd,grad_sq_h,lhs_eq12,P_trace,bound_eq316,margin\n"
    for s in samples:
        cols = (s.u, s.dt_u_spatial, s.dt_u_fd, s.grad_sq_h, s.lhs_12, s.p_trace)
        row = _fmt(s.t) + ",%d" + ",%.17g" * len(cols) + "," + _fmt(s.bound) + ",%.17g\n"
        yield "".join(
            row % r
            for r in zip(range(s.u.size), *(c.tolist() for c in cols), s.margin.tolist())
        )


def _report_csv(reports) -> str:
    lines = ["identity,resolution,residual,order,pass"]
    for rep in reports:
        order = "" if rep.order is None else _fmt(rep.order)
        for res, val in zip(rep.resolutions, rep.residuals):
            lines.append(
                ",".join(
                    [rep.identity, _fmt(res), _fmt(val), order, str(rep.passed).lower()]
                )
            )
    return "\n".join(lines) + "\n"


def cmd_run(config_path: str, out_dir: str) -> int:
    try:
        doc = _load_json(config_path)
        cfg = _flow_config_from_doc(doc)
    except (OSError, *CONFIG_ERRORS) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    start = time.monotonic()
    trace = run(cfg)
    wall = time.monotonic() - start
    _atomic_write(os.path.join(out_dir, "trace.csv"), _trace_csv(trace))
    _atomic_write(
        os.path.join(out_dir, "meta.json"),
        _meta(doc, cfg.law, wall, trace.reason, "run"),
    )
    if trace.reason != "completed":
        print(f"flow terminated early: {trace.reason}", file=sys.stderr)
        return EXIT_NONCONVEX
    print(f"completed: {len(trace)} stored states -> {out_dir}/trace.csv")
    return EXIT_OK


def cmd_harnack(config_path: str, out_dir: str, enforce_hypotheses: bool = False) -> int:
    try:
        doc = _load_json(config_path)
        law = _law_from_doc(doc)
        n = int(doc["n"])
    except (OSError, *CONFIG_ERRORS) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if enforce_hypotheses and not theorem_hypotheses(law, n):
        print(
            f"law outside the Harnack-bound hypotheses for n={n}: "
            f"need a power law with a > 0, beta > 0 or a < 0, -1/n < beta < 0",
            file=sys.stderr,
        )
        return EXIT_HYPOTHESES
    try:
        cfg = _flow_config_from_doc(doc)
    except CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    start = time.monotonic()
    trace = run(cfg)
    samples = monitor(trace, cfg.law, t0=0.0) if len(trace) >= 3 else []
    wall = time.monotonic() - start
    _atomic_write(os.path.join(out_dir, "trace.csv"), _trace_csv(trace))
    if samples:
        _atomic_write(os.path.join(out_dir, "harnack.csv"), _harnack_csv(samples))
    _atomic_write(
        os.path.join(out_dir, "meta.json"),
        _meta(doc, cfg.law, wall, trace.reason, "harnack"),
    )
    if samples:
        mm = min(s.min_margin for s in samples)
        scale = max(s.max_abs_p for s in samples)
        rel = mm / scale if scale > 0 else float("nan")
        print(f"min_margin = {mm:.6e} (relative {rel:.6e}, scale {scale:.6e})")
    if trace.reason != "completed":
        print(f"flow terminated early: {trace.reason}", file=sys.stderr)
        return EXIT_NONCONVEX
    return EXIT_OK


def cmd_verify(suite: str, out_dir: str | None = None) -> int:
    if suite not in SUITES:
        print(
            f"unknown suite {suite!r}; choose from {', '.join(sorted(SUITES))}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    reports = SUITES[suite]()
    if out_dir:
        _atomic_write(os.path.join(out_dir, "report.csv"), _report_csv(reports))
    failed = [r for r in reports if not r.passed]
    for rep in reports:
        order = "n/a" if rep.order is None else f"{rep.order:.2f}"
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"{status} {rep.identity}: finest residual {rep.finest_residual:.3e}, order {order}"
        )
    if failed:
        print(f"verify failed: {failed[0].identity}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _sweep_row(index: int, tup) -> dict:
    fields = tup if isinstance(tup, dict) else {}
    shape = fields.get("shape", {"type": "circle", "R0": 1.0})
    return {
        "index": index,
        "n": fields.get("n"),
        "b": fields.get("b"),
        "shape": shape.get("type", "circle") if isinstance(shape, dict) else "",
        "status": "ok",
        "min_margin": float("nan"),
        "min_margin_rel": float("nan"),
        "max_abs_P": float("nan"),
    }


def _sweep_doc(tup, base_doc: dict) -> dict:
    if not isinstance(tup, dict):
        raise InvalidConfig(f"a sweep tuple must be a JSON object, got {tup!r}")
    return {
        "n": tup["n"],
        "speed": {"a": -1.0, "beta": -float(tup["b"])},
        "grid": dict(base_doc.get("grid", {"N": 256})),
        "initial": dict(tup.get("shape", {"type": "circle", "R0": 1.0})),
        "time": dict(base_doc.get("time", {"t_end": 2.0})),
        "output": dict(base_doc.get("output", {"stride": 50})),
    }


def _sweep_failed(row: dict, exc: Exception) -> None:
    """Record a tuple's exception in its row."""
    if isinstance(exc, CONFIG_ERRORS):
        row["status"] = "failed:config"
        print(f"tuple {row['index']} rejected: {exc}", file=sys.stderr)
    else:
        row["status"] = "failed:error"
        print(f"tuple {row['index']} failed: {type(exc).__name__}: {exc}", file=sys.stderr)


def _sweep_one(row, doc, cfg, trace, wall: float, ensemble_size: int, out_dir: str) -> None:
    """Monitor one tuple's trace; write its harnack.csv and meta.json.

    wall is the stepping time of the tuple's whole ensemble.
    """
    if trace.reason != "completed":
        row["status"] = f"failed:{trace.reason}"
        return
    samples = monitor(trace, cfg.law, t0=0.0)
    mm = min(s.min_margin for s in samples)
    scale = max(s.max_abs_p for s in samples)
    row["min_margin"] = mm
    row["min_margin_rel"] = mm / scale if scale > 0 else float("nan")
    row["max_abs_P"] = scale
    sub = os.path.join(out_dir, f"tuple_{row['index']:04d}")
    _atomic_write(os.path.join(sub, "harnack.csv"), _harnack_csv(samples))
    _atomic_write(
        os.path.join(sub, "meta.json"),
        _meta(doc, cfg.law, wall, trace.reason, "sweep", ensemble_size=ensemble_size),
    )


def cmd_sweep(config_path: str, out_dir: str) -> int:
    try:
        doc = _load_json(config_path)
        tuples = doc.get("tuples", [])
    except (OSError, *CONFIG_ERRORS) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(tuples, list) or not tuples:
        print("config error: sweep needs a non-empty 'tuples' list", file=sys.stderr)
        return EXIT_CONFIG
    rows, valid = [], []
    for index, tup in enumerate(tuples):
        rows.append(_sweep_row(index, tup))
        try:
            tuple_doc = _sweep_doc(tup, doc)
            valid.append((rows[-1], tuple_doc, _flow_config_from_doc(tuple_doc)))
        except Exception as exc:
            _sweep_failed(rows[-1], exc)
    pending = [[valid[j] for j in members] for members in ensembles([v[2] for v in valid])]
    while pending:
        members = pending.pop(0)
        start = time.monotonic()
        try:
            # run takes a list too; perfbench/probe.py ends its set-up timing at run
            traces = run([cfg for _, _, cfg in members])
        except Exception as exc:
            if len(members) == 1:
                _sweep_failed(members[0][0], exc)
            else:  # each tuple runs alone, so that only the failing ones fail
                pending[:0] = [[m] for m in members]
            continue
        wall = time.monotonic() - start
        for (row, tuple_doc, cfg), trace in zip(members, traces):
            try:
                _sweep_one(row, tuple_doc, cfg, trace, wall, len(members), out_dir)
            except Exception as exc:
                _sweep_failed(row, exc)
    lines = ["index,n,b,shape,status,min_margin,min_margin_rel,max_abs_P"]
    for row in rows:
        lines.append(
            ",".join(
                [
                    str(row["index"]),
                    str(row["n"]),
                    _number_or_blank(row["b"]),
                    str(row["shape"]),
                    row["status"],
                    _fmt(row["min_margin"]),
                    _fmt(row["min_margin_rel"]),
                    _fmt(row["max_abs_P"]),
                ]
            )
        )
    _atomic_write(os.path.join(out_dir, "sweep.csv"), "\n".join(lines) + "\n")
    bad = [r for r in rows if r["status"] != "ok"]
    for row in rows:
        print(
            f"tuple {row['index']}: n={row['n']} b={row['b']} -> {row['status']}"
            + (
                f", min_margin_rel={row['min_margin_rel']:.3e}"
                if row["status"] == "ok"
                else ""
            )
        )
    return EXIT_OK if not bad else EXIT_VERIFY_FAIL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gcf",
        description="Power-of-Gauss-curvature flow simulator and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a flow and write trace.csv")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)

    p_h = sub.add_parser("harnack", help="run a flow and monitor Harnack quantities")
    p_h.add_argument("--config", required=True)
    p_h.add_argument("--out", required=True)
    p_h.add_argument("--enforce-hypotheses", action="store_true")

    p_v = sub.add_parser("verify", help="run a named verification suite")
    p_v.add_argument("--suite", required=True)
    p_v.add_argument("--out", default=None)

    p_s = sub.add_parser("sweep", help="run a Harnack sweep over (n, b, shape) tuples")
    p_s.add_argument("--config", required=True)
    p_s.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out)
    if args.command == "harnack":
        return cmd_harnack(args.config, args.out, args.enforce_hypotheses)
    if args.command == "verify":
        return cmd_verify(args.suite, args.out)
    if args.command == "sweep":
        return cmd_sweep(args.config, args.out)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
