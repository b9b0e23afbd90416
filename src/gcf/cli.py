"""Configuration-driven command line: run flows, emit Harnack monitors,
execute verification suites, sweep parameters.

All outputs are flat files written atomically (temp file + rename):
trace.csv, harnack.csv, report.csv, sweep.csv, and a meta.json with the
echoed configuration, the run's steps and right-hand-side evaluations,
and the wall time of each of its phases (step, monitor, write).  Timing
goes only into meta.json: numeric CSV fields carry 17 significant digits,
so identical configurations reproduce byte-identical CSVs.  A sweep steps
its tuples as ensembles (see flow.ensembles), one run per ensemble: the
tuples of one law kind step together, at any n and N.

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
from .errors import GcfError, InsufficientTrace, InvalidConfig
from .flow import DEFAULT_SAFETY, FlowConfig, InitialShape, ensembles, run
from .geometry import mean_curvature
from .harnack import MarginSummary, margin_summary, monitor
from .speedlaw import SpeedLaw, expanding_b, theorem_hypotheses
from .verify import SUITES

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NONCONVEX = 3
EXIT_HYPOTHESES = 4

# What a malformed config raises while it is read: bad JSON is a
# ValueError, a missing field a KeyError, a field of the wrong type a
# TypeError, an integer too large for a float an OverflowError.
CONFIG_ERRORS = (GcfError, KeyError, ValueError, TypeError, OverflowError)


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _csv_field(text: str) -> str:
    """text as one CSV field: quoted if it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _number_or_blank(x) -> str:
    try:
        return _fmt(x)
    except (TypeError, ValueError, OverflowError):
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


def _integer(value, name: str) -> int:
    """A JSON integer, or a float with an integral value such as 2.0."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InvalidConfig(f"{name} must be an integer, got {value!r}")


def _law_from_doc(doc: dict) -> SpeedLaw:
    speed = _section(doc, "speed")
    kind = speed.get("kind", "power")
    if kind == "power":
        return SpeedLaw.power(float(speed["a"]), float(speed["beta"]))
    return SpeedLaw(kind)  # rejects a kind that is neither power nor exp


def _flow_config_from_doc(doc: dict) -> FlowConfig:
    law = _law_from_doc(doc)
    n = _integer(doc["n"], "n")
    size = _integer(_section(doc, "grid").get("N", 256), "grid.N")
    init = _section(doc, "initial")
    kind = init.get("type", "circle")
    if kind in ("circle", "sphere", "round"):
        shape = InitialShape("round", R0=float(init.get("R0", 1.0)))
    elif kind == "fourier":
        modes = tuple(
            (_integer(k, "mode wavenumber"), float(a)) for k, a in init.get("modes", [])
        )
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
        stride=_integer(_section(doc, "output").get("stride", 1), "output.stride"),
    )


def _meta(doc: dict, law: SpeedLaw, wall: float, trace, command: str, **extra) -> str:
    payload = {
        "command": command,
        "config": doc,
        "law_mapping": {
            "kind": law.kind,
            "a": law.a if law.is_power else None,
            "beta": law.beta if law.is_power else None,
            "paper_b": expanding_b(law, trace.n),
        },
        "termination_reason": trace.reason,
        "steps": trace.steps,
        "rhs_evals": trace.rhs_evals,
        "dt_min": trace.dt_min,
        "dt_max": trace.dt_max,
        "gcf_version": __version__,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "wall_time_s": wall,
        **extra,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# Both CSV writers format a state's rows with one % over a template of its
# rows.  What a row holds besides its %.17g values (the time, the node index
# and angle, the bound) is text in the template: the per-node part is
# formatted once per trace, and the time and bound once per state.


def _trace_csv(trace):
    """trace.csv as text chunks, one per stored state."""
    if trace.n == 1:
        yield "t,node_index,angle,h,r,K,H\n"
    else:
        yield "t,node_index,angle,h,r1,r2,K,H\n"
    values = ",%.17g" * (trace.n + 3) + "\n"  # h, the radii, K and H
    angles = trace.grids[0].angles.tolist()
    tails = [",%d,%s%s" % (i, _fmt(a), values) for i, a in enumerate(angles)]
    for t, grid in zip(trace.times, trace.grids):
        radii, K = grid.curvature()
        cols = np.stack((grid.values, *radii, K, mean_curvature(radii, K)), axis=-1)
        t = _fmt(t)
        yield (t + t.join(tails)) % tuple(cols.ravel().tolist())


def _harnack_csv(table):
    """harnack.csv of a monitor table as text chunks, one per monitored state."""
    yield "t,node_index,u,dt_u_spatial,dt_u_fd,grad_sq_h,lhs_eq12,P_trace,bound_eq316,margin\n"
    heads = [",%d%s," % (i, ",%.17g" * 6) for i in range(table.u.shape[1])]
    cols = (table.u, table.dt_u_spatial, table.dt_u_fd, table.grad_sq_h, table.lhs_12,
            table.p_trace, table.margin)
    for i, (t, bound) in enumerate(zip(table.t.tolist(), table.bound.tolist())):
        t, tail = _fmt(t), _fmt(bound) + ",%.17g\n"
        template = t + (tail + t).join(heads) + tail
        yield template % tuple(np.stack([c[i] for c in cols], axis=-1).ravel().tolist())


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


def _write_run(
    out_dir: str, doc: dict, law: SpeedLaw, wall: float, trace, command: str, phases: dict
) -> int:
    """Write trace.csv and meta.json of a run; the exit code its end gives.

    phases holds the wall seconds of the run's phases so far; the time of
    writing trace.csv is added to its "write", and meta.json records it as
    phase_wall_s.  A flow that ended early is reported on stderr and exits 3.
    """
    start = time.monotonic()
    _atomic_write(os.path.join(out_dir, "trace.csv"), _trace_csv(trace))
    phases["write"] = phases.get("write", 0.0) + time.monotonic() - start
    _atomic_write(
        os.path.join(out_dir, "meta.json"),
        _meta(doc, law, wall, trace, command, phase_wall_s=phases),
    )
    if trace.reason != "completed":
        print(f"flow terminated early: {trace.reason}", file=sys.stderr)
        return EXIT_NONCONVEX
    return EXIT_OK


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
    code = _write_run(out_dir, doc, cfg.law, wall, trace, "run", {"step": wall})
    if code == EXIT_OK:
        print(f"completed: {len(trace)} stored states -> {out_dir}/trace.csv")
    return code


def _monitor_and_write(trace, law: SpeedLaw, out_dir: str, phases: dict) -> MarginSummary:
    """Monitor a trace and write out_dir/harnack.csv; the margin summary.

    The wall seconds of monitoring and of writing are set as phases'
    "monitor" and "write".
    """
    start = time.monotonic()
    table = monitor(trace, law, t0=0.0)
    monitored = time.monotonic()
    _atomic_write(os.path.join(out_dir, "harnack.csv"), _harnack_csv(table))
    phases["monitor"], phases["write"] = monitored - start, time.monotonic() - monitored
    return margin_summary(table)


def cmd_harnack(config_path: str, out_dir: str, enforce_hypotheses: bool = False) -> int:
    try:
        doc = _load_json(config_path)
        law = _law_from_doc(doc)
        n = _integer(doc["n"], "n")
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
    phases = {"step": time.monotonic() - start}
    try:
        summary = _monitor_and_write(trace, cfg.law, out_dir, phases)
    except InsufficientTrace as exc:
        # A completed run that stored too few states is misconfigured
        # (output.stride too coarse); an early end keeps its own exit code.
        wall = time.monotonic() - start
        code = _write_run(out_dir, doc, cfg.law, wall, trace, "harnack", phases)
        if code != EXIT_OK:
            return code
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    wall = phases["step"] + phases["monitor"]
    print(
        f"min_margin = {summary.min_margin:.6e} (relative {summary.min_margin_rel:.6e}, "
        f"scale {summary.max_abs_P:.6e})"
    )
    return _write_run(out_dir, doc, cfg.law, wall, trace, "harnack", phases)


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

    wall is the stepping time of the tuple's whole ensemble, which is also
    the "step" of its phase_wall_s, and ensemble_size the number of tuples
    in that ensemble: every tuple of the sweep, unless its ensemble failed
    and the tuple was run again alone.
    """
    if trace.reason != "completed":
        row["status"] = f"failed:{trace.reason}"
        return
    sub = os.path.join(out_dir, f"tuple_{row['index']:04d}")
    phases = {"step": wall}
    row.update(_monitor_and_write(trace, cfg.law, sub, phases)._asdict())
    _atomic_write(
        os.path.join(sub, "meta.json"),
        _meta(doc, cfg.law, wall, trace, "sweep", ensemble_size=ensemble_size, phase_wall_s=phases),
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
                    _csv_field(str(row["n"])),  # a bad tuple's n and shape are echoed as given
                    _number_or_blank(row["b"]),
                    _csv_field(str(row["shape"])),
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
