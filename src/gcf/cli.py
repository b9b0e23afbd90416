"""Configuration-driven command line: run flows, emit Harnack monitors,
execute verification suites, sweep parameters.

Configs are read, and outputs written, as UTF-8 in any locale.  All
outputs are flat files written atomically (temp file + rename):
trace.csv, harnack.csv, report.csv, sweep.csv, and a meta.json with the
echoed configuration, the run's steps and right-hand-side evaluations,
and the wall time of each of its phases (step, monitor, write).  Timing
goes only into meta.json: numeric CSV fields carry 17 significant digits,
so identical configurations reproduce byte-identical CSVs.  `gcf run` and
`gcf harnack` are one driver (cmd_flow): run is harnack without the
monitor, so both write the same trace.csv and meta.json for a config.  A
sweep steps all its valid tuples in one run: every tuple's law is
-K^(-b), so they form one ensemble (see flow.run) at any n and N.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
bad command line, or an --out path that cannot be a directory (checked
before any work is done), 3 early flow termination (lost convexity, the
origin leaving the body, or step underflow), 4 law outside the
Harnack-bound hypotheses when enforcement is requested.  Exit 2 prints
one line on stderr; for a bad command line it is argparse's
`gcf ...: error: ...` line, without the usage text.
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
from .flow import FlowConfig, InitialShape, run
from .fmt17 import ARGS, PIECES, g17
from .geometry import mean_curvature, stack_grids
from .harnack import MarginSummary, margin_summary, monitor
from .speedlaw import SpeedLaw, expanding_b, theorem_hypotheses
from .verify import SUITES

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NONCONVEX = 3
EXIT_HYPOTHESES = 4

# What a malformed config raises while it is read: a missing field, or a
# number, integer or block of the wrong kind, is a GcfError; bad JSON, or
# a mode that is not a pair, a ValueError or TypeError; an integer too
# large for a float an OverflowError.
CONFIG_ERRORS = (GcfError, ValueError, TypeError, OverflowError)


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _csv_field(text: str) -> str:
    """text as one CSV field: quoted if it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _echo(value) -> str:
    """str(value) with any non-ASCII character escaped, so any locale can print it."""
    return str(value).encode("ascii", "backslashreplace").decode("ascii")


def _b_field(b) -> str:
    """A sweep tuple's b as a CSV field: blank if missing, a JSON number as
    %.17g, anything else (a rejected b) echoed as given."""
    if b is None:
        return ""
    if isinstance(b, (int, float)) and not isinstance(b, bool):
        try:
            return _fmt(b)
        except OverflowError:  # an integer beyond the float range
            pass
    return _csv_field(str(b))


def _atomic_write(path: str, text) -> None:
    """Write text, a string or an iterable of string chunks, to path.

    Chunks go to a temporary file one at a time, which is renamed to path
    once complete, so the text is never held whole in memory.
    """
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:  # arrays or objects nested deeper than the parser recurses
            raise InvalidConfig("the config nests too deeply to parse") from None
    if not isinstance(doc, dict):
        raise InvalidConfig("the config must be a JSON object")
    return doc


def _make_out_dir(out_dir: str) -> bool:
    """Create out_dir, if missing, before any work is done; False, after
    one stderr line, if it cannot be a directory."""
    try:
        os.makedirs(os.path.abspath(out_dir), exist_ok=True)  # "" is the working directory
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return False
    return True


def _object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise InvalidConfig(f"{key!r} must be a JSON object, got {value!r}")
    return value


def _section(doc: dict, key: str) -> dict:
    return _object(doc.get(key, {}), key)


def _required(block: dict, key: str, name: str):
    """block[key], the field called name; a config error if it is missing."""
    if key not in block:
        raise InvalidConfig(f"{name} is required")
    return block[key]


def _integer(value, name: str) -> int:
    """A JSON integer, or a float with an integral value such as 2.0."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InvalidConfig(f"{name} must be an integer, got {value!r}")


def _number(value, name: str) -> float:
    """A JSON number, integer or not, as a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise InvalidConfig(f"{name} must be a number, got {value!r}")


def _law_from_doc(doc: dict) -> SpeedLaw:
    speed = _section(doc, "speed")
    kind = speed.get("kind", "power")
    if kind == "power":
        a = _number(_required(speed, "a", "speed.a"), "speed.a")
        return SpeedLaw.power(a, _number(_required(speed, "beta", "speed.beta"), "speed.beta"))
    return SpeedLaw(kind)  # rejects a kind that is neither power nor exp


def _flow_config_from_doc(doc: dict) -> FlowConfig:
    law = _law_from_doc(doc)
    n = _integer(_required(doc, "n", "n"), "n")
    size = _integer(_section(doc, "grid").get("N", 256), "grid.N")
    init = _section(doc, "initial")
    kind = init.get("type", "circle")
    R0 = _number(init.get("R0", 1.0), "initial.R0")
    if kind in ("circle", "sphere", "round"):
        kind, modes = "round", ()  # a round kind ignores its modes
    elif kind == "fourier":
        modes = tuple(
            (_integer(k, "mode wavenumber"), _number(a, "mode amplitude"))
            for k, a in init.get("modes", [])
        )
    else:
        raise GcfError(f"unknown initial type {kind!r}")
    tdoc = _section(doc, "time")
    t_end = _number(_required(tdoc, "t_end", "time.t_end"), "time.t_end")
    t0 = _number(tdoc.get("t0", 0.0), "time.t0")
    stride = _integer(_section(doc, "output").get("stride", 1), "output.stride")
    try:  # a bad n or N, an R0 <= 0, or a grid too large to allocate
        grid = InitialShape(kind, R0=R0, modes=modes).build(n, size)
    except Exception as exc:
        raise InvalidConfig(f"initial shape is not admissible: {exc}") from exc
    return FlowConfig(grid, law, (t_end,), t0, stride)


def _meta(doc: dict, wall: float, trace, command: str, **extra) -> str:
    law = trace.law
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


# Both CSV writers format a block of states at a time: fmt17.g17 turns the
# block's floats into the int arguments of % pieces, and each state's rows
# are one % over a template of their cells.  What a row holds besides its
# floats (the time, the node index and angle, the bound) is text in the
# template: the per-node part is formatted once per trace, and the time and
# bound once per state.  A block holds at most _BLOCK_VALUES floats (or one
# state), which bounds what the writers hold at once: about 200 bytes a float.
_FIELDS = np.array(["," + piece for piece in PIECES], dtype=object)
_BLOCK_VALUES = 8192


def _state_chunks(heads, texts, values, width):
    """Text chunks, one per state, of rows of width float fields.

    Row j of state i is texts[i]'s time, heads[j], and the row's fields,
    with texts[i]'s second text before the last field.  values(i, j) gives
    the floats of states i to j - 1 as a (j - i, len(heads), width) array.
    """
    size = len(heads) * width  # floats per state
    step = max(1, _BLOCK_VALUES // size)
    cells = np.empty((step, len(heads), width + 4), dtype=object)
    cells[:, :, 1], cells[:, :, -1] = heads, "\n"
    for i in range(0, len(texts), step):
        block = texts[i:i + step]
        codes, args = g17(values(i, i + len(block)))
        fields = _FIELDS[codes].reshape(len(block), len(heads), width)
        cells[:len(block), :, 2:-3], cells[:len(block), :, -2] = fields[..., :-1], fields[..., -1]
        ends = np.cumsum(ARGS[codes])[size - 1::size].tolist()
        for state, (t, mid), start, end in zip(cells, block, [0, *ends], ends):
            state[:, 0], state[:, -3] = t, mid
            yield "".join(state.ravel().tolist()) % tuple(args[start:end])


def _trace_csv(trace):
    """trace.csv as text chunks, one per stored state."""
    if trace.n == 1:
        yield "t,node_index,angle,h,r,K,H\n"
    else:
        yield "t,node_index,angle,h,r1,r2,K,H\n"

    def columns(i, j):  # h, the radii, K and H of states i to j - 1
        grids = trace.grids[i:j]
        radii, K = stack_grids(grids)
        return np.stack(([g.values for g in grids], *radii, K, mean_curvature(radii)), axis=-1)

    heads = [",%d,%s" % (i, _fmt(a)) for i, a in enumerate(trace.grids[0].angles.tolist())]
    texts = [(_fmt(t), "") for t in trace.times]
    yield from _state_chunks(heads, texts, columns, trace.n + 3)


def _harnack_csv(table):
    """harnack.csv of a monitor table as text chunks, one per monitored state."""
    yield "t,node_index,u,dt_u_spatial,dt_u_fd,grad_sq_h,lhs_eq12,P_trace,bound_eq316,margin\n"
    cols = (table.u, table.dt_u_spatial, table.dt_u_fd, table.grad_sq_h, table.lhs_12,
            table.p_trace, table.margin)
    heads = [",%d" % i for i in range(table.u.shape[1])]
    texts = [(_fmt(t), "," + _fmt(b)) for t, b in zip(table.t.tolist(), table.bound.tolist())]
    yield from _state_chunks(
        heads, texts, lambda i, j: np.stack([c[i:j] for c in cols], axis=-1), len(cols)
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


def _monitor_and_write(trace, out_dir: str, phases: dict) -> MarginSummary:
    """Monitor a trace and write out_dir/harnack.csv; the margin summary.

    The wall seconds of monitoring and of writing are set as phases'
    "monitor" and "write".
    """
    start = time.monotonic()
    table = monitor(trace)
    monitored = time.monotonic()
    _atomic_write(os.path.join(out_dir, "harnack.csv"), _harnack_csv(table))
    phases["monitor"], phases["write"] = monitored - start, time.monotonic() - monitored
    return margin_summary(table)


def cmd_flow(args: argparse.Namespace) -> int:
    """`gcf run` or `gcf harnack`, as args.command names it; the exit code.

    Both step the config's flow and write trace.csv and meta.json; harnack
    first checks the law against the theorem's hypotheses if asked, and
    monitors the trace and writes harnack.csv before trace.csv.  meta.json's
    wall_time_s is the stepping time, plus the monitoring time for harnack,
    and its phase_wall_s holds each phase.  A flow that ended early exits 3;
    a completed harnack run that stored too few states to monitor exits 2.
    """
    harnack = args.command == "harnack"
    try:
        doc = _load_json(args.config)
        if harnack and args.enforce_hypotheses:
            law, n = _law_from_doc(doc), _integer(_required(doc, "n", "n"), "n")
            # any other n is a config error, which _flow_config_from_doc reports
            if n in (1, 2) and not theorem_hypotheses(law, n):
                print(
                    f"law outside the Harnack-bound hypotheses for n={n}: "
                    f"need a power law with a > 0, beta > 0 or a < 0, -1/n < beta < 0",
                    file=sys.stderr,
                )
                return EXIT_HYPOTHESES
        cfg = _flow_config_from_doc(doc)
    except (OSError, *CONFIG_ERRORS) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not _make_out_dir(args.out):
        return EXIT_CONFIG
    start = time.monotonic()
    trace = run(cfg)  # perfbench/probe.py ends its set-up timing at run
    phases = {"step": time.monotonic() - start}
    wall, too_few = phases["step"], None
    if harnack:
        try:
            summary = _monitor_and_write(trace, args.out, phases)
        except InsufficientTrace as exc:
            # A completed run that stored too few states is misconfigured
            # (output.stride too coarse); an early end keeps its own exit code.
            wall, too_few = time.monotonic() - start, exc
        else:
            wall += phases["monitor"]
            print(
                f"min_margin = {summary.min_margin:.6e} (relative {summary.min_margin_rel:.6e}, "
                f"scale {summary.max_abs_P:.6e})"
            )
    written = time.monotonic()
    _atomic_write(os.path.join(args.out, "trace.csv"), _trace_csv(trace))
    phases["write"] = phases.get("write", 0.0) + time.monotonic() - written
    _atomic_write(
        os.path.join(args.out, "meta.json"),
        _meta(doc, wall, trace, args.command, phase_wall_s=phases),
    )
    if trace.reason != "completed":
        print(f"flow terminated early: {trace.reason}", file=sys.stderr)
        return EXIT_NONCONVEX
    if too_few is not None:
        print(f"config error: {too_few}", file=sys.stderr)
        return EXIT_CONFIG
    if not harnack:
        print(f"completed: {len(trace)} stored states -> {os.path.join(args.out, 'trace.csv')}")
    return EXIT_OK


def cmd_verify(suite: str, out_dir: str | None = None) -> int:
    if out_dir is not None and not _make_out_dir(out_dir):
        return EXIT_CONFIG
    reports = SUITES[suite]()
    if out_dir is not None:
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
    shape = fields.get("shape", _SWEEP_SHAPE)
    return {
        "index": index,
        "n": fields.get("n"),
        "b": fields.get("b"),
        "shape": shape.get("type", "circle") if isinstance(shape, dict) else "",
        "status": "ok",
        **dict.fromkeys(MarginSummary._fields, float("nan")),
    }


# The shape of a sweep tuple that gives none.
_SWEEP_SHAPE = {"type": "circle", "R0": 1.0}
# A sweep's defaults for the fields of its shared blocks; a field a block
# gives replaces its default, and the others keep theirs.
_SWEEP_DEFAULTS = {"grid": {"N": 256}, "time": {"t_end": 2.0}, "output": {"stride": 50}}


def _sweep_doc(tup, base_doc: dict) -> dict:
    if not isinstance(tup, dict):
        raise InvalidConfig(f"a sweep tuple must be a JSON object, got {tup!r}")
    return {
        "n": _required(tup, "n", "n"),
        "speed": {"a": -1.0, "beta": -_number(_required(tup, "b", "b"), "b")},
        "initial": _object(tup.get("shape", _SWEEP_SHAPE), "shape"),
        **{key: {**fields, **_section(base_doc, key)} for key, fields in _SWEEP_DEFAULTS.items()},
    }


def _sweep_failed(row: dict, exc: Exception) -> None:
    """Record a tuple's exception in its row."""
    if isinstance(exc, CONFIG_ERRORS):
        row["status"] = "failed:config"
        print(f"tuple {row['index']} rejected: {exc}", file=sys.stderr)
    else:
        row["status"] = "failed:error"
        print(f"tuple {row['index']} failed: {type(exc).__name__}: {exc}", file=sys.stderr)


def _sweep_one(row, doc, trace, wall: float, share: float, ensemble_size: int,
               out_dir: str) -> None:
    """Monitor one tuple's trace; write its harnack.csv and meta.json.

    wall is the stepping time of the tuple's whole ensemble, which is also
    the "step" of its phase_wall_s, share the tuple's part of it (its
    "step_share"), and ensemble_size the number of tuples in that ensemble:
    every tuple of the sweep, unless its ensemble failed and the tuple was
    run again alone.
    """
    if trace.reason != "completed":
        row["status"] = f"failed:{trace.reason}"
        return
    sub = os.path.join(out_dir, f"tuple_{row['index']:04d}")
    phases = {"step": wall, "step_share": share}
    row.update(_monitor_and_write(trace, sub, phases)._asdict())
    _atomic_write(
        os.path.join(sub, "meta.json"),
        _meta(doc, wall, trace, "sweep", ensemble_size=ensemble_size, phase_wall_s=phases),
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
    if not _make_out_dir(out_dir):
        return EXIT_CONFIG
    rows, valid = [], []
    for index, tup in enumerate(tuples):
        rows.append(_sweep_row(index, tup))
        try:
            tuple_doc = _sweep_doc(tup, doc)
            valid.append((rows[-1], tuple_doc, _flow_config_from_doc(tuple_doc)))
        except Exception as exc:
            _sweep_failed(rows[-1], exc)
    pending = [valid] if valid else []  # one run; after an exception, one per tuple
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
        # each tuple's share of the stepping time: by its accepted steps
        # times its nodes, or an equal share when no tuple took a step
        work = [trace.steps * cfg.grid.size for (*_, cfg), trace in zip(members, traces)]
        total = sum(work)
        for (row, tuple_doc, _), trace, w in zip(members, traces, work):
            share = wall * w / total if total else wall / len(members)
            try:
                _sweep_one(row, tuple_doc, trace, wall, share, len(members), out_dir)
            except Exception as exc:
                _sweep_failed(row, exc)
    lines = ["index,n,b,shape,status,min_margin,min_margin_rel,max_abs_P"]
    for row in rows:
        lines.append(
            ",".join(
                [
                    str(row["index"]),
                    _csv_field(str(row["n"])),  # a bad tuple's n and shape are echoed as given
                    _b_field(row["b"]),
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
            f"tuple {row['index']}: n={_echo(row['n'])} b={_echo(row['b'])} -> {row['status']}"
            + (
                f", min_margin_rel={row['min_margin_rel']:.3e}"
                if row["status"] == "ok"
                else ""
            )
        )
    return EXIT_OK if not bad else EXIT_VERIFY_FAIL


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage error is one stderr line, with no usage text."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="gcf",
        description="Power-of-Gauss-curvature flow simulator and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)  # its parsers are _Parsers
    io = argparse.ArgumentParser(add_help=False)  # the options of run, harnack and sweep
    io.add_argument("--config", required=True)
    io.add_argument("--out", required=True)

    sub.add_parser("run", parents=[io], help="integrate a flow and write trace.csv")
    p_h = sub.add_parser("harnack", parents=[io], help="run a flow and monitor Harnack quantities")
    p_h.add_argument("--enforce-hypotheses", action="store_true")

    p_v = sub.add_parser("verify", help="run a named verification suite")
    p_v.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_v.add_argument("--out", default=None)

    sub.add_parser("sweep", parents=[io], help="run a Harnack sweep over (n, b, shape) tuples")

    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args.suite, args.out)
    if args.command == "sweep":
        return cmd_sweep(args.config, args.out)
    return cmd_flow(args)


if __name__ == "__main__":
    sys.exit(main())
