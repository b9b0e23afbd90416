import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gcf import cli
from gcf.cli import _atomic_write, _harnack_csv, main
from gcf.flow import FlowConfig, run
from gcf.geometry import derive_state, fourier_grid, round_grid
from gcf.harnack import monitor
from gcf.speedlaw import SpeedLaw
from gcf.verify import IdentityReport


def write_config(path, **overrides):
    doc = {
        "n": 1,
        "speed": {"a": -1.0, "beta": -0.5},
        "grid": {"N": 64},
        "initial": {"type": "circle", "R0": 1.0},
        "time": {"t_end": 2.0},
        "output": {"stride": 100},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return doc


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_run_writes_trace_and_meta(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv(out / "trace.csv")
    assert header == ["t", "node_index", "angle", "h", "r", "K", "H"]
    final_h = float(rows[-1][3])
    assert final_h == pytest.approx(4.0, rel=1e-6)
    meta = json.loads((out / "meta.json").read_text())
    assert meta["law_mapping"]["paper_b"] == pytest.approx(0.5)
    assert meta["termination_reason"] == "completed"
    trace = run(FlowConfig(
        grid=round_grid(1, 1.0, 64), law=SpeedLaw.power(-1.0, -0.5), t_end=2.0, stride=100,
    ))
    assert (meta["steps"], meta["dt_min"], meta["dt_max"]) == (
        trace.steps, trace.dt_min, trace.dt_max
    )
    assert 0.0 < meta["dt_min"] <= meta["dt_max"]
    assert meta["rhs_evals"] == trace.rhs_evals == 4 * trace.steps


def test_run_of_a_huge_round_body_is_silent(tmp_path, capsys):
    # K**2 underflows at R0 = 1e200, so the step bound is infinite and the
    # flow takes one step of its whole time span, with no numpy warning
    cfg = tmp_path / "cfg.json"
    write_config(cfg, initial={"type": "circle", "R0": 1e200}, time={"t_end": 1.0})
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert caught == []
    assert capsys.readouterr().err == ""
    meta = json.loads((out / "meta.json").read_text())
    assert (meta["steps"], meta["dt_min"], meta["dt_max"]) == (1, 1.0, 1.0)


@pytest.mark.parametrize("beta,R0", [(-0.9, 1e200), (-0.95, 1e160)], ids=["nan-lambda", "inf-lambda"])
def test_run_of_a_huge_round_body_whose_f1_overflows_is_silent(tmp_path, capsys, beta, R0):
    # f1(K) overflows while K*K underflows; lambda itself is tiny, so the
    # flow takes one step of its whole time span
    cfg = tmp_path / "cfg.json"
    write_config(
        cfg, speed={"a": -1.0, "beta": beta}, initial={"type": "circle", "R0": R0},
        time={"t_end": 1.0},
    )
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    meta = json.loads((out / "meta.json").read_text())
    assert (meta["termination_reason"], meta["steps"], meta["dt_min"], meta["dt_max"]) == (
        "completed", 1, 1.0, 1.0
    )


@pytest.mark.parametrize("out", ["", "out"], ids=["working-directory", "a-directory"])
def test_run_names_the_trace_it_wrote(tmp_path, monkeypatch, capsys, out):
    # --out "" writes into the working directory, so the trace is trace.csv
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "cfg.json", grid={"N": 16})
    assert main(["run", "--config", "cfg.json", "--out", out]) == 0
    named = capsys.readouterr().out.strip().rsplit(" -> ", 1)[1]
    assert named == os.path.join(out, "trace.csv")
    assert (tmp_path / named).is_file()


def test_run_rejects_exponent_out_of_range(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, n=2, speed={"a": -1.0, "beta": -0.9}, grid={"N": 32})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "b < 1/n" in capsys.readouterr().err


def test_run_rejects_nonconvex_initial(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, initial={"type": "fourier", "R0": 1.0, "modes": [[4, 0.2]]})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus"],
        ["run"],
        [],
        ["run", "--enforce-hypotheses"],
        ["run", "--config", "c.json", "--out", "o", "--enforce-hypotheses"],
        ["verify", "--suite", "nonsense"],
    ],
    ids=[
        "unknown", "no-options", "none", "run-enforce-hypotheses", "run-unknown-option",
        "verify-unknown-suite",
    ],
)
def test_a_bad_command_line_exits_2_with_a_usage_error(argv, capsys):
    # argparse's required subcommand and options, and the choices of
    # --suite, end the parse before any dispatch, with one stderr line and
    # no usage text
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert re.match(r"gcf( \w+)?: error: ", line)


@pytest.mark.parametrize(
    "doc,code",
    [
        ({"initial": {"type": "fourier", "R0": 1.0, "modes": [[3, 0.03]]}}, 0),
        ({"n": 2, "speed": {"a": -1.0, "beta": -0.25}, "grid": {"N": 32},
          "time": {"t_end": 0.3}, "output": {"stride": 5}}, 0),
        ({"speed": {"a": 1, "beta": 1}, "grid": {"N": 32},
          "initial": {"type": "fourier", "R0": 1.0, "modes": [[1, 0.5]]},
          "time": {"t_end": 1}, "output": {"stride": 10}}, 3),
    ],
    ids=["n1", "n2", "early-end"],
)
def test_run_and_harnack_write_the_same_trace_and_record(tmp_path, doc, code):
    # one config under both commands: the same trace.csv bytes, and a
    # meta.json that differs only in the command and the wall times
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **doc)
    metas = {}
    for command in ("run", "harnack"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == code
        metas[command] = json.loads((tmp_path / command / "meta.json").read_text())
        for key in ("command", "wall_time_s", "phase_wall_s"):
            metas[command].pop(key)
    assert (tmp_path / "run" / "trace.csv").read_bytes() == (
        tmp_path / "harnack" / "trace.csv"
    ).read_bytes()
    assert metas["run"] == metas["harnack"]
    assert metas["run"]["termination_reason"] == ("completed" if code == 0 else "origin_outside")


def test_harnack_outputs_and_summary(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(
        cfg,
        grid={"N": 128},
        initial={"type": "fourier", "R0": 1.0, "modes": [[3, 0.03]]},
        time={"t_end": 1.0},
        output={"stride": 40},
    )
    out = tmp_path / "out"
    assert main(["harnack", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv(out / "harnack.csv")
    assert header == [
        "t", "node_index", "u", "dt_u_spatial", "dt_u_fd", "grad_sq_h",
        "lhs_eq12", "P_trace", "bound_eq316", "margin",
    ]
    assert "min_margin" in capsys.readouterr().out
    margins = np.array([float(r[-1]) for r in rows])
    assert np.all(np.isfinite(margins))
    meta = json.loads((out / "meta.json").read_text())
    assert meta["command"] == "harnack"
    assert meta["steps"] > 0 and 0.0 < meta["dt_min"] <= meta["dt_max"]
    assert meta["rhs_evals"] == 4 * meta["steps"]


def test_harnack_enforce_hypotheses_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, n=2, speed={"a": -1.0, "beta": -0.9}, grid={"N": 32})
    rc = main(["harnack", "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--enforce-hypotheses"])
    assert rc == 4
    # within hypotheses for n=1, so only the config bound applies
    cfg2 = tmp_path / "cfg2.json"
    write_config(cfg2, n=1, speed={"a": -1.0, "beta": -0.9}, grid={"N": 64},
                 time={"t_end": 0.5}, output={"stride": 20})
    rc = main(["harnack", "--config", str(cfg2), "--out", str(tmp_path / "o2"),
               "--enforce-hypotheses"])
    assert rc == 0


def test_verify_speedlaw_report(tmp_path, capsys):
    out = tmp_path / "v"
    assert main(["verify", "--suite", "speedlaw", "--out", str(out)]) == 0
    header, rows = read_csv(out / "report.csv")
    assert header == ["identity", "resolution", "residual", "order", "pass"]
    assert all(r[-1] == "true" for r in rows)
    assert "PASS" in capsys.readouterr().out


def test_verify_out_empty_is_the_working_directory(tmp_path, monkeypatch):
    # as for the other commands, --out "" writes into the working directory
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--suite", "speedlaw", "--out", ""]) == 0
    assert (tmp_path / "report.csv").is_file()


@pytest.mark.parametrize("with_out", [False, True], ids=["stdout", "out"])
def test_verify_a_failing_suite_exits_1(tmp_path, capsys, monkeypatch, with_out):
    # the second report's finest residual exceeds its tolerance
    reports = [
        IdentityReport("passes", (1.0,), (0.5,), 1.0),
        IdentityReport("fails", (1.0, 0.5), (4.0, 2.0), 1.0),
    ]
    monkeypatch.setitem(cli.SUITES, "speedlaw", lambda: reports)
    out = tmp_path / "v"
    argv = ["verify", "--suite", "speedlaw"] + (["--out", str(out)] if with_out else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "PASS passes: finest residual 5.000e-01, order n/a",
        "FAIL fails: finest residual 2.000e+00, order n/a",
    ]
    assert captured.err == "verify failed: fails\n"
    if with_out:
        header, rows = read_csv(out / "report.csv")
        passed = {r[0]: r[header.index("pass")] for r in rows}
        assert passed == {"passes": "true", "fails": "false"}


def test_sweep_aggregates_and_isolates_failures(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "tuples": [
            {"n": 1, "b": 0.3},
            {"n": 1, "b": 1.5},
        ],
        "grid": {"N": 64},
        "time": {"t_end": 1.0},
        "output": {"stride": 50},
    }))
    out = tmp_path / "s"
    rc = main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert rc == 1  # one tuple invalid
    header, rows = read_csv(out / "sweep.csv")
    assert header[:5] == ["index", "n", "b", "shape", "status"]
    assert rows[0][4] == "ok"
    assert rows[1][4].startswith("failed")
    assert len(rows[0]) == len(header)  # failed rows stay parseable


def test_sweep_empty_tuples(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"tuples": []}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2


def test_repeated_runs_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(
        cfg,
        grid={"N": 64},
        initial={"type": "fourier", "R0": 1.0, "modes": [[2, 0.02]]},
        time={"t_end": 1.0},
        output={"stride": 30},
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["harnack", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("trace.csv", "harnack.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


# Contracting flows that end early (see test_flow.EARLY_ENDS): a circle
# centred off the origin, which shrinks past it, and a perturbed circle
# that shrinks until its step bound underflows.
ORIGIN_OUTSIDE = {"speed": {"a": 1, "beta": 1}, "grid": {"N": 32},
                  "initial": {"type": "fourier", "modes": [[1, 0.5]]}, "time": {"t_end": 1}}
DT_UNDERFLOW = {"speed": {"a": 1.0, "beta": 1.1700967619904363}, "grid": {"N": 32},
                "initial": {"type": "fourier", "modes": [[5, 0.017207980635981685]]},
                "time": {"t_end": 3.0}}


@pytest.mark.parametrize(
    "overrides,reason",
    [(ORIGIN_OUTSIDE, "origin_outside"), (DT_UNDERFLOW, "dt_underflow")],
    ids=["origin_outside", "dt_underflow"],
)
def test_run_early_end_exits_3(tmp_path, capsys, overrides, reason):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **overrides)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"flow terminated early: {reason}\n"
    meta = json.loads((out / "meta.json").read_text())
    assert meta["termination_reason"] == reason
    assert meta["steps"] > 0 and 0.0 < meta["dt_min"] <= meta["dt_max"]
    # a failed step was evaluated too; a step bound that underflows takes none
    assert meta["rhs_evals"] == 4 * meta["steps"] + 4 * (reason != "dt_underflow")
    assert (out / "trace.csv").exists()


def test_a_time_safety_key_changes_no_output(tmp_path):
    # every flow steps under flow.SAFETY; a safety key is ignored
    outs = []
    for time_block in ({"t_end": 0.5}, {"t_end": 0.5, "safety": 0.5}):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, initial={"type": "fourier", "modes": [[3, 0.02]]}, time=time_block)
        outs.append(tmp_path / f"o{len(outs)}")
        assert main(["run", "--config", str(cfg), "--out", str(outs[-1])]) == 0
    assert (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()


def test_harnack_with_too_few_stored_states_is_a_config_error(tmp_path, capsys):
    # a completed run that stores only its two ends leaves nothing to monitor
    cfg = tmp_path / "cfg.json"
    write_config(cfg, output={"stride": 1000000})
    out = tmp_path / "o"
    assert main(["harnack", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert (out / "trace.csv").exists()
    assert not (out / "harnack.csv").exists()
    assert json.loads((out / "meta.json").read_text())["termination_reason"] == "completed"


def test_harnack_early_end_with_too_few_stored_states_exits_3(tmp_path, capsys):
    # the origin_outside flow of test_run_early_end_exits_3, storing only its two ends
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **ORIGIN_OUTSIDE, output={"stride": 1000000})
    out = tmp_path / "o"
    assert main(["harnack", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "flow terminated early: origin_outside\n"
    assert (out / "trace.csv").exists()
    assert not (out / "harnack.csv").exists()
    assert json.loads((out / "meta.json").read_text())["termination_reason"] == "origin_outside"


# A tiny contracting circle late in time: from t = 2**14 on, a step bound
# above flow.DT_FLOOR can still be too small to move the clock.
LATE_CLOCK = {"speed": {"a": 1, "beta": 1}, "grid": {"N": 32},
              "initial": {"type": "circle", "R0": 1e-4},
              "time": {"t0": 100000, "t_end": 100001}, "output": {"stride": 1}}


def test_harnack_of_a_flow_whose_clock_stops_moving_exits_3_with_finite_rows(tmp_path, capsys):
    # the flow ends dt_underflow when its bound no longer moves t, so no two
    # monitored states share a time and every finite difference in time is finite
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **LATE_CLOCK)
    out = tmp_path / "o"
    assert main(["harnack", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "flow terminated early: dt_underflow\n"
    header, rows = read_csv(out / "harnack.csv")
    column = header.index("dt_u_fd")
    assert rows and all(math.isfinite(float(row[column])) for row in rows)


def test_sweep_tuple_with_too_few_stored_states_fails_config(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "tuples": [{"n": 1, "b": 0.3}],
        "grid": {"N": 64},
        "time": {"t_end": 1.0},
        "output": {"stride": 1000000},
    }))
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    header, rows = read_csv(out / "sweep.csv")
    assert rows[0][header.index("status")] == "failed:config"


def test_run_rejects_non_object_section(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, speed="fast")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "harnack"])
def test_run_rejects_initial_curvature_outside_law_domain(tmp_path, capsys, command):
    # so large that K = 1/(r1*r2) underflows to 0, where the law is undefined
    cfg = tmp_path / "cfg.json"
    write_config(cfg, n=2, speed={"a": -1.0, "beta": -0.3}, grid={"N": 32},
                 initial={"type": "sphere", "R0": 1e160}, time={"t_end": 1.0})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: initial shape is not admissible")
    assert err.count("\n") == 1


def _gcf(args, env=None):
    """Run the gcf CLI of this checkout in a fresh interpreter, outside the
    test suite's warning filters, with env added to the environment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **(env or {}),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "gcf.cli", *args],
                          env=env, capture_output=True, timeout=120)


@pytest.mark.parametrize("command", ["run", "harnack"])
@pytest.mark.parametrize(
    "overrides,code,message",
    [
        # K = 1/(r1*r2) underflows to 0, outside the law's domain
        ({"n": 2, "speed": {"a": -1.0, "beta": -0.3},
          "initial": {"type": "sphere", "R0": 1e160}}, 2, "config error: "),
        ({"n": 2, "speed": {"a": -1.0, "beta": -0.3},
          "initial": {"type": "sphere", "R0": 1e200}}, 2, "config error: "),
        # f1 = exp(K) overflows, so the first step bound is 0
        ({"speed": {"kind": "exp"}, "initial": {"type": "circle", "R0": 1e-3}}, 3,
         "flow terminated early: dt_underflow"),
        # the circle grows until its radii overflow; the stored states the
        # monitor derives overflow too
        ({"time": {"t_end": 1e300}}, 3, "flow terminated early: nonconvex"),
    ],
    ids=["sphere-1e160", "sphere-1e200", "exp-circle-1e-3", "circle-t_end-1e300"],
)
def test_a_config_that_overflows_prints_one_stderr_line(tmp_path, command, overrides, code,
                                                        message):
    # numpy's overflow warnings are not printed: stderr holds the message only
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **{"grid": {"N": 16}, "time": {"t_end": 1.0}, **overrides})
    done = _gcf([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = done.stderr.decode("utf-8", "replace")
    assert done.returncode == code
    assert err.startswith(message) and err.count("\n") == 1, err


def test_sweep_records_bad_tuples_and_continues(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "tuples": [
            {"n": None, "b": 0.3},
            {"n": 1, "b": 0.3},
            "not a tuple",
            # so small that its step bound underflows before the first step
            {"n": 1, "b": 0.1, "shape": {"type": "circle", "R0": 2e-12}},
            {"n": 1, "b": "x"},
            # so large that K = 1/(r1*r2) underflows to 0, which the law rejects
            {"n": 2, "b": 0.3, "shape": {"type": "sphere", "R0": 1e160}},
            {"n": 2, "b": 0.1},
            {"n": 1.7, "b": 0.3},  # not an integer, so not run as n=1
        ],
        "grid": {"N": 128},
        "time": {"t_end": 1.0},
        "output": {"stride": 2},
    }))
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    header, rows = read_csv(out / "sweep.csv")
    status = [r[header.index("status")] for r in rows]
    assert status == [
        "failed:config", "ok", "failed:config", "failed:dt_underflow", "failed:config",
        "failed:config", "ok", "failed:config",
    ]
    assert all(len(r) == len(header) for r in rows)
    assert "Traceback" not in capsys.readouterr().err


def test_sweep_echoes_a_rejected_b_as_given(tmp_path):
    # only a JSON number within the float range is formatted as one; a
    # missing b stays blank
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "tuples": [{"n": 1, "b": "0.3"}, {"n": 1, "b": True}, {"n": 1, "b": "0,3"},
                   {"n": 1}, {"n": 1, "b": 10**400}, {"n": 1, "b": 0.3}],
        "grid": {"N": 16}, "time": {"t_end": 0.5}, "output": {"stride": 1},
    }))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1
    with open(tmp_path / "s" / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))  # "0,3" is written quoted
    assert [r["b"] for r in rows] == ["0.3", "True", "0,3", "", str(10**400), "%.17g" % 0.3]
    assert [r["status"] for r in rows] == ["failed:config"] * 5 + ["ok"]


SWEEP_BASE = {"grid": {"N": 32}, "time": {"t_end": 0.5}, "output": {"stride": 2}}
SWEEP_TUPLES = [
    {"n": 1 + (i % 3 == 2), "b": 0.1 + 0.1 * (i % 3),
     "shape": {"type": "fourier", "modes": [[2 + i % 3, 0.005 + 0.003 * i]]}}
    for i in range(6)
]


def run_sweep(tmp_path, name, tuples):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps({"tuples": tuples, **SWEEP_BASE}))
    out = tmp_path / name
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_sweep_tuples_match_solo_runs(tmp_path):
    out = run_sweep(tmp_path, "s", SWEEP_TUPLES)
    for i, tup in enumerate(SWEEP_TUPLES):
        cfg = FlowConfig(
            grid=fourier_grid(tup["n"], 1.0, tuple(map(tuple, tup["shape"]["modes"])), 32),
            law=SpeedLaw.power(-1.0, -tup["b"]),
            t_end=0.5, stride=2,
        )
        trace = run(cfg)
        solo = "".join(_harnack_csv(monitor(trace)))
        sub = out / f"tuple_{i:04d}"
        assert (sub / "harnack.csv").read_bytes() == solo.encode()
        meta = json.loads((sub / "meta.json").read_text())
        assert (meta["steps"], meta["dt_min"], meta["dt_max"]) == (
            trace.steps, trace.dt_min, trace.dt_max
        )
        assert meta["rhs_evals"] == trace.rhs_evals == 4 * trace.steps
        # the n=1 and n=2 tuples share one power-law ensemble
        assert meta["ensemble_size"] == len(SWEEP_TUPLES)
        assert meta["wall_time_s"] > 0.0


def test_sweep_tuple_record_independent_of_a_failing_neighbour(tmp_path):
    # beside a tuple whose step bound underflows (at N=128; at N=32 it
    # completes), the other tuple's record is the one it has alone: the
    # failing row ends alone
    base = {"grid": {"N": 128}, "time": {"t_end": 1.0}, "output": {"stride": 2}}
    ok, failing = {"n": 1, "b": 0.8}, {"n": 1, "b": 0.1, "shape": {"type": "circle", "R0": 2e-12}}
    metas = []
    for name, tuples, rc in (("alone", [ok], 0), ("beside", [ok, failing], 1)):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"tuples": tuples, **base}))
        out = tmp_path / name
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == rc
        meta = json.loads((out / "tuple_0000" / "meta.json").read_text())
        metas.append({k: v for k, v in meta.items()
                      if k not in ("wall_time_s", "phase_wall_s", "ensemble_size")})
    _, rows = read_csv(tmp_path / "beside" / "sweep.csv")
    assert [row[4] for row in rows] == ["ok", "failed:dt_underflow"]
    assert metas[0]["termination_reason"] == "completed"
    assert metas[0]["rhs_evals"] == 4 * metas[0]["steps"]
    assert metas[1] == metas[0]


def test_sweep_csv_independent_of_tuple_order(tmp_path):
    order = [4, 2, 0, 5, 1, 3]
    outs = [
        run_sweep(tmp_path, "a", SWEEP_TUPLES),
        run_sweep(tmp_path, "b", [SWEEP_TUPLES[i] for i in order]),
    ]
    (_, rows_a), (_, rows_b) = (read_csv(out / "sweep.csv") for out in outs)
    assert [rows_a[i][1:] for i in order] == [row[1:] for row in rows_b]
    for k, i in enumerate(order):
        csv_a = (outs[0] / f"tuple_{i:04d}" / "harnack.csv").read_bytes()
        assert csv_a == (outs[1] / f"tuple_{k:04d}" / "harnack.csv").read_bytes()


def test_sweep_reruns_a_failed_ensemble_one_tuple_at_a_time(tmp_path, monkeypatch, capsys):
    # the three tuples share an ensemble, whose run fails; rerun alone, only
    # the b = 0.2 tuple fails again
    real_run = cli.run

    def failing_run(configs):
        if len(configs) > 1 or configs[0].law.beta == -0.2:
            raise RuntimeError("run failed")
        return real_run(configs)

    monkeypatch.setattr(cli, "run", failing_run)
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"tuples": [{"n": 1, "b": b} for b in (0.1, 0.2, 0.3)],
                               **SWEEP_BASE}))
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    header, rows = read_csv(out / "sweep.csv")
    assert [r[header.index("status")] for r in rows] == ["ok", "failed:error", "ok"]
    assert "tuple 1 failed: RuntimeError: run failed" in capsys.readouterr().err
    for i in (0, 2):
        meta = json.loads((out / f"tuple_{i:04d}" / "meta.json").read_text())
        assert meta["ensemble_size"] == 1
    assert not (out / "tuple_0001").exists()


# The C locale without UTF-8 mode: its preferred encoding is ASCII.
C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


@pytest.mark.parametrize("ensure_ascii", [False, True], ids=["utf8-bytes", "escaped"])
def test_sweep_outputs_do_not_depend_on_the_locale(tmp_path, ensure_ascii):
    # a config holding non-ASCII text is read, and sweep.csv written, as
    # UTF-8 in the C locale too; the summary line of a tuple whose n is not
    # ASCII is printed escaped
    tuples = [{"n": 1, "b": 0.3}, {"n": 1, "b": 0.3, "shape": {"type": "\u00e9"}},
              {"n": "\u00e9", "b": 0.3}]
    cfg = tmp_path / "s.json"
    cfg.write_bytes(json.dumps({"tuples": tuples, **SWEEP_BASE}, ensure_ascii=ensure_ascii)
                    .encode("utf-8"))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "here")]) == 1
    done = _gcf(["sweep", "--config", str(cfg), "--out", str(tmp_path / "c")], env=C_LOCALE)
    assert "Traceback" not in done.stderr.decode("utf-8", "replace")
    assert done.returncode == 1
    written = (tmp_path / "c" / "sweep.csv").read_bytes()
    assert written == (tmp_path / "here" / "sweep.csv").read_bytes()
    assert "\u00e9".encode("utf-8") in written
    assert b"tuple 2: n=\\xe9 b=0.3 -> failed:config" in done.stdout


def test_atomic_write_of_chunks_keeps_old_file_on_error(tmp_path):
    path = tmp_path / "x.csv"
    _atomic_write(str(path), (f"{i}\n" for i in range(3)))
    assert path.read_bytes() == b"0\n1\n2\n"

    def failing():
        yield "partial\n"
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError):
        _atomic_write(str(path), failing())
    assert path.read_bytes() == b"0\n1\n2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]  # no temporary file left


def trace_csv_row_by_row(trace):
    # trace.csv as it was written row by row from derive_state of each grid,
    # kept as the reference for the per-state templates
    if trace.n == 1:
        chunks = ["t,node_index,angle,h,r,K,H\n"]
    else:
        chunks = ["t,node_index,angle,h,r1,r2,K,H\n"]
    for t, grid in zip(trace.times, trace.grids):
        st = derive_state(grid)
        cols = (st.angles, grid.values, *grid.curvature()[0], st.K, st.H)
        row = "%.17g" % t + ",%d" + ",%.17g" * len(cols) + "\n"
        chunks.append("".join(row % r for r in zip(range(grid.size), *(c.tolist() for c in cols))))
    return "".join(chunks)


def harnack_csv_row_by_row(table):
    # harnack.csv as it was written row by row from each monitored state
    chunks = ["t,node_index,u,dt_u_spatial,dt_u_fd,grad_sq_h,lhs_eq12,P_trace,bound_eq316,margin\n"]
    cols = (table.u, table.dt_u_spatial, table.dt_u_fd, table.grad_sq_h, table.lhs_12,
            table.p_trace)
    for i, (t, bound) in enumerate(zip(table.t.tolist(), table.bound.tolist())):
        row = "%.17g" % t + ",%d" + ",%.17g" * len(cols) + "," + "%.17g" % bound + ",%.17g\n"
        chunks.append("".join(
            row % r for r in zip(range(table.u.shape[1]), *(c[i].tolist() for c in cols),
                                 table.margin[i].tolist())
        ))
    return "".join(chunks)


@pytest.mark.parametrize(
    "n,size,law,t_end",
    [
        (1, 64, SpeedLaw.power(-1.0, -0.5), 0.5),
        (2, 32, SpeedLaw.power(-1.0, -0.25), 0.5),
        (1, 64, SpeedLaw.exponential(), 0.02),
    ],
    ids=["n1-power", "n2-power", "n1-exp"],
)
def test_csv_writers_equal_the_row_by_row_formatter(n, size, law, t_end, monkeypatch):
    trace = run(FlowConfig(grid=fourier_grid(n, 1.0, ((2, 0.02),), size), law=law,
                           t_end=t_end, stride=3))
    table = monitor(trace)
    # blocks of 3 harnack states and 21 // (n + 3) trace states, none of which
    # divides the state count, so each writer ends on a short block; then a
    # block narrower than one state, which holds that state alone
    assert len(table.t) % 3 and len(trace) % (21 // (n + 3))
    for block in (cli._BLOCK_VALUES, 3 * size * 7, 1):
        monkeypatch.setattr(cli, "_BLOCK_VALUES", block)
        chunks = list(cli._trace_csv(trace))
        assert len(chunks) == 1 + len(trace)  # a header, then one chunk per state
        text = "".join(chunks)
        assert text == trace_csv_row_by_row(trace)
        if n == 1:  # the H column repeats K
            rows = [line.split(",") for line in text.splitlines()[1:]]
            assert all(r[5] == r[6] for r in rows)
        chunks = list(_harnack_csv(table))
        assert len(chunks) == 1 + len(table.t)
        text = "".join(chunks)
        assert text == harnack_csv_row_by_row(table)
        # lhs_eq12 and bound_eq316 are NaN outside the -K^(-b) form
        assert ("nan" in text) == (not law.is_power)


def test_meta_records_phase_wall_times(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, initial={"type": "fourier", "R0": 1.0, "modes": [[2, 0.02]]},
                 time={"t_end": 0.5}, output={"stride": 20})
    for command, phases in (("run", {"step", "write"}), ("harnack", {"step", "monitor", "write"})):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert set(meta["phase_wall_s"]) == phases
        assert all(v >= 0.0 for v in meta["phase_wall_s"].values())
        assert meta["phase_wall_s"]["step"] <= meta["wall_time_s"]
    out = run_sweep(tmp_path, "s", SWEEP_TUPLES[:3])
    metas = [json.loads((out / f"tuple_{i:04d}" / "meta.json").read_text()) for i in range(3)]
    for meta in metas:
        assert set(meta["phase_wall_s"]) == {"step", "step_share", "monitor", "write"}
        assert meta["phase_wall_s"]["step"] == meta["wall_time_s"] == metas[0]["wall_time_s"]
    # the tuples split the ensemble's stepping time by row-steps times N
    # (one N in a sweep), and their shares sum to it
    step, steps = metas[0]["wall_time_s"], [meta["steps"] for meta in metas]
    for meta in metas:
        assert meta["phase_wall_s"]["step_share"] == pytest.approx(step * meta["steps"] / sum(steps))
    assert sum(meta["phase_wall_s"]["step_share"] for meta in metas) == pytest.approx(step)


@pytest.mark.parametrize("a,beta,paper_b", [(-1.0, -0.5, 0.5), (-2.0, -0.5, None), (1.0, 0.5, None)])
def test_meta_paper_b_only_for_the_minus_k_power_form(tmp_path, a, beta, paper_b):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, speed={"a": a, "beta": beta}, time={"t_end": 0.1})
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "meta.json").read_text())["law_mapping"]["paper_b"] == paper_b


def run_rejected(tmp_path, capsys, *argv, **overrides):
    """stderr of a `gcf` command that rejects the config; it exits 2 and writes nothing."""
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **overrides)
    out = tmp_path / "o"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("command", ["run", "harnack", "sweep"])
def test_a_config_nested_too_deeply_exits_2(tmp_path, capsys, command):
    # json.load recurses once per nested array
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[" * 100_000)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: the config nests too deeply to parse\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "harnack", "sweep"])
def test_a_config_that_is_not_a_json_object_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: the config must be a JSON object\n"
    assert not out.exists()


def test_run_rejects_a_stride_of_zero(tmp_path, capsys):
    for command in (["run"], ["harnack", "--enforce-hypotheses"]):
        err = run_rejected(tmp_path, capsys, *command, output={"stride": 0})
        assert "stride must be >= 1, got 0" in err


def no_work(*args, **kwargs):
    raise AssertionError("work began before the output directory was made")


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
@pytest.mark.parametrize("command", ["run", "harnack", "sweep", "verify"])
def test_an_out_path_that_cannot_be_a_directory_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, command, under
):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file\n")
    out = blocker / "o" if under else blocker
    cfg = tmp_path / "cfg.json"
    if command == "sweep":
        cfg.write_text(json.dumps({"tuples": [{"n": 1, "b": 0.3}], "grid": {"N": 32}}))
    else:
        write_config(cfg)
    monkeypatch.setattr(cli, "run", no_work)
    monkeypatch.setitem(cli.SUITES, "speedlaw", no_work)
    if command == "verify":
        argv = ["verify", "--suite", "speedlaw"]
    else:
        argv = [command, "--config", str(cfg)]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert blocker.read_text() == "a file\n"


def test_run_rejects_a_non_finite_t_end(tmp_path, capsys):
    # json.dumps writes the infinity as Infinity, which json.load reads back
    assert "finite t_end" in run_rejected(tmp_path, capsys, "run", time={"t_end": math.inf})
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"tuples": [{"n": 1, "b": 0.3}], "time": {"t_end": math.inf}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1
    header, rows = read_csv(tmp_path / "s" / "sweep.csv")
    assert rows[0][header.index("status")] == "failed:config"


@pytest.mark.parametrize(
    "shared,shape",
    [({"grid": [["N", 16]]}, None), ({}, [["type", "fourier"], ["modes", [[2, 0.02]]]])],
    ids=["shared-block", "tuple-shape"],
)
def test_sweep_rejects_a_list_of_pairs_where_an_object_is_required(tmp_path, capsys, shared,
                                                                    shape):
    # gcf run rejects the same blocks; the tuple ends failed:config
    tup = {"n": 1, "b": 0.3} if shape is None else {"n": 1, "b": 0.3, "shape": shape}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"tuples": [tup], "grid": {"N": 16}, "time": {"t_end": 0.5},
                               "output": {"stride": 1}, **shared}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1
    header, rows = read_csv(tmp_path / "s" / "sweep.csv")
    assert rows[0][header.index("status")] == "failed:config"
    assert "must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run"], ["harnack", "--enforce-hypotheses"]],
                         ids=["run", "harnack"])
def test_run_rejects_an_unknown_speed_kind(tmp_path, capsys, command):
    err = run_rejected(tmp_path, capsys, *command, speed={"kind": "weird", "a": -1, "beta": -0.5})
    assert "unknown speed-law kind 'weird'" in err


@pytest.mark.parametrize(
    "overrides,name",
    [
        ({"n": 1.5}, "n"),
        ({"grid": {"N": 32.7}}, "grid.N"),
        ({"output": {"stride": 2.5}}, "output.stride"),
        ({"initial": {"type": "fourier", "modes": [[2.5, 0.02]]}}, "mode wavenumber"),
        ({"n": "1"}, "n"),
        ({"n": True}, "n"),
    ],
    ids=["n", "grid.N", "output.stride", "mode-wavenumber", "n-string", "n-bool"],
)
def test_run_rejects_a_non_integer_in_an_integer_field(tmp_path, capsys, overrides, name):
    for command in (["run"], ["harnack", "--enforce-hypotheses"]):
        err = run_rejected(tmp_path, capsys, *command, **overrides)
        assert f"{name} must be an integer" in err


@pytest.mark.parametrize(
    "overrides,name",
    [
        ({"time": {"t_end": "0.5"}}, "time.t_end"),
        ({"time": {"t_end": 0.5, "t0": False}}, "time.t0"),
        ({"initial": {"type": "circle", "R0": True}}, "initial.R0"),
        ({"speed": {"a": "-1", "beta": -0.5}}, "speed.a"),
        ({"speed": {"a": -1.0, "beta": True}}, "speed.beta"),
        ({"initial": {"type": "fourier", "modes": [[2, "0.01"]]}}, "mode amplitude"),
    ],
    ids=["t_end-string", "t0-bool", "R0-bool", "a-string", "beta-bool", "amplitude-string"],
)
def test_run_rejects_a_non_number_in_a_float_field(tmp_path, capsys, overrides, name):
    for command in (["run"], ["harnack", "--enforce-hypotheses"]):
        err = run_rejected(tmp_path, capsys, *command, **overrides)
        assert f"{name} must be a number" in err


@pytest.mark.parametrize(
    "block,key,name",
    [(None, "n", "n"), ("time", "t_end", "time.t_end"), ("speed", "a", "speed.a"),
     ("speed", "beta", "speed.beta")],
    ids=["n", "time.t_end", "speed.a", "speed.beta"],
)
def test_run_names_a_missing_required_field(tmp_path, capsys, block, key, name):
    cfg = tmp_path / "cfg.json"
    doc = write_config(cfg)
    del (doc[block] if block else doc)[key]
    cfg.write_text(json.dumps(doc))
    for command in (["run"], ["harnack", "--enforce-hypotheses"]):
        assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {name} is required\n"


def test_sweep_rejects_a_tuple_without_a_numeric_b_or_an_n(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"tuples": [{"n": 1}, {"b": 0.3}, {"n": 1, "b": "0.3"}],
                               "grid": {"N": 16}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1
    header, rows = read_csv(tmp_path / "s" / "sweep.csv")
    assert [row[header.index("status")] for row in rows] == ["failed:config"] * 3
    assert capsys.readouterr().err.splitlines() == [
        "tuple 0 rejected: b is required",
        "tuple 1 rejected: n is required",
        "tuple 2 rejected: b must be a number, got '0.3'",
    ]


def test_sweep_defaults_apply_to_each_missing_field(tmp_path):
    # a shared block that leaves a field out keeps that field's default, as
    # a missing block does: t_end 2.0 and stride 50
    tuples = [{"n": 1, "b": 0.5, "shape": {"type": "fourier", "modes": [[3, 0.02]]}}]
    outputs = []
    for blocks in ({}, {"time": {}, "output": {}},
                   {"time": {"t_end": 2.0}, "output": {"stride": 50}}):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"tuples": tuples, "grid": {"N": 64}, **blocks}))
        out = tmp_path / f"s{len(outputs)}"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        meta = json.loads((out / "tuple_0000" / "meta.json").read_text())
        outputs.append([(out / "sweep.csv").read_bytes(),
                        (out / "tuple_0000" / "harnack.csv").read_bytes(), meta["config"]])
    assert outputs[0] == outputs[1] == outputs[2]


def test_integral_floats_read_as_integers(tmp_path):
    texts = []
    for n, size, stride, k in ((1, 64, 30, 2), (1.0, 64.0, 30.0, 2.0)):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, n=n, grid={"N": size}, output={"stride": stride},
                     initial={"type": "fourier", "modes": [[k, 0.02]]}, time={"t_end": 0.5})
        out = tmp_path / f"o{len(texts)}"
        assert main(["harnack", "--config", str(cfg), "--out", str(out)]) == 0
        texts.append([(out / name).read_bytes() for name in ("trace.csv", "harnack.csv")])
    assert texts[0] == texts[1]
