import json
import math

import numpy as np
import pytest

from gcf import cli
from gcf.cli import _atomic_write, _harnack_csv, main
from gcf.flow import FlowConfig, InitialShape, run
from gcf.geometry import derive_state
from gcf.harnack import monitor
from gcf.speedlaw import SpeedLaw


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
        n=1, size=64, law=SpeedLaw.power(-1.0, -0.5), shape=InitialShape("round", 1.0),
        t_end=2.0, stride=100,
    ))
    assert (meta["steps"], meta["dt_min"], meta["dt_max"]) == (
        trace.steps, trace.dt_min, trace.dt_max
    )
    assert 0.0 < meta["dt_min"] <= meta["dt_max"]
    assert meta["rhs_evals"] == trace.rhs_evals == 4 * trace.steps


def test_run_rejects_exponent_out_of_range(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, n=2, speed={"a": -1.0, "beta": -0.9}, grid={"N": 32})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "b < 1/n" in capsys.readouterr().err


def test_run_rejects_nonconvex_initial(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, initial={"type": "fourier", "R0": 1.0, "modes": [[4, 0.2]]})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


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


def test_verify_unknown_suite():
    assert main(["verify", "--suite", "nonsense"]) == 2


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


@pytest.mark.parametrize(
    "beta,modes,safety,reason",
    [
        (1.1700967619904363, [[5, 0.017207980635981685]], 1.0, "nonconvex"),
        (1.7070944094947509, [[3, 0.03747968438365297]], 0.6, "origin_outside"),
    ],
)
def test_run_early_end_exits_3(tmp_path, capsys, beta, modes, safety, reason):
    cfg = tmp_path / "cfg.json"
    write_config(
        cfg,
        speed={"a": 1.0, "beta": beta},
        initial={"type": "fourier", "modes": modes},
        grid={"N": 32},
        time={"t_end": 3.0, "safety": safety},
    )
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"flow terminated early: {reason}\n"
    meta = json.loads((out / "meta.json").read_text())
    assert meta["termination_reason"] == reason
    assert meta["steps"] > 0 and 0.0 < meta["dt_min"] <= meta["dt_max"]
    assert meta["rhs_evals"] == 4 * meta["steps"] + 4  # the failed step was evaluated too
    assert (out / "trace.csv").exists()


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
    # the nonconvex flow of test_run_early_end_exits_3, storing only its two ends
    cfg = tmp_path / "cfg.json"
    write_config(
        cfg,
        speed={"a": 1.0, "beta": 1.1700967619904363},
        initial={"type": "fourier", "modes": [[5, 0.017207980635981685]]},
        grid={"N": 32},
        time={"t_end": 3.0, "safety": 1.0},
        output={"stride": 1000000},
    )
    out = tmp_path / "o"
    assert main(["harnack", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "flow terminated early: nonconvex\n"
    assert (out / "trace.csv").exists()
    assert not (out / "harnack.csv").exists()
    assert json.loads((out / "meta.json").read_text())["termination_reason"] == "nonconvex"


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_sweep_records_bad_tuples_and_continues(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "tuples": [
            {"n": None, "b": 0.3},
            {"n": 1, "b": 0.3},
            "not a tuple",
            {"n": 1, "b": 0.45, "shape": {"type": "fourier", "modes": [[3, 0.03]]}},
            {"n": 1, "b": "x"},
            # so large that K = 1/(r1*r2) underflows to 0, which the law rejects
            {"n": 2, "b": 0.3, "shape": {"type": "sphere", "R0": 1e160}},
            {"n": 2, "b": 0.1},
            {"n": 1.7, "b": 0.3},  # not an integer, so not run as n=1
        ],
        "grid": {"N": 32},
        "time": {"t_end": 1.0, "safety": 1.0},
        "output": {"stride": 2},
    }))
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    header, rows = read_csv(out / "sweep.csv")
    status = [r[header.index("status")] for r in rows]
    assert status == [
        "failed:config", "ok", "failed:config", "failed:nonconvex", "failed:config",
        "failed:config", "ok", "failed:config",
    ]
    assert all(len(r) == len(header) for r in rows)
    assert "Traceback" not in capsys.readouterr().err


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
            n=tup["n"], size=32, law=SpeedLaw.power(-1.0, -tup["b"]),
            shape=InitialShape("fourier", 1.0, tuple(map(tuple, tup["shape"]["modes"]))),
            t_end=0.5, stride=2,
        )
        trace = run(cfg)
        solo = "".join(_harnack_csv(monitor(trace, cfg.law, t0=0.0)))
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
        cols = (st.angles, st.h, *st.radii, st.K, st.H)
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
    "n,size,law,t_end,t0",
    [
        (1, 64, SpeedLaw.power(-1.0, -0.5), 0.5, 0.0),
        (2, 32, SpeedLaw.power(-1.0, -0.25), 0.5, 0.1),
        (1, 64, SpeedLaw.exponential(), 0.02, 0.0),
    ],
    ids=["n1-power", "n2-power", "n1-exp"],
)
def test_csv_writers_equal_the_row_by_row_formatter(n, size, law, t_end, t0):
    trace = run(FlowConfig(n=n, size=size, law=law,
                           shape=InitialShape("fourier", 1.0, ((2, 0.02),)),
                           t_end=t_end, stride=3))
    text = "".join(cli._trace_csv(trace))
    assert text == trace_csv_row_by_row(trace)
    if n == 1:  # the H column repeats K
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert all(r[5] == r[6] for r in rows)
    table = monitor(trace, law, t0)
    text = "".join(_harnack_csv(table))
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
    out = run_sweep(tmp_path, "s", SWEEP_TUPLES[:2])
    for i in range(2):
        meta = json.loads((out / f"tuple_{i:04d}" / "meta.json").read_text())
        assert set(meta["phase_wall_s"]) == {"step", "monitor", "write"}
        assert meta["phase_wall_s"]["step"] == meta["wall_time_s"]


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


def test_run_rejects_a_non_finite_t_end(tmp_path, capsys):
    # json.dumps writes the infinity as Infinity, which json.load reads back
    assert "finite t_end" in run_rejected(tmp_path, capsys, "run", time={"t_end": math.inf})
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"tuples": [{"n": 1, "b": 0.3}], "time": {"t_end": math.inf}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1
    header, rows = read_csv(tmp_path / "s" / "sweep.csv")
    assert rows[0][header.index("status")] == "failed:config"


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
