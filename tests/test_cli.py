import json

import numpy as np
import pytest

from gcf import cli
from gcf.cli import _atomic_write, _harnack_csv, main
from gcf.flow import FlowConfig, InitialShape, run
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
    assert (out / "trace.csv").exists()


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
        "failed:config", "ok",
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
        solo = "".join(_harnack_csv(monitor(run(cfg), cfg.law, t0=0.0)))
        sub = out / f"tuple_{i:04d}"
        assert (sub / "harnack.csv").read_bytes() == solo.encode()
        meta = json.loads((sub / "meta.json").read_text())
        # tuples 2 and 5 have n=2; the other four share the n=1 ensemble
        assert meta["ensemble_size"] == (2 if tup["n"] == 2 else 4)
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
