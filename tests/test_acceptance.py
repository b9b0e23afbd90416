"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import json
import time

import numpy as np
import pytest

from gcf.cli import main as cli_main
from gcf.flow import FlowConfig, InitialShape, run
from gcf.harnack import monitor
from gcf.speedlaw import SpeedLaw
from gcf.verify import (
    evolution_suite,
    identity_suite,
    oracle_suite,
    pevol_suite,
    pexpand_suite,
    self_similar_start_time,
    speedlaw_suite,
)

HALF = SpeedLaw.power(-1.0, -0.5)


def report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_round_solution_oracle():
    start = time.monotonic()
    reports = oracle_suite()
    elapsed = time.monotonic() - start
    worst = max(r.finest_residual for r in reports)
    ok = all(r.passed for r in reports) and elapsed <= 30.0
    assert report(
        1, "round-solution oracle",
        ok, f"worst relative error {worst:.2e}, runtime {elapsed:.1f}s (limit 30s)",
    )


@pytest.mark.parametrize("n,b,size", [(1, 0.5, 256), (2, 0.25, 128)])
def test_criterion_2_equality_case(n, b, size):
    R0 = 1e-3
    t_start = self_similar_start_time(R0, n, b)
    cfg = FlowConfig(
        n=n, size=size, law=SpeedLaw.power(-1.0, -b),
        shape=InitialShape("round", R0), t_end=2.0, t0=t_start, stride=400,
    )
    trace = run(cfg)
    assert trace.reason == "completed"
    table = monitor(trace)
    # each state's largest |margin| and |lhs| relative to its own scale
    p_scale = np.max(np.abs(table.p_trace), axis=1)
    u_scale = np.max(np.abs(table.dt_u_spatial), axis=1)
    worst_margin = np.max(np.max(np.abs(table.margin), axis=1) / p_scale)
    worst_lhs = np.max(np.max(np.abs(table.lhs_12), axis=1) / u_scale)
    ok = worst_margin <= 1e-4 and worst_lhs <= 1e-4
    assert report(
        2, f"self-similar equality n={n}",
        ok,
        f"max |margin|/|trP| {worst_margin:.2e}, max |lhs|/|dt_u| {worst_lhs:.2e} "
        f"over {len(table.t)} stored times (tolerance 1e-4)",
    )


def _perturbed_shapes(count: int, rng: np.random.Generator):
    shapes = []
    while len(shapes) < count:
        n_modes = int(rng.integers(1, 3))
        ks = rng.choice([2, 3, 4, 5], size=n_modes, replace=False)
        modes = []
        for k in ks:
            cap = min(0.05, 0.8 / (k * k - 1) / n_modes)
            modes.append((int(k), float(rng.uniform(0.005, cap))))
        shapes.append(InitialShape("fourier", 1.0, tuple(modes)))
    return shapes


def test_criterion_3_harnack_property_on_perturbed_circles():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_margin_rel = np.inf
    worst_lhs_rel = -np.inf
    configs = [
        FlowConfig(n=1, size=256, law=HALF, shape=shape, t_end=2.0, stride=40)
        for shape in _perturbed_shapes(20, rng)
    ]
    for trace in run(configs):
        assert trace.reason == "completed"
        table = monitor(trace)
        p_scale = np.max(np.abs(table.p_trace))
        u_scale = np.max(np.abs(table.dt_u_spatial))
        worst_margin_rel = min(worst_margin_rel, np.min(table.margin) / p_scale)
        worst_lhs_rel = max(worst_lhs_rel, np.max(table.lhs_12) / u_scale)
    elapsed = time.monotonic() - start
    ok = worst_margin_rel >= -1e-3 and worst_lhs_rel <= 1e-3 and elapsed <= 300.0
    assert report(
        3, "Harnack inequality on perturbed circles",
        ok,
        f"min margin/|trP| {worst_margin_rel:.2e} (>= -1e-3), "
        f"max lhs/|dt_u| {worst_lhs_rel:.2e} (<= +1e-3), "
        f"20 shapes in {elapsed:.0f}s (limit 300s)",
    )


def test_criterion_4_evolution_equation_residuals():
    reports = evolution_suite()
    ok = True
    details = []
    for rep in reports:
        ok = ok and 1.7 <= rep.order <= 2.3 and rep.finest_residual <= 1e-5
        details.append(f"{rep.identity}: order {rep.order:.2f}, finest {rep.finest_residual:.1e}")
    assert report(4, "evolution-equation residuals", ok, "; ".join(details))


def test_criterion_5_speed_law_identities():
    # the suite's power laws are a superset of (-1, -0.5), (-1, -0.2), (1, 2)
    # and (2, 0.5); its points are 0.5, 1, 2 and 4
    residuals = {rep.identity: rep.finest_residual for rep in speedlaw_suite()}
    worst_power = residuals["power-structural-vanishing"]
    worst_exp = float(
        np.max([residuals["exp-gamma-identity"], residuals["exp-beta-prime-identity"]])
    )
    ok = worst_power <= 1e-12 and worst_exp <= 1e-8
    assert report(
        5, "speed-law identities",
        ok,
        f"power-law structure functions {worst_power:.2e} (<= 1e-12), "
        f"exponential cross identities {worst_exp:.2e} (<= 1e-8)",
    )


def test_criterion_6_algebraic_expansion():
    reports = {r.identity: r for r in pexpand_suite()}
    sq = reports["p-square-expansion"].finest_residual
    nrm = reports["p-norm-trace-square"].finest_residual
    ok = sq <= 1e-10 and nrm <= 1e-10
    assert report(
        6, "squared-trace expansion",
        ok,
        f"expansion residual {sq:.2e}, curve-case norm identity {nrm:.2e} "
        f"(both <= 1e-10) over 10 random convex states",
    )


def test_criterion_7_trace_evolution_residual():
    rep = {r.identity: r for r in pevol_suite()}["evolve-P"]
    rel = rep.finest_residual / rep.scale
    ok = 1.7 <= rep.order <= 2.3 and rel <= 1e-4
    assert report(
        7, "Harnack-trace evolution residual",
        ok, f"order {rep.order:.2f} (window [1.7, 2.3]), finest relative residual {rel:.2e} (<= 1e-4)",
    )


def test_criterion_8_geometric_identities():
    reports = identity_suite()
    ok = True
    details = []
    for rep in reports:
        if rep.order_window is None:  # degenerate curve case of the divergence identity
            continue
        ok = ok and rep.order is not None and rep.order >= 1.7
        details.append(f"{rep.identity}: order {rep.order:.2f}")
    assert report(8, "pointwise geometric identities", ok, "; ".join(details))


def test_criterion_9_determinism(tmp_path):
    doc = {
        "n": 1,
        "speed": {"a": -1.0, "beta": -0.5},
        "grid": {"N": 128},
        "initial": {"type": "fourier", "R0": 1.0, "modes": [[3, 0.03]]},
        "time": {"t_end": 1.0},
        "output": {"stride": 25},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    digests = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert cli_main(["harnack", "--config", str(cfg), "--out", str(out)]) == 0
        digests.append(
            ((out / "trace.csv").read_bytes(), (out / "harnack.csv").read_bytes())
        )
    ok = digests[0] == digests[1]
    assert report(
        9, "byte-identical repeated runs",
        ok, "trace.csv and harnack.csv identical across repeated invocations",
    )
