"""Kernel pass: per-call time of gcf's hot functions at three grid sizes,
with the bytes each call takes in and returns.

Bytes are read off the objects of the timed call, not typed in: the
nbytes of every distinct array among its arguments and its result (and
their dataclass fields, such as a grid's values or a geometry state's
columns), plus 8 for each float.  They follow the program: an output
column that a change drops, or a dtype it narrows, shows in them.
"""

from __future__ import annotations

import dataclasses
from statistics import median
from time import perf_counter

import numpy as np

# (label, n, N) of each case; the shapes and laws match the harnack workloads.
CASES = (("n1-256", 1, 256), ("n1-1024", 1, 1024), ("n2-128", 2, 128))
MODES = {1: ((3, 0.02), (2, 0.01)), 2: ((2, 0.03), (3, 0.01))}
BETA = {1: -0.5, 2: -0.25}


def call_bytes(*objs):
    """Bytes of the distinct arrays and floats in objs and their fields."""
    seen, total, todo = set(), 0, list(objs)
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            total += obj.nbytes
        elif isinstance(obj, (float, np.floating)):
            total += 8
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            todo.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
    return total


def _per_call_us(fn, batch_s=0.01, batches=5):
    fn()
    reps = 1
    while True:
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        if perf_counter() - t0 >= batch_s / 4:
            break
        reps *= 4
    times = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        times.append((perf_counter() - t0) / reps)
    return median(times) * 1e6


def kernel_pass():
    """Metrics kernel.<fn>.<case>.{us,bytes}, with gcf untraced."""
    from gcf import flow, geometry, stencils
    from gcf.flow import InitialShape
    from gcf.speedlaw import SpeedLaw

    out = {}
    for label, n, size in CASES:
        grid = InitialShape("fourier", 1.0, MODES[n]).build(n, size)
        law = SpeedLaw.power(-1.0, BETA[n])
        h, dx = grid.values, grid.spacing
        K = geometry.derive_state(grid).K
        dt = flow.stable_dt(grid, law)
        if n == 1:
            d2 = ("d2_periodic", stencils.d2_periodic, (h, dx))
        else:
            d2 = ("d2_reflect", stencils.d2_reflect, (h, dx, "even"))
        calls = (
            d2,
            ("f", law.f, (K,)),
            ("step", flow.step, (grid, law, dt)),
            ("stable_dt", flow.stable_dt, (grid, law)),
            ("derive_state", geometry.derive_state, (grid,)),
        )
        for fn_name, fn, args in calls:
            base = f"kernel.{fn_name}.{label}"
            out[f"{base}.us"] = _per_call_us(lambda: fn(*args))
            out[f"{base}.bytes"] = call_bytes(args, fn(*args))
    return out
