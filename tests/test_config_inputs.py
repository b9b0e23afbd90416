"""Any JSON value in any field of a config: a config error, or the config it says.

A small valid `gcf run` document has one field replaced by an arbitrary
JSON value.  Either reading it raises one of cli.CONFIG_ERRORS, and
`gcf run` on it exits 2 with one line on stderr; or it reads as a flow
config that keeps the document's integers and law kind, read each float
field from a JSON number, and has finite times.  Under `gcf harnack --enforce-hypotheses` the same documents exit
2 or 4 with one line on stderr (4 only with n = 1 or 2), or read as a
config whose law meets the Harnack-bound hypotheses.  `run` is replaced
by a stub that fails the test, so no accepted document steps a flow; the
integers drawn keep every accepted grid at 256 nodes or fewer.

A bad sweep tuple stops no other tuple: in a two-tuple sweep whose second
tuple has one field replaced by an arbitrary JSON value, the first tuple
ends `ok` with the margins it has in a sweep of its own.
"""

import contextlib
import copy
import csv
import functools
import io
import json
import math
import os
import tempfile
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcf import cli
from gcf.speedlaw import theorem_hypotheses

DOC = {
    "n": 1,
    "speed": {"a": -1.0, "beta": -0.5},
    "grid": {"N": 32},
    "initial": {"type": "fourier", "R0": 1.0, "modes": [[2, 0.02]]},
    "time": {"t_end": 0.5, "t0": 0.0},
    "output": {"stride": 5},
}
# The fields that may be replaced, as paths of keys and list indices;
# speed.kind is absent from DOC and is added.
PATHS = [
    ("n",), ("speed",), ("speed", "kind"), ("speed", "a"), ("speed", "beta"),
    ("grid",), ("grid", "N"), ("initial",), ("initial", "type"), ("initial", "R0"),
    ("initial", "modes"), ("initial", "modes", 0), ("initial", "modes", 0, 0),
    ("initial", "modes", 0, 1), ("time",), ("time", "t_end"), ("time", "t0"),
    ("output",), ("output", "stride"),
]
# No integer from 257 up to 2**63 is drawn, as an int or an integral float,
# so that an accepted grid size never allocates a large grid; 10**400 is
# too large for a float and for an array size.
INTEGERS = st.one_of(st.integers(-3, 256), st.sampled_from([10**400, -(10**400)]))
FLOATS = st.one_of(
    st.floats(-300.0, 300.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 1.5, 32.7, 2.0, 5e-324]),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), INTEGERS, FLOATS, st.text(max_size=5),
    st.sampled_from(["power", "exp", "circle", "sphere", "round", "fourier"]),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)


def is_number(value):
    """Whether value is a JSON number: an int or float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def replaced(path, value, doc=DOC):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def gcf_command(doc, *command):
    """Exit code and stderr of `gcf COMMAND` on doc, with run stubbed out."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        stub = mock.patch.object(cli, "run", side_effect=AssertionError("a rejected config ran"))
        with stub, contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*command, "--config", path, "--out", os.path.join(tmp, "out")])
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PATHS), JSON)
@example(("time", "t_end"), math.inf)
@example(("n",), 1.5)
@example(("grid", "N"), 32.7)
@example(("output", "stride"), 2.5)
@example(("initial", "modes", 0, 0), 2.5)
@example(("speed", "kind"), "weird")
@example(("grid", "N"), 64.0)
@example(("time", "t_end"), "0.5")
@example(("initial", "R0"), True)
def test_a_config_field_of_any_json_value(path, value):
    doc = replaced(path, value)
    try:
        cfg = cli._flow_config_from_doc(doc)
    except cli.CONFIG_ERRORS:
        code, err = gcf_command(doc, "run")
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        return
    assert type(cfg.n) is int and cfg.n == doc["n"]
    assert type(cfg.size) is int and cfg.size == doc["grid"].get("N", 256) <= 256
    assert type(cfg.stride) is int and cfg.stride == doc["output"].get("stride", 1)
    assert cfg.law.kind == doc["speed"].get("kind", "power")
    assert math.isfinite(cfg.t0) and math.isfinite(cfg.t_end)
    # every float field read was a JSON number
    floats = [doc["time"]["t_end"], doc["time"].get("t0", 0.0), doc["initial"].get("R0", 1.0)]
    if cfg.law.is_power:
        floats += [doc["speed"]["a"], doc["speed"]["beta"]]
    if cfg.shape.kind == "fourier":
        assert [k for k, _ in cfg.shape.modes] == [k for k, _ in doc["initial"].get("modes", [])]
        assert all(type(k) is int for k, _ in cfg.shape.modes)
        floats += [a for _, a in doc["initial"].get("modes", [])]
    assert all(map(is_number, floats)), floats


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PATHS), JSON)
@example(("n",), 0)
@example(("n",), -1)
@example(("n",), 3)
@example(("speed", "kind"), "exp")
@example(("speed", "beta"), -1.2)
def test_enforced_hypotheses_on_a_config_field_of_any_json_value(path, value):
    doc = replaced(path, value)
    try:
        cfg = cli._flow_config_from_doc(doc)
    except cli.CONFIG_ERRORS:
        cfg = None
    if cfg is not None and theorem_hypotheses(cfg.law, cfg.n):
        return
    code, err = gcf_command(doc, "harnack", "--enforce-hypotheses")
    assert err.count("\n") == 1, err
    if code == cli.EXIT_HYPOTHESES:
        assert doc["n"] in (1, 2) and err.startswith("law outside the Harnack-bound hypotheses")
    else:
        assert cfg is None and code == cli.EXIT_CONFIG and err.startswith("config error: ")


SWEEP = {"grid": {"N": 16}, "time": {"t_end": 0.5}, "output": {"stride": 1}}
TUPLES = [
    {"n": 1, "b": 0.4, "shape": {"type": "fourier", "R0": 1.0, "modes": [[3, 0.02]]}},
    {"n": 2, "b": 0.3, "shape": {"type": "fourier", "R0": 1.0, "modes": [[2, 0.02]]}},
]
# The fields of the second tuple that may be replaced; () is the whole tuple.
TUPLE_PATHS = [
    (), ("n",), ("b",), ("shape",), ("shape", "type"), ("shape", "R0"), ("shape", "modes"),
    ("shape", "modes", 0), ("shape", "modes", 0, 0), ("shape", "modes", 0, 1),
]


def gcf_sweep(tuples):
    """Exit code, stderr and sweep.csv rows of `gcf sweep` over tuples."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "sweep.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            json.dump({"tuples": tuples, **SWEEP}, fh)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", "--config", path, "--out", out])
        with open(os.path.join(out, "sweep.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
    return code, err.getvalue(), rows


@functools.lru_cache(maxsize=None)
def first_tuple_alone():
    code, _, rows = gcf_sweep(TUPLES[:1])
    assert code == cli.EXIT_OK
    return rows[0]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TUPLE_PATHS), JSON)
@example((), "not a tuple")
@example(("n",), 1.5)
@example(("b",), math.nan)
@example(("shape", "R0"), 1e300)
@example(("shape", "modes", 0, 1), 0.4)
@example(("shape", "type"), {"a": 1, "b": "x,y"})
@example(("n",), [1, 2])
@example(("b",), 10**400)
def test_a_bad_sweep_tuple_stops_no_other(path, value):
    tuples = [TUPLES[0], replaced(path, value, TUPLES[1]) if path else value]
    code, err, rows = gcf_sweep(tuples)
    assert code in (cli.EXIT_OK, cli.EXIT_VERIFY_FAIL)
    assert "Traceback" not in err
    assert len(rows) == 2
    assert None not in rows[1]  # the bad tuple's row has the header's columns
    assert rows[1]["status"] == "ok" or rows[1]["status"].startswith("failed:")
    assert rows[0] == first_tuple_alone()
    assert rows[0]["status"] == "ok"
