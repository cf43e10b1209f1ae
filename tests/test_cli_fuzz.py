"""The command line under drawn input, as a property.

Each example writes a drawn curve and cash flow to a temporary directory
and runs ``cli.main`` in-process on them with a drawn method spec, for one
command in one of its formats. Curves hold 1 to 12 nodes, with values such
as -0.0, 5e-324, -30 and +-1e308; specs cover all seven kinds, tau on and
off the nodes, kappa a hair past tau, tiny and huge alpha, calibrated
alpha, extreme ufr and offsets; flows hold lumps at 0, at the horizon and
of 1e300, negative amounts, and densities 1e-12 wide.

Whatever the input, the call ends in a documented exit code (README): 0,
1 for input, 2 for domain, 3 for a failed verification. An exit of 1 or
2 prints exactly one ``error:`` line and nothing else on stderr; no
exception and no warning of any kind leaves ``main``; an exit-0 output
holds no NaN and no infinity, and a JSON ``null`` only where the README
documents one: a ``sensitivity`` bound that does not exist. Each call
returns within ``CALL_DEADLINE``, hypothesis's deadline, which is read
when the call returns.
"""

import contextlib
import io
import json
import re
import tempfile
import warnings
from datetime import timedelta
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvehedge.cli import main
from curvehedge.methods import ALL_KINDS

#: each command with its formats
CALLS = [
    (command, fmt)
    for command, formats in (
        ("extrapolate", ("table", "json", "csv")),
        ("hedge", ("table", "json", "csv")),
        ("verify", ("table", "json")),
        ("sensitivity", ("table", "json")),
        ("scan-arbitrage", ("table", "json")),
    )
    for fmt in formats
]
#: a number that is not finite, as a token of text output
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
#: the JSON keys whose null the README documents: a bound that does not exist
NULLABLE = {"lower", "upper"}


def _rarely(common, rare, odds=20):
    """``rare`` about once in ``odds`` draws, ``common`` otherwise."""
    return st.sampled_from([False] * (odds - 1) + [True]).flatmap(lambda k: rare if k else common)


RATES = _rarely(st.floats(min_value=-0.01, max_value=0.06), st.sampled_from([-0.0, 5e-324, 1e308, -1e308, -30.0]))
TIMES = _rarely(st.floats(min_value=0.5, max_value=60.0) | st.sampled_from([10.0, 30.0]),
                st.sampled_from([0.0, 5e-324, 1e-12, 1e308]))


@st.composite
def curves(draw):
    """(column, rows) of a curve CSV: times mostly ascending and mostly
    reaching the default horizon."""
    column = draw(st.sampled_from(["zero_yield", "forward"]))
    times = draw(st.lists(TIMES, min_size=1, max_size=11, unique=True))
    if draw(_rarely(st.just(True), st.just(False), 6)):
        times = sorted(times) + ([200.0] if draw(_rarely(st.just(True), st.just(False), 3)) and max(times) < 200.0 else [])
    return column, [(t, draw(RATES)) for t in times]


@st.composite
def methods(draw):
    kind = draw(st.sampled_from(ALL_KINDS))
    tau = draw(st.sampled_from([10.0, 30.0, 5.0]) | st.floats(min_value=0.0, max_value=250.0))
    spec = {"kind": kind, "tau": tau}
    if kind not in ("M2", "M4"):
        spec["ufr"] = draw(st.sampled_from([0.042, -4.0, 0.04, 1e3, -0.0066]) | st.floats(-1.0, 1.0))
    if kind == "M5_SFSA" or (kind.startswith("M6") and draw(st.booleans())):
        spec["kappa"] = tau + draw(st.sampled_from([1e-9, 10.0, 100.0]))
    if kind.startswith("M6"):
        if "kappa" in spec:
            spec["epsilon"] = draw(st.sampled_from([1e-4, 1e-12, 1.0]))
        else:
            spec["alpha"] = draw(st.sampled_from([1e-12, 0.1, 0.01, 1e3]))
    if draw(_rarely(st.just(False), st.just(True), 5)):
        spec["offset"] = draw(st.sampled_from([0.001, -0.05, 1e308]))
    return spec


#: mostly past the drawn tau, rarely at 0, past the horizon or anywhere
LUMPS = st.tuples(
    _rarely(st.floats(min_value=35.0, max_value=190.0) | st.sampled_from([40.0, 200.0]),
            st.sampled_from([0.0, 250.0]) | st.floats(min_value=0.0, max_value=250.0), 5),
    _rarely(st.sampled_from([1.0, 0.5]), st.sampled_from([1e300, -1.0]), 5),
)
DENSITIES = st.tuples(
    _rarely(st.floats(min_value=35.0, max_value=140.0), st.floats(min_value=0.0, max_value=199.0), 5),
    st.sampled_from([1e-12, 1.0, 10.0, 50.0]),
    _rarely(st.sampled_from([0.05, 0.2]), st.sampled_from([-0.1, 1e300]), 5),
).map(lambda d: (d[0], d[0] + d[1], d[2]))


@st.composite
def flows(draw):
    """Rows of a cash-flow CSV."""
    lumps = draw(st.lists(LUMPS, min_size=1, max_size=3))
    densities = draw(st.lists(DENSITIES, max_size=2))
    return [("lump", t, a) for t, a in lumps] + [("density", a, b, r) for a, b, r in densities]


def _write(directory, curve, flow):
    column, rows = curve
    curve_path = Path(directory) / "curve.csv"
    curve_path.write_text(f"t,{column}\n" + "".join(f"{t!r},{v!r}\n" for t, v in rows))
    flow_path = Path(directory) / "flow.csv"
    flow_path.write_text("".join(",".join(map(str, row)) + "\n" for row in flow))
    return str(curve_path), str(flow_path)


def _argv(call, method, curve_path, flow_path):
    command, fmt = call
    argv = [command, "--curve", curve_path, "--method", json.dumps(method), "--format", fmt]
    if command in ("hedge", "verify", "sensitivity"):
        argv += ["--liabilities", flow_path, "--shifts", "2", "--seed", "7"]
    return argv


def _nulls(value, key=None):
    """The keys of the nulls in a JSON value."""
    if isinstance(value, dict):
        return [k for name, item in value.items() for k in _nulls(item, name)]
    if isinstance(value, list):
        return [k for item in value for k in _nulls(item, key)]
    return [key] if value is None else []


#: the zero curve whose integrated forward passes -709 before tau, so its
#: discount factor overflows on the market side
NEGATIVE_CURVE = ("zero_yield", [(5.0, -30.0), (10.0, -30.0), (30.0, -30.0)])
#: an upward curve on which a ufr of -4 overflows the factor past tau
UPWARD_CURVE = ("zero_yield", [(5.0, 0.02), (10.0, 0.025), (30.0, 0.03)])
SAMPLE_FLOW = [("lump", 15.0, 1.0), ("lump", 40.0, 0.6), ("density", 20.0, 30.0, 0.05)]
#: M5 with kappa a hair past tau holds a plan rate of 1e300 / 1e-9, which
#: overflows: its integrals never converge, and must not bisect without end
HAIR_BLEND = {"kind": "M5_SFSA", "tau": 10.0, "ufr": 0.042, "kappa": 10.000000001}
#: the bound on one call: far above the slowest example (HAIR_BLEND's, about
#: 0.3 s on 2 vCPUs), so a runaway integral fails the property, not stalls it
CALL_DEADLINE = timedelta(seconds=5)


@settings(max_examples=100, deadline=CALL_DEADLINE)
@given(call=st.sampled_from(CALLS), curve=curves(), method=methods(), flow=flows())
@example(call=("scan-arbitrage", "json"), curve=NEGATIVE_CURVE, method={"kind": "M4", "tau": 30.0}, flow=SAMPLE_FLOW)
@example(
    call=("extrapolate", "table"), curve=NEGATIVE_CURVE, method={"kind": "M3", "tau": 30.0, "ufr": 0.04}, flow=SAMPLE_FLOW
)
@example(
    call=("scan-arbitrage", "table"), curve=UPWARD_CURVE, method={"kind": "M3", "tau": 10.0, "ufr": -4.0}, flow=SAMPLE_FLOW
)
@example(
    call=("extrapolate", "json"), curve=UPWARD_CURVE, method={"kind": "M1", "tau": 10.0, "ufr": -4.0}, flow=SAMPLE_FLOW
)
@example(call=("hedge", "json"), curve=UPWARD_CURVE, method=HAIR_BLEND, flow=[("lump", 25.0, 1e300)])
def test_every_command_ends_in_a_documented_exit(call, curve, method, flow):
    with tempfile.TemporaryDirectory() as directory:
        argv = _argv(call, method, *_write(directory, curve, flow))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), argv
    if code in (1, 2):
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
    if code == 0:
        assert err == "", argv
        assert not NON_FINITE.search(out), (argv, out)
        if call[1] == "json":
            assert set(_nulls(json.loads(out))) <= NULLABLE, (argv, out)
