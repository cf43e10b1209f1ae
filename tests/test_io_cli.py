import json
import math
import pathlib
import sys
import threading

import numpy as np
import pytest

from curvehedge import cli
from curvehedge.cli import main
from curvehedge.curves import MAX_SAMPLES
from curvehedge.errors import InputFormatError
from curvehedge.io import method_from_arg, read_cash_flow, read_curve

SAMPLE_DATA = pathlib.Path(__file__).resolve().parents[1] / "sample_data"


@pytest.fixture
def flat_curve_csv(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("t,zero_yield\n1,0.03\n10,0.03\n200,0.03\n")
    return str(path)


@pytest.fixture
def lump_liability_csv(tmp_path):
    path = tmp_path / "liab.csv"
    path.write_text("lump,20,1.0\n")
    return str(path)


class TestReaders:
    def test_curve_csv_zero_yield(self, flat_curve_csv):
        curve = read_curve(flat_curve_csv)
        assert curve.zero_yield(10.0) == pytest.approx(0.03, abs=1e-14)

    def test_curve_csv_forward(self, tmp_path):
        path = tmp_path / "fwd.csv"
        path.write_text("t,forward\n0,0.01\n10,0.03\n")
        curve = read_curve(str(path))
        assert curve.forward_rate(5.0) == pytest.approx(0.02, abs=1e-15)

    def test_curve_json_rows_and_columns(self, tmp_path):
        rows = tmp_path / "rows.json"
        rows.write_text(json.dumps([{"t": 10, "zero_yield": 0.02}, {"t": 20, "zero_yield": 0.025}]))
        cols = tmp_path / "cols.json"
        cols.write_text(json.dumps({"t": [10, 20], "zero_yield": [0.02, 0.025]}))
        a = read_curve(str(rows))
        b = read_curve(str(cols))
        for t in (5.0, 10.0, 20.0):
            assert a.zero_yield(t) == b.zero_yield(t)

    def test_curve_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,rate\n1,0.03\n")
        with pytest.raises(InputFormatError, match="header"):
            read_curve(str(path))

    def test_curve_bad_value_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,zero_yield\n1,0.03\n2,oops\n")
        with pytest.raises(InputFormatError, match=":3"):
            read_curve(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputFormatError, match="no such file"):
            read_curve(str(tmp_path / "nope.csv"))

    @pytest.mark.parametrize("reader", [read_curve, read_cash_flow, lambda p: method_from_arg(f"@{p}")])
    def test_unreadable_input_is_a_format_error(self, tmp_path, reader):
        with pytest.raises(InputFormatError, match="Is a directory"):
            reader(str(tmp_path))
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"lump,10,1.0\n# \xe4\n")
        with pytest.raises(InputFormatError, match="not UTF-8"):
            reader(str(path))

    def test_cash_flow_csv(self, tmp_path):
        path = tmp_path / "flow.csv"
        path.write_text("lump,10,1.0\ndensity,12,14,0.5\n")
        flow = read_cash_flow(str(path))
        assert flow.lumps == ((10.0, 1.0),)
        assert flow.densities == ((12.0, 14.0, 0.5),)

    def test_cash_flow_unknown_kind(self, tmp_path):
        path = tmp_path / "flow.csv"
        path.write_text("lump,10,1.0\nswap,1,2\n")
        with pytest.raises(InputFormatError, match=":2"):
            read_cash_flow(str(path))

    def test_cash_flow_json(self, tmp_path):
        path = tmp_path / "flow.json"
        path.write_text(json.dumps([{"t": 10, "amount": 1.0}, {"a": 12, "b": 14, "rate": 0.5}]))
        flow = read_cash_flow(str(path))
        assert flow.lumps == ((10.0, 1.0),)
        assert flow.densities == ((12.0, 14.0, 0.5),)

    @pytest.mark.parametrize(
        "reader, payload",
        [
            (read_curve, {"t": [10, "20"], "zero_yield": [0.02, 0.025]}),
            (read_curve, [{"t": 10, "zero_yield": None}]),
            (read_cash_flow, [{"t": "10", "amount": 1.0}]),
            (read_cash_flow, [{"a": 12, "b": 14, "rate": True}]),
        ],
    )
    def test_json_non_numbers_rejected(self, tmp_path, reader, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InputFormatError, match="numbers"):
            reader(str(path))

    def test_method_inline_and_file(self, tmp_path):
        spec = method_from_arg('{"kind":"M5_SFSA","tau":10,"kappa":20,"ufr":0.042,"offset":0.0}')
        assert spec.kind == "M5_SFSA" and spec.kappa == 20
        path = tmp_path / "m.json"
        path.write_text('{"kind":"M3","tau":10,"ufr":0.042}')
        assert method_from_arg(f"@{path}").kind == "M3"
        with pytest.raises(InputFormatError):
            method_from_arg("{not json")


def run_cli(*argv):
    return main(list(argv))


class TestCliExtrapolate:
    def test_table_contains_expected_yield(self, flat_curve_csv, capsys):
        code = run_cli(
            "extrapolate",
            "--curve", flat_curve_csv,
            "--method", '{"kind":"M3","tau":10,"ufr":0.042}',
            "--step", "10",
        )
        out = capsys.readouterr().out
        assert code == 0
        row = [line for line in out.splitlines() if line.startswith("20 ")]
        assert row and "0.036" in row[0]
        assert "no defects" in out

    def test_defective_discrete_fit_exits_2(self, tmp_path, capsys):
        curve = tmp_path / "bond.csv"
        curve.write_text("t,zero_yield\n10,0.0\n")
        code = run_cli(
            "extrapolate",
            "--curve", str(curve),
            "--method", '{"kind":"M6_SW_discrete","tau":10,"ufr":0.042,"alpha":0.1}',
            "--scan-step", "0.01",
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "negative_forward" in captured.out

    @pytest.mark.parametrize("command, step", [("extrapolate", "--step=50"), ("scan-arbitrage", "--step=0.25")])
    @pytest.mark.parametrize("ufr, alpha", [(0.042, 1000), (0.042, 2000), (-1000, 0.1)])
    def test_overflowing_discrete_fit_exits_2(self, capfd, command, step, ufr, alpha):
        """The fit's Gram matrix overflows: one error line and exit 2, with
        nothing from LAPACK or numpy on fd 2."""
        method = json.dumps({"kind": "M6_SW_discrete", "tau": 10, "ufr": ufr, "alpha": alpha})
        code = run_cli(command, "--curve", str(SAMPLE_DATA / "curve.csv"), "--method", method, step)
        captured = capfd.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and "overflows" in captured.err
        assert captured.err.count("\n") == 1

    def test_missing_file_exits_1(self, capsys):
        code = run_cli(
            "extrapolate",
            "--curve", "/no/such/file.csv",
            "--method", '{"kind":"M3","tau":10,"ufr":0.042}',
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "/no/such/file.csv" in captured.err

    def test_bad_method_exits_2(self, flat_curve_csv, capsys):
        code = run_cli(
            "extrapolate",
            "--curve", flat_curve_csv,
            "--method", '{"kind":"M3","tau":10}',
        )
        assert code == 2

    def test_string_method_field_exits_2(self, flat_curve_csv, capsys):
        code = run_cli(
            "extrapolate",
            "--curve", flat_curve_csv,
            "--method", '{"kind":"M3","tau":"10","ufr":0.042}',
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.count("\n") == 1 and "tau" in captured.err

    def test_curve_json_of_numbers_exits_1(self, tmp_path, capsys):
        path = tmp_path / "curve.json"
        path.write_text("[1, 2]")
        code = run_cli(
            "extrapolate",
            "--curve", str(path),
            "--method", '{"kind":"M3","tau":10,"ufr":0.042}',
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("\n") == 1 and "objects" in captured.err

    @pytest.mark.parametrize(
        "command, option, step",
        [
            ("extrapolate", "--step", "0"),
            ("extrapolate", "--step", "-1"),
            ("extrapolate", "--step", "1e-9"),
            ("extrapolate", "--scan-step", "0"),
            ("extrapolate", "--scan-step", "nan"),
            ("scan-arbitrage", "--step", "0"),
            ("scan-arbitrage", "--step", "1e-9"),
        ],
    )
    def test_bad_sample_step_exits_2(self, flat_curve_csv, monkeypatch, capsys, command, option, step):
        # the step is checked before the curve is even loaded, so no grid is built
        def unreachable(*args, **kwargs):
            raise AssertionError("loaded inputs despite a bad step")

        monkeypatch.setattr(cli, "_load", unreachable)
        code = run_cli(
            command,
            "--curve", flat_curve_csv,
            "--method", '{"kind":"M3","tau":10,"ufr":0.042}',
            option, step,
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and option in captured.err


    @pytest.mark.parametrize(
        "command, option, horizon, step",
        [
            ("scan-arbitrage", "--step", "200", "5.128205128205129"),
            ("extrapolate", "--scan-step", "200", "5.128205128205129"),
            ("scan-arbitrage", "--step", "7.3", "0.004171428571428572"),
            ("extrapolate", "--scan-step", "7.3", "0.004171428571428572"),
        ],
    )
    def test_scan_step_rounding_past_horizon(self, flat_curve_csv, capsys, command, option, horizon, step):
        # the last multiple of the step exceeds the horizon by rounding
        code = run_cli(
            command,
            "--curve", flat_curve_csv,
            "--method", '{"kind":"M3","tau":5,"ufr":0.042}',
            "--horizon", horizon,
            option, step,
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert captured.out.endswith("no defects found\n")

    @pytest.mark.parametrize(
        "horizon, step, count",
        [("200", "5.128205128205129", 40), ("7.3", "0.004171428571428572", 1751)],
    )
    def test_sample_step_rounding_past_horizon(self, flat_curve_csv, capsys, horizon, step, count):
        # the last multiple of the step exceeds the horizon by rounding; the
        # samples still end at the horizon, as the defect scan's grid does
        code = run_cli(
            "extrapolate",
            "--curve", flat_curve_csv,
            "--method", '{"kind":"M3","tau":5,"ufr":0.042}',
            "--horizon", horizon,
            "--step", step,
            "--format", "csv",
        )
        captured = capsys.readouterr()
        assert code == 0
        ts = [float(line.split(",")[0]) for line in captured.out.splitlines()[1:]]
        assert len(ts) == count
        assert ts[-1] == float(horizon)
        assert ts[-2] == pytest.approx((count - 2) * float(step), rel=1e-9)


class TestCliIoErrors:
    """I/O failures end in exit 1 and one line on stderr, not a traceback."""

    @staticmethod
    def _assert_one_line_exit_1(code, captured, needle):
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert needle in captured.err

    def test_out_is_a_directory(self, flat_curve_csv, tmp_path, capsys):
        code = run_cli(
            "extrapolate",
            "--curve", flat_curve_csv,
            "--method", '{"kind":"M3","tau":10,"ufr":0.042}',
            "--out", str(tmp_path),
        )
        self._assert_one_line_exit_1(code, capsys.readouterr(), "Is a directory")

    @pytest.mark.parametrize("option", ["--curve", "--liabilities", "--method"])
    def test_input_is_a_directory(self, flat_curve_csv, lump_liability_csv, tmp_path, capsys, option):
        args = {
            "--curve": flat_curve_csv,
            "--liabilities": lump_liability_csv,
            "--method": '{"kind":"M3","tau":10,"ufr":0.042}',
        }
        args[option] = f"@{tmp_path}" if option == "--method" else str(tmp_path)
        code = run_cli("hedge", *(x for pair in args.items() for x in pair))
        self._assert_one_line_exit_1(code, capsys.readouterr(), "Is a directory")

    def test_curve_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("t,zero_yield\n10,0.03\n# r\u00e4nta\n".encode("latin-1"))
        code = run_cli(
            "extrapolate",
            "--curve", str(path),
            "--method", '{"kind":"M3","tau":10,"ufr":0.042}',
        )
        self._assert_one_line_exit_1(code, capsys.readouterr(), "not UTF-8")

    @pytest.mark.parametrize("option", ["--curve", "--liabilities"])
    def test_malformed_json_file(self, flat_curve_csv, lump_liability_csv, tmp_path, capsys, option):
        path = tmp_path / "bad.json"
        path.write_text('{"t": [10, 20]')
        args = {
            "--curve": flat_curve_csv,
            "--liabilities": lump_liability_csv,
            "--method": '{"kind":"M3","tau":10,"ufr":0.042}',
        }
        args[option] = str(path)
        code = run_cli("hedge", *(x for pair in args.items() for x in pair))
        self._assert_one_line_exit_1(code, capsys.readouterr(), "bad.json")


#: one method spec of every kind
ALL_METHODS = [
    '{"kind":"M1","tau":10,"ufr":0.042}',
    '{"kind":"M2","tau":10}',
    '{"kind":"M3","tau":10,"ufr":0.042}',
    '{"kind":"M4","tau":10}',
    '{"kind":"M5_SFSA","tau":10,"kappa":20,"ufr":0.042}',
    '{"kind":"M6_SW_continuous","tau":10,"ufr":0.042,"alpha":0.2}',
    '{"kind":"M6_SW_discrete","tau":10,"ufr":0.042,"alpha":0.2}',
]


class TestCliHedge:
    def test_m2_leverage_printed(self, flat_curve_csv, lump_liability_csv, capsys):
        code = run_cli(
            "hedge",
            "--curve", flat_curve_csv,
            "--liabilities", lump_liability_csv,
            "--method", '{"kind":"M2","tau":10}',
            "--shifts", "5",
        )
        out = capsys.readouterr().out
        assert code == 0
        leverage = [l for l in out.splitlines() if l.startswith("leverage:")]
        assert leverage and float(leverage[0].split(":")[1]) == pytest.approx(2.0, rel=1e-10)

    def test_m5_total_matches_liability(self, flat_curve_csv, lump_liability_csv, capsys):
        code = run_cli(
            "hedge",
            "--curve", flat_curve_csv,
            "--liabilities", lump_liability_csv,
            "--method", '{"kind":"M5_SFSA","tau":10,"kappa":20,"ufr":0.042}',
            "--shifts", "5",
            "--format", "json",
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["total_value"] == pytest.approx(payload["liability_value"], rel=1e-10)
        for dens in payload["plan"]["densities"]:
            assert 10.0 <= dens["a"] < dens["b"] <= 20.0
        assert payload["max_first_order_residual"] < 1e-8

    def test_m6_emits_decomposition(self, flat_curve_csv, lump_liability_csv, capsys):
        code = run_cli(
            "hedge",
            "--curve", flat_curve_csv,
            "--liabilities", lump_liability_csv,
            "--method", '{"kind":"M6_SW_continuous","tau":10,"ufr":0.042,"alpha":0.2}',
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "unmatched forward coefficient" in out
        assert "fra quantity" in out

    def test_empty_shift_suite_is_a_domain_error(self, flat_curve_csv, lump_liability_csv, capsys):
        code = run_cli(
            "hedge",
            "--curve", flat_curve_csv,
            "--liabilities", lump_liability_csv,
            "--method", '{"kind":"M2","tau":10}',
            "--shifts", "0",
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["hedge", "verify"])
    def test_oversized_suite_exits_2(self, monkeypatch, capsys, command):
        """A suite too large to hold is one error line, before any shift is built."""
        from curvehedge import shifts

        def building(rng, horizon):
            raise AssertionError("a shift was built")

        monkeypatch.setattr(shifts, "gaussian_bump_shift", building)
        code = run_cli(
            command,
            "--curve", str(SAMPLE_DATA / "curve.csv"),
            "--liabilities", str(SAMPLE_DATA / "liabilities.csv"),
            "--method", '{"kind":"M3","tau":10,"ufr":0.042}',
            "--shifts", "100000000",
        )
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and "nodes, more than" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, method",
        [("sensitivity", '{"kind":"M3","tau":10,"ufr":0.042}'), ("hedge", '{"kind":"M4","tau":10}')],
        ids=["sensitivity-M3", "hedge-M4"],
    )
    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--shifts", "100000000", "nodes, more than"),
            ("--shifts", "0", "at least one shift"),
            ("--seed", "-3", "non-negative seed"),
        ],
    )
    def test_suite_rule_without_a_suite(self, capsys, command, method, option, value, message):
        """The commands that build no shift suite still check its options."""
        code = run_cli(
            command,
            "--curve", str(SAMPLE_DATA / "curve.csv"),
            "--liabilities", str(SAMPLE_DATA / "liabilities.csv"),
            "--method", method,
            option, value,
        )
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["M6_SW_continuous", "M6_SW_discrete"])
    def test_calibration_on_a_market_short_of_tau(self, tmp_path, capsys, kind):
        """Calibration reads f(tau-), so a market ending before tau is named as such."""
        path = tmp_path / "short.csv"
        path.write_text("t,zero_yield\n1,0.03\n5,0.03\n")
        code = run_cli(
            "extrapolate",
            "--curve", str(path),
            "--method", json.dumps({"kind": kind, "tau": 10, "ufr": 0.042, "kappa": 60, "epsilon": 1e-4}),
        )
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: market curve ends at 5.0, before tau=10\n"

    def test_calibration_runs_after_every_input_is_read(self, tmp_path, capsys):
        """extrapolate calibrates a missing alpha, after the liabilities are
        read: an unreadable liabilities file is named first (exit 1)."""
        code = run_cli(
            "sensitivity",
            "--curve", str(SAMPLE_DATA / "curve.csv"),
            "--liabilities", str(tmp_path / "missing.csv"),
            "--method", '{"kind":"M6_SW_continuous","tau":10,"ufr":0.042,"kappa":10.5,"epsilon":1e-4}',
        )
        captured = capsys.readouterr()
        assert code == 1 and "missing.csv" in captured.err

    @pytest.mark.parametrize("command", ["hedge", "verify"])
    def test_negative_seed_exits_2(self, flat_curve_csv, lump_liability_csv, capsys, command):
        """The seed of the shift suite is outside input: one error line, not a traceback."""
        code = run_cli(
            command,
            "--curve", flat_curve_csv,
            "--liabilities", lump_liability_csv,
            "--method", '{"kind":"M3","tau":10,"ufr":0.042}',
            "--seed", "-1",
        )
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and "non-negative seed" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["hedge", "verify"])
    @pytest.mark.parametrize(
        "horizon, message",
        [
            ("nan", "finite horizon"),
            ("inf", "finite horizon"),
            ("-inf", "finite horizon"),
            ("1e300", "shift nodes"),
            ("-1", "finite horizon"),
            ("0", "finite horizon"),
            ("5", "finite horizon"),
            ("7.999", "finite horizon"),
            (repr(0.5 * MAX_SAMPLES), "shift nodes"),
        ],
    )
    def test_unsampleable_horizon_exits_2(
        self, flat_curve_csv, lump_liability_csv, capsys, command, horizon, message
    ):
        """A horizon the shift suite cannot sample is one error line, not a traceback."""
        code = run_cli(
            command,
            "--curve", flat_curve_csv,
            "--liabilities", lump_liability_csv,
            "--method", '{"kind":"M2","tau":10}',
            "--shifts", "2",
            f"--horizon={horizon}",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["hedge", "sensitivity"])
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: json.loads(m)["kind"])
    @pytest.mark.parametrize("horizon", ["inf", "nan", "1e300"])
    def test_unsampleable_horizon_on_every_kind(
        self, flat_curve_csv, lump_liability_csv, capsys, command, method, horizon
    ):
        """Checked before the method runs, also on the paths that build no
        shift suite: the unhedgeable kinds and ``sensitivity``."""
        code = run_cli(
            command,
            "--curve", flat_curve_csv,
            "--liabilities", lump_liability_csv,
            "--method", method,
            "--shifts", "2",
            f"--horizon={horizon}",
        )
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and "horizon" in captured.err
        assert captured.err.count("\n") == 1


class TestCliVerify:
    def test_bundled_sample_data_passes(self, capsys):
        """The shipped example curve and liabilities verify for every method."""
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1] / "sample_data"
        for method in (
            '{"kind":"M1","tau":10,"ufr":0.042}',
            '{"kind":"M2","tau":10}',
            '{"kind":"M3","tau":10,"ufr":0.042}',
            '{"kind":"M5_SFSA","tau":10,"kappa":20,"ufr":0.042}',
            '{"kind":"M6_SW_continuous","tau":10,"ufr":0.042,"alpha":0.2}',
        ):
            code = run_cli(
                "verify",
                "--curve", str(root / "curve.csv"),
                "--liabilities", str(root / "liabilities.csv"),
                "--method", method,
                "--shifts", "6",
                "--seed", "2",
            )
            assert code == 0, method

    def test_m5_remainder_with_density_inside_the_blend(self, tmp_path, capsys):
        """The plan's base value is its revaluation on z, so the remainder keeps falling.

        Inputs of the benchmark's seed-18 ``case2``: a liability density
        inside (tau, kappa] and market nodes there too. With the base value
        integrated without the curve's nodes, the remainder stalled at
        1.7e-13 and ``remainder_decay[0]`` failed.
        """
        curve = tmp_path / "curve.csv"
        rows = [
            (0.25, 0.03155344842219687), (1.0, 0.030979239650389415),
            (3.0, 0.029736532949895284), (4.0, 0.0292624326543355),
            (6.0, 0.02849622345715111), (9.0, 0.027687050654816407),
            (11.0, 0.027305694633707325), (12.0, 0.02714830621250118),
            (15.0, 0.026772206437006917), (20.0, 0.02635975477159539),
            (27.0, 0.026021914890538164), (30.0, 0.025924041979682916),
        ]
        curve.write_text("t,zero_yield\n" + "".join(f"{t!r},{v!r}\n" for t, v in rows))
        liabilities = tmp_path / "liabilities.csv"
        liabilities.write_text(
            "lump,11.881,0.3925\nlump,37.739,0.9529\nlump,67.149,0.776\n"
            "lump,93.047,0.6594\ndensity,10.705,18.705,0.0618\n"
        )
        code = run_cli(
            "verify",
            "--curve", str(curve),
            "--liabilities", str(liabilities),
            "--method", '{"kappa": 23.5, "kind": "M5_SFSA", "offset": 0.0, "tau": 9.5, "ufr": 0.03875}',
            "--shifts", "1",
            "--seed", "1084929466",
            "--format", "json",
        )
        captured = capsys.readouterr()
        assert code == 0, captured.out
        assert captured.err == ""

    def test_default_suite_passes(self, flat_curve_csv, lump_liability_csv, capsys):
        code = run_cli(
            "verify",
            "--curve", flat_curve_csv,
            "--liabilities", lump_liability_csv,
            "--method", '{"kind":"M5_SFSA","tau":10,"kappa":20,"ufr":0.042}',
            "--shifts", "8",
            "--seed", "4",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        # all three check families ran
        assert "variation[0]" in out
        assert "hedge_equation[0]" in out
        assert "remainder_decay[0]" in out

    def test_m1_all_zero_variations(self, flat_curve_csv, lump_liability_csv, capsys):
        code = run_cli(
            "verify",
            "--curve", flat_curve_csv,
            "--liabilities", lump_liability_csv,
            "--method", '{"kind":"M1","tau":10,"ufr":0.042}',
            "--shifts", "5",
        )
        assert code == 0

    def test_corrupted_analytic_fails(self, flat_curve_csv, lump_liability_csv, capsys):
        code = run_cli(
            "verify",
            "--curve", flat_curve_csv,
            "--liabilities", lump_liability_csv,
            "--method", '{"kind":"M3","tau":10,"ufr":0.042}',
            "--shifts", "3",
            "--corrupt-analytic", "1e-3",
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "verification failed" in captured.err

    def test_tolerance_override_env(self, flat_curve_csv, lump_liability_csv, monkeypatch, capsys):
        monkeypatch.setenv("CURVEHEDGE_TOL_OVERRIDE", '{"variation_abs": 10.0, "variation_rel": 1.0}')
        code = run_cli(
            "verify",
            "--curve", flat_curve_csv,
            "--liabilities", lump_liability_csv,
            "--method", '{"kind":"M3","tau":10,"ufr":0.042}',
            "--shifts", "3",
            "--corrupt-analytic", "1e-3",
        )
        assert code == 0

    def test_bad_tolerance_env(self, flat_curve_csv, lump_liability_csv, monkeypatch, capsys):
        monkeypatch.setenv("CURVEHEDGE_TOL_OVERRIDE", "{bad")
        code = run_cli(
            "verify",
            "--curve", flat_curve_csv,
            "--liabilities", lump_liability_csv,
            "--method", '{"kind":"M3","tau":10,"ufr":0.042}',
        )
        assert code == 1

    @pytest.mark.parametrize(
        "override",
        [
            '{"variation_rel": "x"}',
            '{"variation_abs": -1}',
            '{"remainder_tail": 99}',
            '{"remainder_tail": 0}',
            '{"remainder_tail": 1}',
        ],
    )
    def test_bad_tolerance_value_exits_1(
        self, flat_curve_csv, lump_liability_csv, monkeypatch, capsys, override
    ):
        monkeypatch.setenv("CURVEHEDGE_TOL_OVERRIDE", override)
        code = run_cli(
            "verify",
            "--curve", flat_curve_csv,
            "--liabilities", lump_liability_csv,
            "--method", '{"kind":"M3","tau":10,"ufr":0.042}',
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "CURVEHEDGE_TOL_OVERRIDE" in captured.err


class TestCliSensitivity:
    def test_m3_single_lump(self, flat_curve_csv, tmp_path, capsys):
        liab = tmp_path / "l30.csv"
        liab.write_text("lump,30,1.0\n")
        code = run_cli(
            "sensitivity",
            "--curve", flat_curve_csv,
            "--liabilities", str(liab),
            "--method", '{"kind":"M3","tau":10,"ufr":0.042}',
            "--format", "json",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["S"] == pytest.approx(20.0, abs=1e-10)

    def test_m5_lump_beyond_kappa(self, flat_curve_csv, tmp_path, capsys):
        liab = tmp_path / "l30.csv"
        liab.write_text("lump,30,1.0\n")
        code = run_cli(
            "sensitivity",
            "--curve", flat_curve_csv,
            "--liabilities", str(liab),
            "--method", '{"kind":"M5_SFSA","tau":10,"kappa":20,"ufr":0.042}',
            "--format", "json",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["S"] == pytest.approx(15.0, abs=1e-10)

    def test_m4_exits_2(self, flat_curve_csv, lump_liability_csv, capsys):
        code = run_cli(
            "sensitivity",
            "--curve", flat_curve_csv,
            "--liabilities", lump_liability_csv,
            "--method", '{"kind":"M4","tau":10}',
        )
        assert code == 2

    def test_sw_speed_sweep_is_monotone(self, flat_curve_csv, lump_liability_csv, capsys):
        """Sweeping the reversion speed raises S toward its fast limit."""
        values = []
        for alpha in (0.05, 0.1, 0.2, 0.4, 0.8):
            code = run_cli(
                "sensitivity",
                "--curve", flat_curve_csv,
                "--liabilities", lump_liability_csv,
                "--method", f'{{"kind":"M6_SW_continuous","tau":10,"ufr":0.042,"alpha":{alpha}}}',
                "--format", "json",
            )
            assert code == 0
            values.append(json.loads(capsys.readouterr().out)["S"])
        assert all(b > a for a, b in zip(values, values[1:])), values

    def test_m5_horizon_before_kappa(self, tmp_path, capsys):
        """A horizon in [tau, kappa) leaves the weight (t - kappa)+ zero on the
        whole domain, and the report is that of the default horizon."""
        liab = tmp_path / "short.csv"
        liab.write_text("lump,11,1\nlump,11.5,2\n")
        outputs = []
        for horizon in ((), ("--horizon", "12")):
            code = run_cli(
                "sensitivity",
                "--curve", str(SAMPLE_DATA / "curve.csv"),
                "--liabilities", str(liab),
                "--method", '{"kind":"M5_SFSA","tau":10,"ufr":0.042,"kappa":20}',
                "--format", "json",
                *horizon,
            )
            captured = capsys.readouterr()
            assert (code, captured.err) == (0, "")
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]


class TestCliOverflow:
    """A curve whose forward integrals overflow ends in one error line, not
    numpy warnings: exit 1 when the file holds it, exit 2 when an offset
    makes it."""

    @staticmethod
    def _assert_one_line(code, captured, exit_code):
        assert code == exit_code and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "integrals must be finite" in captured.err

    @pytest.mark.parametrize(
        "rows",
        ["t,forward\n0,0.02\n1,1e307\n200,0.03\n", "t,zero_yield\n1,0.02\n100,1e307\n"],
        ids=["forward", "zero_yield"],
    )
    def test_overflowing_curve_file_exits_1(self, tmp_path, capsys, rows):
        curve = tmp_path / "huge.csv"
        curve.write_text(rows)
        code = run_cli("extrapolate", "--curve", str(curve), "--method", '{"kind":"M3","tau":10,"ufr":0.042}')
        self._assert_one_line(code, capsys.readouterr(), 1)

    def test_overflowing_offset_exits_2(self, capsys):
        code = run_cli(
            "hedge",
            "--curve", str(SAMPLE_DATA / "curve.csv"),
            "--liabilities", str(SAMPLE_DATA / "liabilities.csv"),
            "--method", '{"kind":"M3","tau":10,"ufr":0.042,"offset":1e306}',
        )
        self._assert_one_line(code, capsys.readouterr(), 2)


class TestCliScanAndDeterminism:
    def test_scan_clean(self, flat_curve_csv, capsys):
        code = run_cli(
            "scan-arbitrage",
            "--curve", flat_curve_csv,
            "--method", '{"kind":"M3","tau":10,"ufr":0.042}',
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "no defects" in out

    def test_scan_ignores_discount_underflow(self, capsys):
        """Past t = 745/ufr the M3 discount factor underflows to 0.0 while its
        yield stays finite; that is no arbitrage defect."""
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1] / "sample_data"
        code = run_cli(
            "scan-arbitrage",
            "--curve", str(root / "curve.csv"),
            "--method", '{"kind":"M3","tau":10.0,"ufr":0.042}',
            "--horizon", "20000",
            "--step", "1",
        )
        assert code == 0
        assert capsys.readouterr().out == "no defects found\n"

    @pytest.mark.parametrize(
        "kind, field, message",
        [
            pytest.param(kind, field, message, id=field)
            for kind, field, message in (
                ("M6_SW_continuous", '"kappa":Infinity,"epsilon":1e-4', "must be finite"),
                ("M6_SW_continuous", '"alpha":0.1,"epsilon":Infinity', "must be finite"),
                # alpha and epsilon configure Smith-Wilson alone
                ("M3", '"alpha":Infinity', "M3 does not take alpha"),
                ("M1", '"alpha":-1e308', "M1 does not take alpha"),
                ("M3", '"epsilon":Infinity', "M3 does not take epsilon"),
            )
        ],
    )
    def test_non_finite_spec_field_exits_2(self, flat_curve_csv, capsys, kind, field, message):
        code = run_cli(
            "extrapolate",
            "--curve", flat_curve_csv,
            "--method", '{"kind":"%s","tau":10,"ufr":0.042,%s}' % (kind, field),
            "--format", "json",
        )
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "kind, ufr", [("M1", ',"ufr":0.042'), ("M2", ""), ("M3", ',"ufr":0.042'), ("M4", "")]
    )
    def test_unread_kappa_exits_2(self, flat_curve_csv, capsys, kind, ufr):
        """Only M5 and the Smith-Wilson kinds read kappa; a stray one is rejected, not echoed."""
        code = run_cli(
            "extrapolate",
            "--curve", flat_curve_csv,
            "--method", '{"kind":"%s","tau":10%s,"kappa":30}' % (kind, ufr),
            "--format", "json",
        )
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {kind} does not take kappa\n"

    def test_json_output_byte_identical(self, flat_curve_csv, lump_liability_csv, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            code = run_cli(
                "hedge",
                "--curve", flat_curve_csv,
                "--liabilities", lump_liability_csv,
                "--method", '{"kind":"M2","tau":10}',
                "--shifts", "6",
                "--seed", "42",
                "--format", "json",
                "--out", str(out),
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_threads_match_sequential(self, flat_curve_csv, lump_liability_csv, tmp_path):
        """Commands run from several threads at once write what they write one by one."""
        method = ["--method", '{"kind":"M6_SW_continuous","tau":10,"ufr":0.042,"alpha":0.1}']
        curve = ["--curve", flat_curve_csv]
        liabilities = curve + ["--liabilities", lump_liability_csv] + method + ["--shifts", "4"]
        commands = [
            ["extrapolate", *curve, *method, "--step", "0.5", "--format", "json"],
            ["hedge", *liabilities, "--format", "json"],
            ["sensitivity", *liabilities, "--format", "json"],
            ["scan-arbitrage", *curve, *method, "--step", "0.01", "--format", "json"],
        ]
        rounds = 3

        def run(i, tag):
            argv = commands[i] + ["--out", str(tmp_path / f"{tag}-{i}.json")]
            codes[tag, i] = main(argv)

        codes = {}
        for i in range(len(commands)):
            run(i, "sequential")
        cli.build_parser.cache_clear()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for r in range(rounds):
                threads = [
                    threading.Thread(target=run, args=(i, f"threaded{r}")) for i in range(len(commands))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch)
        assert set(codes.values()) == {0} and len(codes) == (rounds + 1) * len(commands)
        for i in range(len(commands)):
            want = (tmp_path / f"sequential-{i}.json").read_bytes()
            for r in range(rounds):
                assert (tmp_path / f"threaded{r}-{i}.json").read_bytes() == want

    def test_sw_alpha_resolved_from_kappa_epsilon(self, flat_curve_csv, lump_liability_csv, capsys):
        """A Smith-Wilson spec without alpha calibrates it from (kappa, epsilon)."""
        code = run_cli(
            "hedge",
            "--curve", flat_curve_csv,
            "--liabilities", lump_liability_csv,
            "--method", '{"kind":"M6_SW_continuous","tau":10,"ufr":0.042,"kappa":60,"epsilon":1e-4}',
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "unmatched forward coefficient" in out
