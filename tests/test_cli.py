"""CLI records, exit codes, grammar, and byte determinism."""

import colorsys
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import tempfile
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from semimodular import cli
from semimodular.cli import main, render_grid, _brightness, _pixel_color
from semimodular import (
    FIBONACCI,
    GUARD_EPS,
    INDEX_CAP,
    PoleProximity,
    SequenceSpec,
    SeriesSpec,
    ToleranceUnreachable,
    Variant,
    evaluate,
    pole_map,
)
from oracle import coeffs


def run_cli(capsys, args):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def records(out):
    return [json.loads(line) for line in out.splitlines()]


def test_eval_record(capsys):
    code, out = run_cli(
        capsys, ["eval", "--seq", "fib", "--weight", "4", "--z", "0.3,0.7", "--tol", "1e-12"]
    )
    assert code == 0
    (rec,) = records(out)
    assert rec["schema"] == 1
    assert rec["tail_bound"] <= 1e-12
    assert rec["certified"] is True
    assert rec["j_min"] == -rec["j_max"]
    res = evaluate(SeriesSpec(FIBONACCI, 4), 0.3 + 0.7j, 1e-12)
    assert rec["value_re"] == res.value.real
    assert rec["value_im"] == res.value.imag


def test_eval_pole_exit(capsys):
    code, out = run_cli(capsys, ["eval", "--seq", "fib", "--weight", "4", "--z", "1.0,0.0"])
    assert code == 2
    assert out == ""
    # With the guard off the same pole ends at the exactly vanishing term.
    code = main(["eval", "--seq", "fib", "--weight", "4", "--z", "1,0", "--guard-eps", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "term -1 denominator vanishes exactly at z = (1+0j)" in captured.err


def test_eval_usage_errors(capsys):
    code, _ = run_cli(capsys, ["eval", "--seq", "lucas-first:0:-1", "--weight", "4", "--z", "0.3,0.7"])
    assert code == 64
    code, _ = run_cli(capsys, ["eval", "--seq", "lucas-first:1:0", "--weight", "4", "--z", "0.3,0.7"])
    assert code == 64
    code, _ = run_cli(capsys, ["eval", "--seq", "lucas-first:5:2", "--weight", "4", "--z", "0.3,0.7"])
    assert code == 64
    code, _ = run_cli(capsys, ["eval", "--seq", "nonsense", "--weight", "4", "--z", "0.3,0.7"])
    assert code == 64
    code, _ = run_cli(capsys, ["eval", "--seq", "lucas", "--weight", "4", "--z", "0.3,0.7", "--variant", "footnote"])
    assert code == 64


def test_eval_tolerance_unreachable_exit(capsys):
    # (3, 2) and second:(5, 6): the roots do not split the unit circle, so
    # no tail bound exists and the spec is refused before any term, with
    # one line.  So ends a term that overflows next to a pole with the
    # guard off, in either output format, a denominator that computes to 0
    # next to the pole -2/3 without vanishing exactly, and the window cap
    # on the accumulation point.
    for args, message in (
        (["--seq", "lucas-first:3:2", "--uncertified", "--z", "0.3,0.7"], "no tail bound for this sequence"),
        (["--seq", "lucas-second:5:6", "--uncertified", "--z", "0.3,0.7"], "no tail bound for this sequence"),
        (["--seq", "fib", "--z=-1,1e-200", "--guard-eps", "0"], "overflow"),
        (["--seq", "fib", "--z=-0.6666666666666666,0", "--guard-eps", "0"], "overflow"),
        (["--seq", "fib", "--z=-1,1e-200", "--guard-eps", "0", "--format", "human"], "overflow"),
        (["--seq", "fib", "--z", "1.618033988749895,0", "--guard-eps", "0"], "window cap 10000 hit"),
    ):
        code = main(["eval", "--weight", "4", *args])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert message in captured.err
    # A huge z has a value: only the j = 0 term, 1, survives, also where
    # other denominators (1e307) or |z| itself (1.7e308) pass double range.
    for z in ("1e300,1e300", "1e307,1e307", "1.7e308,1.7e308"):
        code, out = run_cli(capsys, ["eval", "--seq", "fib", "--weight", "4", "--z", z])
        assert code == 0
        assert records(out)[0]["value_re"] == 1.0


def test_eval_tol_floor_is_usage_error(capsys):
    code, _ = run_cli(capsys, ["eval", "--seq", "fib", "--weight", "4", "--z", "0.3,0.7", "--tol", "1e-15"])
    assert code == 64


def test_eval_uncertified_flag(capsys):
    code, out = run_cli(
        capsys,
        ["eval", "--seq", "lucas-first:5:2", "--uncertified", "--weight", "4", "--z", "0.3,0.7", "--tol", "1e-8"],
    )
    assert code == 0
    (rec,) = records(out)
    assert rec["certified"] is False


def test_eval_byte_determinism(capsys):
    args = ["eval", "--seq", "fib", "--weight", "4", "--z", "0.3,0.7", "--tol", "1e-12"]
    _, out1 = run_cli(capsys, args)
    _, out2 = run_cli(capsys, args)
    assert out1 == out2


def test_check_pass_and_summary(capsys):
    code, out = run_cli(
        capsys,
        ["check", "--identity", "inversion", "--seq", "fib", "--k", "2", "--samples", "20", "--seed", "7"],
    )
    assert code == 0
    recs = records(out)
    assert len(recs) == 21
    summary = recs[-1]
    assert summary["type"] == "summary"
    assert summary["pass"] is True
    assert summary["seed"] == 7
    assert all(r["ok"] for r in recs[:-1])


def test_check_mirror_general_a(capsys):
    code, out = run_cli(
        capsys,
        ["check", "--identity", "mirror", "--seq", "lucas-first:3:-1", "--k", "1", "--samples", "15"],
    )
    assert code == 0
    assert records(out)[-1]["pass"] is True


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_check_rejects_empty_scan(capsys, samples):
    code, out = run_cli(
        capsys, ["check", "--identity", "inversion", "--seq", "fib", "--samples", samples]
    )
    assert code == 64
    assert out == ""


@pytest.mark.parametrize("seq", ["fib", "lucas"])
def test_check_floor_overflow_is_unreachable(capsys, seq):
    # The rounding floor (1 + |z|)**500 leaves double range; an infinite
    # tolerance would pass any residual.
    code = main(["check", "--identity", "mirror", "--seq", seq, "--k", "250", "--samples", "20"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


_HUGE_A = f"lucas-first:{10**155}:-1"


@pytest.mark.parametrize(
    "args",
    [
        # sqrt(a*a + 4) of the dominant root overflows from |a| ~ 1.34e154.
        ["eval", "--seq", _HUGE_A, "--weight", "4", "--z", "0.3,0.7"],
        ["check", "--identity", "inversion", "--seq", _HUGE_A, "--samples", "2"],
        ["poles", "--seq", _HUGE_A, "--nmin", "-2", "--nmax", "2"],
        # The guard's pole b/a is past double range.
        ["eval", "--seq", f"lucas-first:3:{10**309}", "--uncertified", "--weight", "4", "--z", "0.3,0.7"],
    ],
)
def test_parameters_past_double_range_are_unreachable(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_check_negative_control(capsys):
    code, out = run_cli(
        capsys,
        ["check", "--identity", "mirror", "--seq", "fib", "--k", "1", "--samples", "15", "--mirror-a", "2"],
    )
    assert code == 1
    assert records(out)[-1]["pass"] is False


_NOT_FINITE = "a check record has a value that is not finite, which JSON cannot write"


def test_check_that_fails_mid_scan_writes_nothing(monkeypatch, capsys):
    # A non-finite fifth record cannot be written as json: the run exits 64
    # before any sample line reaches stdout, with the same one line on every
    # interpreter.
    scan = cli.check_identity

    def fifth_nan(*args, **kwargs):
        report = scan(*args, **kwargs)
        residuals = list(report.residuals)
        residuals[4] = math.nan
        return report._replace(residuals=tuple(residuals))

    monkeypatch.setattr(cli, "check_identity", fifth_nan)
    code = main(["check", "--identity", "inversion", "--seq", "fib", "--k", "2", "--samples", "10"])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert captured.err == f"semimodular: {_NOT_FINITE}\n"


# sha256 of stdout, generated when each half became a plain sum (every
# sample keeps its pass/fail; only residuals moved, in their last bits).
# The ids name the runs, so a re-pin keeps the test names.
_CHECK_PINS = [
    pytest.param(["check", "--identity", "inversion", "--seq", "fib", "--k", "2", "--samples", "100", "--seed", "7"], 0,
                 "f4e98ac63dd20be7aa6dc9932987ba6ccb35a1de90f6096ae7002e660f1027a0",
                 "c9db49dc1984a9ec90106b621060c8f6c9d31c603b92091c5b5e13a2f91ceb47", id="inversion-fib-k2"),
    pytest.param(["check", "--identity", "mirror", "--seq", "lucas-first:3:-1", "--k", "1"], 0,
                 "5ed6a33f3d797624c4a0a7e4cc31d680ee7271e362570580c98d6fb5d7688a10",
                 "99d9276c28bc24f902c3ced42c2a9c8f00279000f6c32a83a43d174a47972111", id="mirror-lucas-first-3-1-k1"),
    pytest.param(["check", "--identity", "mirror", "--seq", "fib", "--variant", "footnote", "--k", "2", "--seed", "3"], 0,
                 "e126cf4ad334e548527cbb5a292a0c17b85df1149ba14d55334c4c78ff896864",
                 "d492af3f154fba609901ea6403306ce23978825c8b13ce3b120a79bc83cb8331", id="mirror-fib-footnote-k2"),
    pytest.param(["check", "--identity", "mirror", "--seq", "fib", "--k", "1", "--mirror-a", "2"], 1,
                 "a46070ac111efca9a1bd4c4830cefc99091f9b0fc66707e69c4b8f7a32f8bb51",
                 "a027fee0ecd95ff3b669f3dc6e45613d5033ea8810268cb583656d3df3989012", id="mirror-fib-control"),
]


@pytest.mark.parametrize("argv, code, jsonl, human", _CHECK_PINS)
def test_check_bytes_are_pinned(capsys, argv, code, jsonl, human):
    for fmt, digest in (("jsonl", jsonl), ("human", human)):
        got, out = run_cli(capsys, argv + ["--format", fmt])
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), fmt


def _json_line(record):
    return json.dumps({"schema": 1, **record}, separators=(",", ":"), allow_nan=False) + "\n"


_FLOATS = st.floats()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(i=st.integers(min_value=0, max_value=10**6), x=_FLOATS, y=_FLOATS, r=_FLOATS, t=_FLOATS)
@example(i=0, x=-0.0, y=5e-324, r=1.7976931348623157e308, t=1e16)
@example(i=7, x=1e-5, y=-1e-5, r=1e16, t=1e-5)
@example(i=3, x=0.1, y=-0.0, r=math.inf, t=1.0)
@example(i=4, x=0.1, y=0.2, r=1.0, t=math.nan)
@example(i=5, x=1e308, y=1e308, r=1e308, t=1e308)
@example(i=6, x=0.5, y=-0.5, r=1e-12, t=1e-12)
def test_sample_template_is_json(i, x, y, r, t):
    # json refuses exactly the records with a value that is not finite; the
    # CLI refuses them too, with its own message (json's differs across
    # CPython versions).
    record = {"type": "sample", "index": i, "z_re": x, "z_im": y, "residual": r, "tolerance": t, "ok": r <= t}
    try:
        want = _json_line(record)
    except ValueError:
        with pytest.raises(ValueError) as raised:
            cli._sample_line(i, complex(x, y), r, t, False)
        assert str(raised.value) == _NOT_FINITE
    else:
        assert cli._sample_line(i, complex(x, y), r, t, False) == want


_ENTRY = 10**4300 - 1  # the longest int that prints


@settings(max_examples=200, deadline=None, derandomize=True)
@given(num=st.integers(min_value=-_ENTRY, max_value=_ENTRY), den=st.integers(min_value=1, max_value=_ENTRY))
@example(num=-_ENTRY, den=_ENTRY)
@example(num=0, den=1)
def test_pole_template_is_json(num, den):
    record = {"type": "pole", "fraction": f"{num}/{den}", "numerator": num, "denominator": den}
    assert cli._pole_line(num, den, False) == _json_line(record)
    assert cli._pole_line(num, den, True) == f"pole {num}/{den}\n"


def _pole_order_cases():
    """About 250 (selector, nmin, nmax) over b = -1 (a in +-1..+-6, both
    kinds) and b in {2, 3, -2}: the single index 1 (no pole for the first
    kind), a single seeded index, an empty range, and three seeded ranges
    around n = 0, 1 and 2, in seeded order."""
    rng = random.Random(22)
    seqs = [(kind, a, -1) for kind in ("first", "second") for a in range(-6, 7) if a]
    seqs += [(kind, a, b) for kind in ("first", "second") for a in (-2, 1, 3) for b in (2, 3, -2)]
    cases = []
    for kind, a, b in seqs:
        selector = f"lucas-{kind}:{a}:{b}"
        n = rng.randint(-30, 30)
        cases += [(selector, 1, 1), (selector, n, n), (selector, n + 1, n)]
        for _ in range(3):
            lo = rng.randint(-25, 2)
            cases.append((selector, lo, rng.randint(max(lo, 0), 25)))
    rng.shuffle(cases)
    return cases


@pytest.mark.parametrize("selector, nmin, nmax", _pole_order_cases())
def test_pole_order_matches_the_sorted_set(capsys, selector, nmin, nmax):
    seq = cli._seq(selector)
    spec = SeriesSpec(seq, 2)
    ratios = (coeffs(spec, n) for n in range(nmin, nmax + 1))
    want = sorted({c1 / c0 for c1, c0 in ratios if c0 != 0})
    argv = ["poles", "--seq", selector, "--nmin", str(nmin), "--nmax", str(nmax), "--uncertified"]
    pm = pole_map(seq, nmin, nmax)
    assert list(pm.poles) == want
    code, out = run_cli(capsys, argv)
    assert code == 0
    acc = {"type": "accumulation", "points": list(pm.accumulation_points)}
    assert out == "".join(
        _json_line({"type": "pole", "fraction": f"{p.numerator}/{p.denominator}",
                    "numerator": p.numerator, "denominator": p.denominator})
        for p in want
    ) + _json_line(acc)
    code, out = run_cli(capsys, argv + ["--format", "human"])
    assert code == 0
    assert out.splitlines()[:-1] == [f"pole {p.numerator}/{p.denominator}" for p in want]


def test_poles_golden(capsys):
    code, out = run_cli(capsys, ["poles", "--seq", "fib", "--nmin", "-3", "--nmax", "5"])
    assert code == 0
    assert out.splitlines() == [
        '{"schema":1,"type":"pole","fraction":"-1/1","numerator":-1,"denominator":1}',
        '{"schema":1,"type":"pole","fraction":"-2/3","numerator":-2,"denominator":3}',
        '{"schema":1,"type":"pole","fraction":"-1/2","numerator":-1,"denominator":2}',
        '{"schema":1,"type":"pole","fraction":"0/1","numerator":0,"denominator":1}',
        '{"schema":1,"type":"pole","fraction":"1/1","numerator":1,"denominator":1}',
        '{"schema":1,"type":"pole","fraction":"3/2","numerator":3,"denominator":2}',
        '{"schema":1,"type":"pole","fraction":"5/3","numerator":5,"denominator":3}',
        '{"schema":1,"type":"pole","fraction":"2/1","numerator":2,"denominator":1}',
        '{"schema":1,"type":"accumulation","points":[-0.6180339887498948,1.618033988749895]}',
    ]


def test_poles_empty_window(capsys):
    code, out = run_cli(capsys, ["poles", "--seq", "fib", "--nmin", "1", "--nmax", "1"])
    assert code == 0
    recs = records(out)
    assert len(recs) == 1
    assert recs[0]["type"] == "accumulation"


@pytest.mark.parametrize(
    "args, message",
    [
        # a = 0 parses like any other uncertified sequence: gated, never checked.
        (["eval", "--seq", "lucas-first:0:-1", "--weight", "4", "--z", "0.3,0.7"], "b = -1, a != 0"),
        (["eval", "--seq", "lucas-second:0:2", "--weight", "4", "--z", "0.3,0.7"], "b = -1, a != 0"),
        (["poles", "--seq", "lucas-first:0:-1", "--nmin", "-3", "--nmax", "3"], "b = -1, a != 0"),
        (["check", "--identity", "mirror", "--seq", "lucas-first:0:-1", "--k", "1", "--samples", "3"], "b = -1, a != 0"),
        (["check", "--identity", "inversion", "--seq", "fib", "--k", "1", "--samples", "3", "--mirror-a", "5"], "--mirror-a"),
        (["poles", "--seq", "fib", "--nmin", "0", "--nmax", "100001"], "index cap"),
        pytest.param(
            ["poles", "--seq", "fib", "--nmin", "20570", "--nmax", "20600"],
            "--nmin/--nmax",
            marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit"),
        ),
        pytest.param(
            ["poles", "--seq", "fib", "--nmin", "20578", "--nmax", "25000"],
            "--nmin/--nmax",
            marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit"),
        ),
    ],
)
def test_refused_runs_print_one_line_naming_the_cause(capsys, args, message):
    code = main(args)
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert message in line


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit")
@pytest.mark.parametrize("seq, last", [("fib", 20577), ("lucas-second:2:-1", 11234)])
def test_poles_digit_limit_boundary(capsys, seq, last):
    # The last printable --nmax prints and the next is refused before any
    # line.  Every lucas-second:2:-1 value is even, so the reduced pole at
    # 11234 prints although L(11234) itself has 4301 digits.
    code, out = run_cli(capsys, ["poles", "--seq", seq, "--nmin", str(last - 2), "--nmax", str(last)])
    assert code == 0
    assert len(records(out)) == 4
    code = main(["poles", "--seq", seq, "--nmin", str(last - 2), "--nmax", str(last + 1)])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""


def test_a_zero_explores_with_uncertified(capsys):
    code, out = run_cli(capsys, ["poles", "--seq", "lucas-first:0:-1", "--uncertified", "--nmin", "-3", "--nmax", "3"])
    assert code == 0
    assert records(out) == [
        {"schema": 1, "type": "pole", "fraction": "0/1", "numerator": 0, "denominator": 1},
        {"schema": 1, "type": "accumulation", "points": []},
    ]


def test_poles_lucas(capsys):
    code, out = run_cli(capsys, ["poles", "--seq", "lucas", "--nmin", "2", "--nmax", "4"])
    assert code == 0
    fracs = [r["fraction"] for r in records(out) if r["type"] == "pole"]
    assert fracs == ["4/3", "7/4", "3/1"]


def test_matrix_verify(capsys):
    code, out = run_cli(capsys, ["matrix", "--verify"])
    assert code == 0
    recs = records(out)
    assert all(r["holds"] for r in recs)
    assert recs[-1]["type"] == "fib-matrix"


def test_matrix_fib_power(capsys):
    code, out = run_cli(capsys, ["matrix", "--fib-power", "10"])
    assert code == 0
    (rec,) = records(out)
    assert (rec["p"], rec["q"], rec["r"], rec["s"]) == (89, 55, 55, 34)
    code, out = run_cli(capsys, ["matrix", "--fib-power", "50"])
    (rec,) = records(out)
    assert (rec["p"], rec["q"], rec["r"], rec["s"]) == (
        20365011074,
        12586269025,
        12586269025,
        7778742049,
    )
    # The largest power whose entries (F(20577) has 4300 digits) still print.
    code, out = run_cli(capsys, ["matrix", "--fib-power", "20576"])
    assert code == 0
    assert len(str(records(out)[0]["p"])) == 4300


def test_grid_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "grid.ppm"
    args = [
        "grid", "--seq", "fib", "--weight", "4",
        "--window=-2,2,-2,2", "--res", "16x16", "--out", str(out_path),
    ]
    code, out = run_cli(capsys, args)
    assert code == 0
    (rec,) = records(out)
    assert rec["width"] == 16 and rec["height"] == 16
    data = out_path.read_bytes()
    assert data.startswith(b"P6\n16 16\n255\n")
    assert len(data) == len(b"P6\n16 16\n255\n") + 3 * 16 * 16


def test_grid_byte_determinism(tmp_path, capsys):
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    base = ["grid", "--seq", "fib", "--weight", "4", "--window=-1.2,1.7,-1.1,1.3", "--res", "24x20"]
    assert run_cli(capsys, base + ["--out", str(p1)])[0] == 0
    assert run_cli(capsys, base + ["--out", str(p2)])[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_grid_io_failure(tmp_path, capsys):
    code, _ = run_cli(
        capsys,
        ["grid", "--seq", "fib", "--weight", "4", "--window=-1,1,-1,1",
         "--res", "2x2", "--out", str(tmp_path / "missing" / "x.ppm")],
    )
    assert code == 74


def test_grid_single_pixel_matches_eval(tmp_path, capsys):
    out_path = tmp_path / "one.ppm"
    code, _ = run_cli(
        capsys,
        ["grid", "--seq", "fib", "--weight", "4", "--window=0.2,0.4,0.6,0.8",
         "--res", "1x1", "--out", str(out_path)],
    )
    assert code == 0
    pixel = out_path.read_bytes()[len(b"P6\n1 1\n255\n"):]
    z = complex(0.3, 0.7)
    value = evaluate(SeriesSpec(FIBONACCI, 4), z, 1e-8).value
    assert pixel == bytes(_pixel_color(value, _brightness(value)))


def _colorsys_pixel(value):
    """The pixel colour through colorsys.hsv_to_rgb, which `_pixel_color` spells out."""
    hue = (math.atan2(value.imag, value.real) + math.pi) / (2.0 * math.pi)
    if hue >= 1.0:
        hue -= 1.0
    brightness = 1.0 - 1.0 / (1.0 + math.log1p(abs(value)))
    r, g, b = colorsys.hsv_to_rgb(hue, 1.0, brightness)
    return (int(r * 255 + 0.5), int(g * 255 + 0.5), int(b * 255 + 0.5))


def test_pixel_color_is_colorsys_term_for_term():
    rng = random.Random(20)
    values = [0j, complex(-0.0, 0.0), complex(-1.0, 0.0), complex(-1.0, -0.0), 1 + 0j, 1j, -1j]
    for _ in range(20_000):
        scale = 10 ** rng.uniform(-12, 300)
        values.append(complex(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale))
    for value in values:
        assert _pixel_color(value, _brightness(value)) == _colorsys_pixel(value), value
        # A twinned row colours the conjugate with the value's brightness.
        assert _pixel_color(value.conjugate(), _brightness(value)) == _colorsys_pixel(value.conjugate()), value


def test_pixel_color_past_double_range():
    # Finite parts, modulus past double range (the first is a weight-2 fib
    # value next to the pole at 0): the colour of the exact log1p|value|.
    rng = random.Random(21)
    values = [complex(1.5562907645525302e308, 1.5562780005014412e308), complex(-1.7e308, -1.7e308)]
    for x, y in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        values.append(complex(x * rng.uniform(1.3e308, 1.79e308), y * rng.uniform(1.3e308, 1.79e308)))
    for value in values:
        with mpmath.workprec(200):
            log_size = float(mpmath.log1p(abs(mpmath.mpc(value.real, value.imag))))
        hue = (math.atan2(value.imag, value.real) + math.pi) / (2.0 * math.pi)
        r, g, b = colorsys.hsv_to_rgb(hue, 1.0, 1.0 - 1.0 / (1.0 + log_size))
        assert _pixel_color(value, _brightness(value)) == (int(r * 255 + 0.5), int(g * 255 + 0.5), int(b * 255 + 0.5)), value


def test_grid_huge_window_renders_black(tmp_path, capsys):
    # At 1e300 and 1e307 every pixel has the value 1; at -1 + 1e-200i,
    # with the guard off, the terms overflow, so the pixel is black.
    one = b"P6\n2 2\n255\n" + bytes(_pixel_color(1 + 0j, _brightness(1 + 0j))) * 4
    for window, extra, expected in (
        ("1e300,2e300,1e300,2e300", ["--res", "2x2"], one),
        ("1e307,2e307,1e307,2e307", ["--res", "2x2"], one),
        ("-2,0,0,2e-200", ["--res", "1x1", "--guard-eps", "0"], b"P6\n1 1\n255\n" + bytes(3)),
    ):
        out_path = tmp_path / "huge.ppm"
        code, _ = run_cli(
            capsys,
            ["grid", "--seq", "fib", "--weight", "4", f"--window={window}", *extra, "--out", str(out_path)],
        )
        assert code == 0
        assert out_path.read_bytes() == expected


def test_grid_black_band_near_accumulation(tmp_path, capsys):
    phi = (1 + 5**0.5) / 2
    out_path = tmp_path / "phi.ppm"
    code, _ = run_cli(
        capsys,
        ["grid", "--seq", "fib", "--weight", "4",
         f"--window={phi - 0.01},{phi + 0.01},-0.01,0.01",
         "--res", "16x16", "--out", str(out_path), "--guard-eps", "1e-3"],
    )
    assert code == 0
    body = out_path.read_bytes()[len(b"P6\n16 16\n255\n"):]
    black = sum(1 for i in range(16 * 16) if body[3 * i : 3 * i + 3] == b"\x00\x00\x00")
    assert black >= 8


def test_grid_mirror_symmetry():
    # f(1 - z) = f(z) maps pixel (i, j) to (W+15-i, H-1-j) in this window.
    spec = SeriesSpec(FIBONACCI, 4)
    img = render_grid(spec, (-2.0, 2.0, -2.0, 2.0), 32, 32)
    off = len(b"P6\n32 32\n255\n")

    def px(i, j):
        k = off + 3 * (j * 32 + i)
        return img[k : k + 3]

    checked = 0
    for j in range(32):
        for i in range(32):
            ii, jj = 39 - i, 31 - j
            if not 0 <= ii < 32:
                continue
            a, b = px(i, j), px(ii, jj)
            assert max(abs(x - y) for x, y in zip(a, b)) <= 1, (i, j)
            checked += 1
    assert checked > 300


def _unmirrored_grid(spec, window, width, height, tol=1e-8, guard_eps=GUARD_EPS):
    """`render_grid` without row reuse: one evaluation per pixel."""
    x0, x1, y0, y1 = window
    out = bytearray(b"P6\n%d %d\n255\n" % (width, height))
    for j in range(height):
        im = y1 - (j + 0.5) * (y1 - y0) / height
        for i in range(width):
            re = x0 + (i + 0.5) * (x1 - x0) / width
            try:
                value = evaluate(spec, complex(re, im), tol, guard_eps=guard_eps).value
                out.extend(_pixel_color(value, _brightness(value)))
            except (PoleProximity, ToleranceUnreachable):
                out.extend((0, 0, 0))
    return bytes(out)


@pytest.mark.parametrize(
    "spec, window, width, height, guard_eps, computed",
    [
        (SeriesSpec(FIBONACCI, 4), (-2.0, 2.0, -2.0, 2.0), 16, 16, GUARD_EPS, 16 * 8),
        # Rows at im 2.5, 1.5, 0.5, -0.5: only the last pair mirrors.
        (SeriesSpec(FIBONACCI, 4), (-2.0, 2.0, -1.0, 3.0), 9, 4, GUARD_EPS, 9 * 3),
        (SeriesSpec(SequenceSpec(3, 1), 4), (-1.5, 2.5, -2.0, 2.0), 11, 8, GUARD_EPS, 11 * 4),
        (SeriesSpec(FIBONACCI, 4, Variant.FOOTNOTE), (-2.0, 2.0, -2.0, 2.0), 12, 8, GUARD_EPS, 12 * 4),
        # Pixels on the exact poles -1 and 1 of the real row; the row at
        # im = 0 is its own twin and is evaluated.
        (SeriesSpec(FIBONACCI, 4), (-3.5, 1.5, -2.5, 2.5), 5, 5, 0.0, 5 * 3),
    ],
    ids=["symmetric", "asymmetric", "exploration-b1", "footnote", "guard-off"],
)
def test_render_grid_matches_unmirrored(monkeypatch, spec, window, width, height, guard_eps, computed):
    want = _unmirrored_grid(spec, window, width, height, guard_eps=guard_eps)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate", counted)
    assert render_grid(spec, window, width, height, guard_eps=guard_eps) == want
    assert len(calls) == computed


def test_reused_parser_keeps_defaults(capsys):
    base = ["eval", "--seq", "fib", "--weight", "4", "--z", "0.3,0.7"]
    code, out = run_cli(capsys, base + ["--format", "human"])
    assert code == 0 and out.startswith("value = ")
    code = main(["eval", "--seq", "bogus", "--weight", "4", "--z", "0,0", "--format", "human"])
    assert code == 64
    capsys.readouterr()
    code, out = run_cli(capsys, base)
    assert code == 0 and records(out)[0]["command"] == "eval"
    code = main(["grid", "--seq", "fib", "--weight", "4", "--window=2,1,0,1", "--res", "4x4", "--out", "x.ppm"])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert "argument --window" in captured.err.splitlines()[-1]
    assert cli._parser() is cli._parser()


def test_human_format(capsys):
    code, out = run_cli(
        capsys, ["eval", "--seq", "fib", "--weight", "4", "--z", "0.3,0.7", "--format", "human"]
    )
    assert code == 0
    assert out.startswith("value = ")
    assert "certified=True" in out
    code, out = run_cli(
        capsys, ["poles", "--seq", "fib", "--nmin", "2", "--nmax", "3", "--format", "human"]
    )
    assert code == 0
    assert out.splitlines()[0] == "pole 1/1"


def test_no_stray_stdout_on_errors(capsys):
    code, out = run_cli(capsys, ["eval", "--seq", "fib", "--weight", "4", "--z", "1.0,0.0"])
    assert code == 2 and out == ""
    code, out = run_cli(capsys, ["eval", "--seq", "bogus", "--weight", "4", "--z", "0,0"])
    assert code == 64 and out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["poles", "--seq", "fib", "--nmin", "-200000", "--nmax", "3"],
        ["eval", "--seq", "fib", "--weight", "4", "--z", "nan,0"],
        ["eval", "--seq", "fib", "--weight", "4", "--z", "inf,1"],
        ["eval", "--seq", "fib", "--weight", "4", "--z", "1.0,0.0", "--guard-eps", "nan"],
        ["eval", "--seq", "fib", "--weight", "4", "--z", "0.3,0.7", "--guard-eps", "-1"],
        ["grid", "--seq", "fib", "--weight", "4", "--window=-1,1,-1,1", "--res", "2x2", "--guard-eps", "nan"],
        ["grid", "--seq", "fib", "--weight", "4", "--window=-1,1,-1,1", "--res", "2x2", "--guard-eps", "-1"],
    ],
)
def test_rejected_values_exit_64_with_one_line(tmp_path, capsys, args):
    out_path = tmp_path / "never.ppm"
    if args[0] == "grid":
        args = args + ["--out", str(out_path)]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert not out_path.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["eval", "--seq", "fib", "--weight", "4", "--z", "1.618033988749895,0", "--guard-eps", "0"],
        ["grid", "--seq", "fib", "--weight", "4", "--window=-1,1,-1,1", "--res", "2x2"],
        ["check", "--identity", "inversion", "--seq", "fib", "--k", "2", "--samples", "5"],
    ],
)
def test_infinite_tol_exits_64_naming_tol(tmp_path, capsys, args):
    out_path = tmp_path / "never.ppm"
    if args[0] == "grid":
        args = args + ["--out", str(out_path)]
    code = main(args + ["--tol", "inf"])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert "tol" in line
    assert not out_path.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["matrix", "--fib-power", "0"], "argument --fib-power"),
        (["matrix", "--fib-power", str(INDEX_CAP + 1)], "argument --fib-power"),
        (["poles", "--seq", "fib", "--nmin", "1", "--nmax", "3", "--variant", "standard"], "unrecognized"),
        (["check", "--identity", "inversion", "--seq", "fib", "--samples", "2", "--uncertified"], "unrecognized"),
        (["matrix", "--fib-power", "20577"], "argument --fib-power"),
        (
            ["grid", "--seq", "fib", "--weight", "4", "--window=2,1,0,1", "--res", "4x4", "--out", "x.ppm"],
            "argument --window",
        ),
        (
            ["grid", "--seq", "fib", "--weight", "4", "--window=a,2,-2,2", "--res", "4x4", "--out", "x.ppm"],
            "argument --window",
        ),
        (
            ["grid", "--seq", "fib", "--weight", "4", "--window=-1,1,-1,1", "--res", "0x5", "--out", "x.ppm"],
            "argument --res",
        ),
        (
            ["grid", "--seq", "fib", "--weight", "4", "--window=-1,1,-1,1", "--res", "5", "--out", "x.ppm"],
            "argument --res",
        ),
    ],
)
def test_out_of_range_and_removed_options_exit_64(capsys, args, message):
    code = main(args)
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert message in captured.err.splitlines()[-1]


# Argv fuzz: every input ends in a documented exit code, never a traceback;
# only `check` exits 1; and an error writes nothing to stdout and one line
# naming the program to stderr, after the usage text for a malformed
# option.  Each part is drawn valid three times in four, so that whole
# commands run too.  Pole indices stay within +-200 and scans within 5
# samples: a sequence table to the index cap holds about 400 MB.  A valid
# --weight or --k is sometimes drawn large enough (500-2000, 200-400) that
# terms, factors or rounding floors leave double range.  `grid` draws at
# most 2x2 pixels in windows of half-width 1e-150 to 1e-160 centred beside
# the pole at 0, guard off.  At weight 2 the value there is about z**-2: at
# a centre of modulus 6.4e-155 to 7.3e-155 on the bisector of an octant
# both parts of it are finite, and its modulus passes double range.
def _mostly(good, bad):
    return st.integers(0, 3).flatmap(lambda i: bad if i == 3 else good)


def _option(flag, good, bad):
    return st.one_of(st.just([]), _mostly(good, bad).map(lambda v: [f"{flag}={v}"]))


_COORD = _mostly(
    st.floats(-3, 3, allow_nan=False).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e300", "x", ""]),
)
_SELECTOR = _mostly(
    st.one_of(
        st.sampled_from(["fib", "lucas"]),
        st.builds(
            "lucas-{}:{}:{}".format,
            st.sampled_from(["first", "second"]),
            st.sampled_from([1, 2, 3, -1, -2, 0]),
            st.sampled_from([-1, -1, 2, -2, 1, 3, 0]),
        ),
    ),
    st.sampled_from(["lucas-third:1:-1", "lucas-first:1", "bogus", ""]),
).map(lambda sel: [f"--seq={sel}"])
_UNCERTIFIED = st.sampled_from([[], ["--uncertified"]])
_VARIANT = _option("--variant", st.just("standard"), st.sampled_from(["footnote", "other"]))


def _argv(command, *parts):
    return st.tuples(*parts).map(lambda ps: [command] + [a for p in ps for a in p])


def _tiny_window(half, radius, octant):
    angle = (2 * octant + 1) * math.pi / 8
    x, y = radius * math.cos(angle), radius * math.sin(angle)
    return f"{x - half!r},{x + half!r},{y - half!r},{y + half!r}"


_TINY_WINDOW = _mostly(
    st.builds(
        _tiny_window, st.integers(150, 160).map(lambda e: 10.0**-e), st.floats(6.4e-155, 7.3e-155), st.integers(0, 7)
    ),
    st.sampled_from(["1e-155,1e-156,0,1e-155", "nan,1,0,1", "0,1e-155,0", "x"]),
).map(lambda w: [f"--window={w}"])


_ARGV = st.one_of(
    _argv(
        "eval",
        _SELECTOR,
        _mostly(_mostly(st.integers(2, 8), st.integers(500, 2000)), st.integers(-1, 1)).map(
            lambda w: ["--weight", str(w)]
        ),
        _mostly(st.builds("{},{}".format, _COORD, _COORD), _COORD).map(lambda z: [f"--z={z}"]),
        _option("--guard-eps", st.sampled_from(["0", "1e-3"]), st.sampled_from(["nan", "-1", "inf", "x"])),
        _VARIANT,
        _UNCERTIFIED,
    ),
    _argv(
        "check",
        _SELECTOR,
        _mostly(st.sampled_from(["inversion", "mirror"]), st.just("other")).map(lambda i: ["--identity", i]),
        _mostly(_mostly(st.integers(1, 3), st.integers(200, 400)), st.integers(-1, 0)).map(
            lambda k: ["--k", str(k)]
        ),
        _mostly(st.integers(1, 5), st.integers(-1, 0)).map(lambda n: ["--samples", str(n)]),
        _option("--mirror-a", st.integers(-3, 3), st.just("x")),
        _VARIANT,
        st.sampled_from([[], [], [], ["--uncertified"]]),
    ),
    _argv(
        "poles",
        _SELECTOR,
        st.integers(-200, 200).map(lambda n: [f"--nmin={n}"]),
        st.integers(-200, 200).map(lambda n: [f"--nmax={n}"]),
        _UNCERTIFIED,
        st.sampled_from([[], [], [], ["--variant=standard"]]),
    ),
    _argv(
        "matrix",
        st.one_of(
            st.just(["--verify"]),
            _mostly(st.integers(-5, INDEX_CAP + 5), st.sampled_from(["x", "1.5"])).map(
                lambda n: [f"--fib-power={n}"]
            ),
        ),
    ),
    _argv(
        "grid",
        st.one_of(st.just(["--seq=fib"]), _SELECTOR),
        _mostly(st.just(2), st.sampled_from([3, 4, 1, "x"])).map(lambda w: [f"--weight={w}"]),
        _TINY_WINDOW,
        _mostly(st.sampled_from(["1x1", "1x2", "2x1", "2x2"]), st.sampled_from(["0x1", "2", "x"])).map(
            lambda r: ["--res", r]
        ),
        # Each .ppm name is placed in a fresh temporary directory.
        _mostly(st.just("x.ppm"), st.just("missing/x.ppm")).map(lambda out: ["--out", out]),
        st.just(["--guard-eps=0"]),
        _VARIANT,
        _UNCERTIFIED,
    ),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_ARGV)
def test_argv_fuzz_documented_exits(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([os.path.join(tmp, a) if a.endswith(".ppm") else a for a in argv])
    assert code in {0, 1, 2, 3, 64, 74}, argv
    assert "Traceback" not in err.getvalue()
    lines = err.getvalue().splitlines()
    if code in {0, 1}:
        assert lines == [] and (code == 0 or argv[0] == "check"), argv
    else:
        assert out.getvalue() == "", argv
        assert [i for i, line in enumerate(lines) if re.match(r"semimodular( \w+)?: ", line)] == [len(lines) - 1], argv
        if len(lines) > 1:
            assert code == 64 and lines[0].startswith("usage: "), argv


# Runs in a fresh interpreter without site hooks (they can preload
# modules such as typing): records the modules already loaded, imports the
# CLI and runs every subcommand, then prints the exit codes, the top-level
# modules loaded since, and which of three heavy modules are loaded at all.
_IMPORT_PROBE = r"""
import contextlib, io, json, os, sys, tempfile
before = set(sys.modules)
from semimodular import cli
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in (
        ["eval", "--seq", "fib", "--weight", "4", "--z", "0.3,0.7"],
        ["check", "--identity", "inversion", "--seq", "fib", "--k", "2", "--samples", "5"],
        ["poles", "--seq", "fib", "--nmin", "-3", "--nmax", "5"],
        ["matrix", "--verify"],
        ["grid", "--seq", "fib", "--weight", "4", "--window=-2,2,-2,2", "--res", "4x4",
         "--out", os.path.join(tmp, "grid.ppm")],
    )]
loaded = sorted({name.partition(".")[0] for name in set(sys.modules) - before})
heavy = [name for name in ("dataclasses", "typing", "inspect") if name in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded, "heavy": heavy}))
"""


def test_runtime_imports_only_the_standard_library():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_PROBE],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert "semimodular" in result["loaded"]
    foreign = [m for m in result["loaded"] if m != "semimodular" and m not in sys.stdlib_module_names]
    assert foreign == []
    assert result["heavy"] == []
