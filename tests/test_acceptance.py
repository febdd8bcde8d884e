"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion is also a hard assertion.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from semimodular import (
    FIBONACCI,
    InversionS,
    Kind,
    LUCAS_NUMBERS,
    MirrorPa,
    PROOF_STEPS,
    SequenceSpec,
    SeriesSpec,
    Variant,
    check_identity,
    evaluate,
    fib_matrix_check,
    generator_identities,
    pole_distance,
    pole_map,
    proof_step,
)
from semimodular.cli import main as cli_main
from oracle import coeffs, omitted


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_inversion_and_mirror_suite():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for k in (1, 2, 3):
        spec = SeriesSpec(FIBONACCI, 2 * k)
        for kind in (InversionS(), MirrorPa(1)):
            rep = check_identity(spec, kind, n_samples=100, seed=100 + k)
            ok &= rep.passed
            worst = max(worst, rep.max_residual)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(1, "weight-2k inversion/mirror suite", ok, f"max residual {worst:.2e}, {elapsed:.2f}s")


def _admissible_points(rng: random.Random, seq: SequenceSpec, n: int) -> list[complex]:
    """n annulus points at which z, z + a, 1/z and -z keep 0.05 off the poles."""
    samples = []
    while len(samples) < n:
        r = math.sqrt(rng.uniform(0.2**2, 5.0**2))
        th = rng.uniform(0, 2 * math.pi)
        z = complex(r * math.cos(th), r * math.sin(th))
        if any(
            pole_distance(seq, w) < 0.05 for w in (z, z + seq.a, 1 / z, -z)
        ):
            continue
        samples.append(z)
    return samples


def test_criterion_02_half_sum_proof_steps():
    # The five intermediate manipulations: the two unilateral shifts, the
    # full shift, the unilateral negation swap (both directions), and the
    # full negation.  50 admissible samples each.
    groups = {
        "plus-shift": ("half-plus-shift",),
        "minus-shift": ("half-minus-shift",),
        "full-shift": ("full-shift",),
        "negate-swap": ("half-minus-negate", "half-plus-negate"),
        "full-negate": ("full-negate",),
    }
    samples = _admissible_points(random.Random(202), FIBONACCI, 50)
    ok = True
    worst = 0.0
    for gname, steps in groups.items():
        for step in steps:
            for z in samples:
                chk = proof_step(step, 2, z)
                ok &= chk.ok
                worst = max(worst, chk.residual)
    _report(2, "five half-sum proof steps x 50 samples", ok, f"max residual {worst:.2e}")


def test_criterion_03_lucas_numbers_suite():
    ok = True
    for k in (1, 2):
        spec = SeriesSpec(LUCAS_NUMBERS, 2 * k)
        ok &= check_identity(spec, InversionS(), n_samples=100, seed=300 + k).passed
        ok &= check_identity(spec, MirrorPa(1), n_samples=100, seed=300 + k).passed
    _report(3, "Lucas-number series suite", ok)


def test_criterion_04_general_a_suite_with_subsumption():
    ok = True
    rng = random.Random(404)
    for a in (1, 2, 3, -2):
        for kind in (Kind.FIRST, Kind.SECOND):
            seq = SequenceSpec(a, -1, kind)
            for k in (1, 2):
                spec = SeriesSpec(seq, 2 * k)
                ok &= check_identity(spec, InversionS(), n_samples=50, seed=400 + a + k).passed
                ok &= check_identity(spec, MirrorPa(a), n_samples=50, seed=400 + a + k).passed
            # The six half-sum proof steps, with the shift by a, at 10
            # admissible points.
            for z in _admissible_points(rng, seq, 10):
                for step in PROOF_STEPS:
                    for k in (1, 2):
                        ok &= proof_step(step, k, z, seq=seq).ok
    # a = 1 subsumption: the first kind is the Fibonacci series and the
    # second kind the Lucas-number series, so identical seeds must give
    # identical reports (0 ulp apart).
    for kind, preset in ((Kind.FIRST, FIBONACCI), (Kind.SECOND, LUCAS_NUMBERS)):
        spec_a1 = SeriesSpec(SequenceSpec(1, -1, kind), 4)
        spec_preset = SeriesSpec(preset, 4)
        rep_a1 = check_identity(spec_a1, InversionS(), n_samples=50, seed=77)
        rep_preset = check_identity(spec_preset, InversionS(), n_samples=50, seed=77)
        ok &= rep_a1.residuals == rep_preset.residuals
        ok &= rep_a1.sample_points == rep_preset.sample_points
    _report(4, "general-a suite incl. proof steps and a=1 subsumption", ok)


def test_criterion_05_footnote_variant_suite():
    ok = True
    for k in (1, 2):
        spec = SeriesSpec(FIBONACCI, 2 * k, Variant.FOOTNOTE)
        ok &= check_identity(spec, InversionS(), n_samples=50, seed=500 + k).passed
        ok &= check_identity(spec, MirrorPa(1), n_samples=50, seed=500 + k).passed
    _report(5, "swapped-coefficient variant suite", ok)


def test_criterion_06_negative_control():
    rep = check_identity(
        SeriesSpec(FIBONACCI, 4), MirrorPa(2), n_samples=100, seed=600, force_pairing=True
    )
    ok = (not rep.passed) and rep.failure_fraction >= 0.9
    _report(6, "mismatched-mirror negative control", ok, f"failure fraction {rep.failure_fraction:.2f}")


def test_criterion_07_tail_bound_soundness():
    specs = []
    for a in (1, 2, 3, -2):
        for kind in (Kind.FIRST, Kind.SECOND):
            for weight in (2, 3, 4, 6):
                specs.append(SeriesSpec(SequenceSpec(a, -1, kind), weight))
    specs.append(SeriesSpec(FIBONACCI, 4, Variant.FOOTNOTE))
    specs.append(SeriesSpec(FIBONACCI, 5))
    rng = random.Random(700)
    checked = 0
    violations = 0
    while checked < 50:
        spec = specs[rng.randrange(len(specs))]
        r = math.sqrt(rng.uniform(0.2**2, 5.0**2))
        th = rng.uniform(0, 2 * math.pi)
        z = complex(r * math.cos(th), r * math.sin(th))
        if pole_distance(spec.seq, z) < 0.05:
            continue
        res = evaluate(spec, z, 1e-9)
        if res.j_max + 20 > 480:
            continue
        if omitted(spec, z, res.j_max, 20) > res.tail_bound:
            violations += 1
        checked += 1
    _report(7, "tail-bound soundness, 50 random certified points", violations == 0, f"{violations} violations")


def test_criterion_08_pole_map_exactness():
    ok = True
    for seq in (FIBONACCI, LUCAS_NUMBERS):
        pm = pole_map(seq, -20, 20)
        spec = SeriesSpec(seq, 2)
        for p in pm.poles:
            ok &= any(
                coeffs(spec, j)[0] * p + coeffs(spec, j)[1] == 0
                for j in range(-25, 26)
            )
    expected = sorted(
        [
            Fraction(-2, 3),
            Fraction(-1, 2),
            Fraction(-1),
            Fraction(0),
            Fraction(1),
            Fraction(2),
            Fraction(3, 2),
            Fraction(5, 3),
        ]
    )
    ok &= list(pole_map(FIBONACCI, -3, 5).poles) == expected
    _report(8, "pole map exactness and the eight Fibonacci poles", ok)


def test_criterion_09_odd_weight_does_not_vanish():
    res = evaluate(SeriesSpec(FIBONACCI, 3), 0.3 + 0.7j, 1e-10)
    ok = abs(res.value) > 10 * res.tail_bound
    _report(9, "odd-weight non-vanishing", ok, f"|value| {abs(res.value):.3f} vs tail {res.tail_bound:.1e}")


def test_criterion_10_matrix_suite():
    names = dict(generator_identities())
    ok = all(names.values())
    ok &= names.get("U = PTS", False)
    ok &= names.get("V = SPTS^3", False)
    ok &= all(names.get(f"P_{a} T^{a} = PT", False) for a in range(-3, 4))
    ok &= all(fib_matrix_check(n) for n in range(1, 51))
    _report(10, "generator and Fibonacci-matrix identities, exact", ok)


def test_criterion_11_byte_determinism(tmp_path, capsys):
    args = ["eval", "--seq", "fib", "--weight", "4", "--z", "0.3,0.7", "--tol", "1e-12"]
    assert cli_main(args) == 0
    out1 = capsys.readouterr().out
    assert cli_main(args) == 0
    out2 = capsys.readouterr().out
    ok = out1 == out2 and out1 != ""

    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    base = ["grid", "--seq", "fib", "--weight", "4", "--window=-2,2,-2,2", "--res", "64x64"]
    assert cli_main(base + ["--out", str(p1)]) == 0
    assert cli_main(base + ["--out", str(p2)]) == 0
    capsys.readouterr()
    ok &= p1.read_bytes() == p2.read_bytes()
    ok &= p1.read_bytes().startswith(b"P6\n64 64\n255\n")
    with capsys.disabled():
        _report(11, "byte-identical eval and 64x64 grid runs", ok)
