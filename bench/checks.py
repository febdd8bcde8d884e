"""Checks of round 0's outputs against the reference computations.

run.py calls check_round after the rounds, in its own process, so the
reference code (mpmath, exact Fraction tables) never loads into the timed
worker.  Outputs are as worker.py writes them: for CLI requests
{"rc", "out", "data"} with the PPM bytes base64-encoded, for points the
list of evaluate results as {"value": [re, im], "tail_bound", "j_min",
"j_max", "certified"}, and None for an operation that raised.
"""

from __future__ import annotations

import base64
import json
import math

import reference as ref
import workloads

GUARD_EPS = 1e-6  # the top-level README's default pole guard


def check_grid(req, result, frames):
    errs = []
    lines = [json.loads(x) for x in result["out"].splitlines()]
    res = req["res"]
    if result["rc"] != 0 or lines != [{"schema": 1, "command": "grid", "out": req["out"], "width": res, "height": res}]:
        errs.append(f"grid exit {result['rc']} / record {lines}")
    data = base64.b64decode(result["data"]) if result["data"] is not None else b""
    frames[req["id"]] = data
    header = b"P6\n%d %d\n255\n" % (res, res)
    if not data.startswith(header) or len(data) != len(header) + 3 * res * res:
        return errs + [f"{req['argv']}: bad PPM header or length {len(data)}"]
    series_ref = ref.RefSeries(ref.parse_selector(req["selector"]), req["weight"], req["footnote"])
    window = req["window"]
    singular = series_ref.singular_points()
    px = data[len(header):]

    def pixel(i, j):
        k = 3 * (j * res + i)
        return tuple(px[k:k + 3])

    def colour_error(i, j, z):
        want = ref.documented_colour(ref.full_reference(series_ref, z, 1e-12))
        got = pixel(i, j)
        if max(abs(x - y) for x, y in zip(want, got)) > 1:
            errs.append(f"pixel ({i},{j}) at {z}: colour {got}, reference {want}")

    # Black pixels: inside the guard of a reference pole or accumulation point
    # (all of them are real), or so dark that the documented colour is black.
    for j in range(res):
        for i in range(res):
            z = ref.pixel_point(window, res, res, i, j)
            guarded = abs(z.imag) < GUARD_EPS and ref.distance_to(singular, z) < GUARD_EPS
            if guarded and pixel(i, j) != (0, 0, 0):
                errs.append(f"pixel at {z} lies within the guard but is not black")
            elif pixel(i, j) == (0, 0, 0) and not guarded:
                colour_error(i, j, z)
    for i, j in req["pixels"]:
        z = ref.pixel_point(window, res, res, i, j)
        if ref.distance_to(singular, z) >= GUARD_EPS:
            colour_error(i, j, z)
    return errs


def check_scan(req, result):
    argv = req["argv"]
    lines = [json.loads(x) for x in result["out"].splitlines()]
    n = workloads.CHECK_SAMPLES
    if len(lines) != n + 1 or any(rec.get("schema") != 1 for rec in lines):
        return [f"{argv}: exit {result['rc']}, {len(lines)} records, expected {n + 1} with schema 1"]
    samples, summary = lines[:-1], lines[-1]
    errs = []
    if [s.get("type") for s in samples] != ["sample"] * n or [s["index"] for s in samples] != list(range(n)):
        errs.append(f"{argv}: sample records out of order")
    if summary.get("type") != "summary" or summary["samples"] != n or summary["seed"] != int(argv[argv.index("--seed") + 1]):
        errs.append(f"{argv}: bad summary {summary}")
    if summary["max_residual"] != max(s["residual"] for s in samples):
        errs.append(f"{argv}: max_residual is not the largest sample residual")
    for s in samples:
        # The scan samples the annulus 0.2 <= |z| <= 5.
        if not 0.2 - 1e-12 <= abs(complex(s["z_re"], s["z_im"])) <= 5.0 + 1e-12:
            errs.append(f"{argv}: sample {s['index']} outside the annulus")
        if s["ok"] != (s["residual"] <= s["tolerance"]):
            errs.append(f"{argv}: sample {s['index']} ok flag disagrees with residual/tolerance")
    failing = sum(1 for s in samples if not s["ok"])
    if req["negative"]:
        if result["rc"] != 1 or summary["pass"] or failing < 0.9 * n:
            errs.append(f"{argv}: negative control exit {result['rc']}, {failing}/{n} samples failing")
    elif result["rc"] != 0 or not summary["pass"] or failing:
        errs.append(f"{argv}: matched check exit {result['rc']}, {failing}/{n} samples failing")
    return errs


def check_poles(req, result):
    seq, (nmin, nmax) = ref.parse_selector(req["selector"]), req["range"]
    lines = [json.loads(x) for x in result["out"].splitlines()]
    want = sorted({seq(n) / seq(n - 1) for n in range(nmin, nmax + 1) if seq(n - 1) != 0})
    got = [(r["numerator"], r["denominator"]) for r in lines[:-1] if r.get("type") == "pole"]
    errs = []
    if result["rc"] != 0 or got != [(p.numerator, p.denominator) for p in want]:
        errs.append(f"{req['argv']}: exit {result['rc']}, pole ratios differ from the reference")
    acc = lines[-1] if lines else {}
    want_acc = list(seq.roots()) if seq.b == -1 else []
    if acc.get("type") != "accumulation" or len(acc["points"]) != len(want_acc) or any(
        abs(x - y) > 4 * ref.U * abs(y) for x, y in zip(acc["points"], want_acc)
    ):
        errs.append(f"{req['argv']}: accumulation points {acc} differ from {want_acc}")
    return errs


def check_matrix(req, result):
    lines = [json.loads(x) for x in result["out"].splitlines()]
    if req["kind"] == "fib-power":
        n, f = req["n"], ref.fibonacci
        want = {"schema": 1, "type": "fib-power", "n": n, "p": f(n + 1), "q": f(n), "r": f(n), "s": f(n - 1)}
        return [] if result["rc"] == 0 and lines == [want] else [f"{req['argv']}: exit {result['rc']}, {lines} differs from {want}"]
    if result["rc"] != 0 or not lines or not all(r.get("holds") is True for r in lines):
        return [f"matrix --verify: exit {result['rc']}, records {lines}"]
    return []


def check_point(req, parts):
    a, b, second, weight, footnote = req["spec"]
    z, tol = complex(*req["z"]), req["tol"]
    series_ref = ref.RefSeries(ref.ref_seq(a, b, second), weight, footnote)
    values = [complex(*p["value"]) for p in parts]
    errs = []
    for p, value in zip(parts, values):
        if p["certified"] != (b == -1) or not p["tail_bound"] <= tol or not math.isfinite(abs(value)):
            errs.append(f"{req['spec']} z={z}: certified={p['certified']}, tail_bound={p['tail_bound']} (tol {tol})")
    J = parts[-1]["j_max"]
    windows = [(p["j_min"], p["j_max"]) for p in parts]
    if windows != ([(-J, 0), (1, J)] if req["halves"] else [(-J, J)]):
        errs.append(f"{req['spec']} z={z}: windows {windows}")
    accuracy = max(1e-300, 1e-3 * (sum(p["tail_bound"] for p in parts) + ref.U * abs(values[0])))
    minus, am = ref.half_reference(series_ref, z, "minus", J, accuracy)
    plus, ap = ref.half_reference(series_ref, z, "plus", J, accuracy)
    if req["halves"]:
        pairs = [(parts[0], values[0], minus, am), (parts[1], values[1], plus, ap)]
    else:
        pairs = [(parts[0], values[0], minus + plus, am + ap + ref.U * abs(values[0]))]
    for p, value, want, allowance in pairs:
        err = float(abs(want - value))
        if not err <= p["tail_bound"] + allowance:
            errs.append(f"{req['spec']} z={z} tol={tol}: error {err:.3e} > tail_bound {p['tail_bound']:.3e}"
                        f" + rounding allowance {allowance:.3e}")
    return errs


CHECKS = {"check": check_scan, "poles": check_poles,
          "matrix-verify": check_matrix, "fib-power": check_matrix, "point": check_point}


def check_round(reqs, outputs) -> list[str]:
    """Errors found in one round's outputs; an operation that raised (None) is
    counted in `failed` by the worker and not checked here."""
    errs = []
    frames = {}
    for req, result in zip(reqs, outputs):
        if result is None:
            continue
        try:
            if req["kind"] == "grid":
                errs += check_grid(req, result, frames)
            else:
                errs += CHECKS[req["kind"]](req, result)
        except (ValueError, KeyError, TypeError, IndexError) as exc:  # malformed output
            errs.append(f"{req.get('argv') or req['spec']}: output could not be read: {type(exc).__name__}: {exc}")
    for req in reqs:
        if req["kind"] == "grid" and req["repeat_of"] is not None:
            if req["id"] in frames and frames.get(req["id"]) != frames.get(req["repeat_of"]):
                errs.append(f"{req['argv']}: repeated frame is not byte-identical")
    return errs
