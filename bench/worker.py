"""One round of a workload in a fresh interpreter: set-up, then timed requests.

    python3 bench/worker.py REQUESTS_JSON ROUND TRACE OUTPUTS_JSON TRACE_TSV

Run from the repository root (run.py does this).  Prints one JSON object.
REQUESTS_JSON holds the workload's name, its warm-up requests and its
requests as plain data (see workloads.py).  Set-up time starts just before
the program is imported, so interpreter boot and `site` are not in it, and
it counts only the program: importing `semimodular` and `semimodular.cli`,
and the warm-up requests.  The process loads nothing but the program, the
standard library and the benchmark's stdlib-only calibration (and, with
TRACE 1, spans) modules, so its peak resident set is the program's.  Round 0
writes every output to OUTPUTS_JSON, where run.py checks it against the
reference computations, and with TRACE 1 its spans to TRACE_TSV.
"""

import base64
import hashlib
import io
import json
import os
import resource
import sys
import time

import calibration  # imports nothing of the program

with open(sys.argv[1]) as _fh:
    PLAN = json.load(_fh)

# Calibration samples right before and after the set-up measure the machine's
# speed at the moment the set-up ran.
_SETUP_CALIBRATION = [calibration.timed() for _ in range(10)]
_T0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import semimodular.cli as cli  # noqa: E402
from semimodular import lucas, series  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0

# A calibration sample follows every CALIBRATE_EVERY_S of request time (and
# the last request), so the samples see the same machine states as the requests.
CALIBRATE_EVERY_S = 2e-3


def run_cli(argv):
    """cli.main with stdout captured: (exit code, stdout text)."""
    buf = io.StringIO()
    saved, sys.stdout = sys.stdout, buf
    try:
        rc = cli.main(argv)
    finally:
        sys.stdout = saved
    return rc, buf.getvalue()


def seq_spec(a, b, second):
    return lucas.SequenceSpec(a, b, lucas.Kind.SECOND if second else lucas.Kind.FIRST)


# --- requests -----------------------------------------------------------------


def do_cli(req):
    rc, out = run_cli(req["argv"])
    return {"rc": rc, "out": out}


def do_point(req):
    a, b, second, weight, footnote = req["spec"]
    variant = series.Variant.FOOTNOTE if footnote else series.Variant.STANDARD
    spec = series.SeriesSpec(seq_spec(a, b, second), weight, variant)
    z = complex(*req["z"])
    if req["halves"]:
        return series.evaluate_halves(spec, z, req["tol"])
    return series.evaluate(spec, z, req["tol"])


def output(req, result):
    """The request's output as plain JSON data (after its timing)."""
    if req["kind"] == "point":
        parts = result if req["halves"] else (result,)
        return [{"value": [p.value.real, p.value.imag], "tail_bound": p.tail_bound,
                 "j_min": p.j_min, "j_max": p.j_max, "certified": p.certified} for p in parts]
    result["data"] = None
    if req["kind"] == "grid" and os.path.isfile(req["out"]):
        with open(req["out"], "rb") as fh:
            result["data"] = base64.b64encode(fh.read()).decode()
    return result


def items(req, out) -> int:
    if req["kind"] == "grid":
        return req["res"] * req["res"]
    if req["kind"] == "point":
        return 1
    return len(out["out"].splitlines())


# --- the round ------------------------------------------------------------------------


def main():
    round_no, trace, outputs_path, trace_path = int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4], sys.argv[5]
    do = do_point if PLAN["workload"] == "points" else do_cli
    t = time.perf_counter()
    for req in PLAN["warmup"]:
        result = do(req)
        if req["kind"] == "warmup" and result["rc"] != 0:
            raise RuntimeError(f"warm-up request {req['argv']} exited {result['rc']}")
    setup_s = _IMPORT_S + time.perf_counter() - t
    _SETUP_CALIBRATION.extend(calibration.timed() for _ in range(10))

    reqs = PLAN["requests"]
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    latencies, outputs, failures = [], [], []
    digest = hashlib.sha256()
    n_items = 0
    output_bytes = 0
    calibrations = [calibration.timed() for _ in range(10)]
    positions = []  # per request: how many calibration samples preceded it
    since_calibration = 0.0
    clock = time.perf_counter
    for req in reqs:
        if since_calibration >= CALIBRATE_EVERY_S:
            calibrations.append(calibration.timed())
            since_calibration = 0.0
        positions.append(len(calibrations))
        t = clock()
        try:
            result = do(req)
        except Exception as exc:  # a failed operation is counted, not fatal
            latencies.append(clock() - t)
            failures.append(f"{req.get('argv') or (req['spec'], req['z'], req['tol'])}: {type(exc).__name__}: {exc}")
            out = None
        else:
            latencies.append(clock() - t)
            # An unexpected exit code is not a failed operation: its output
            # goes to the checks, which test the exit code.
            out = output(req, result)
            n_items += items(req, out)
            if req["kind"] != "point":
                output_bytes += len(out["out"].encode())
        since_calibration += latencies[-1]
        digest.update(json.dumps(out).encode())
        if round_no == 0:
            outputs.append(out)
    calibrations.append(calibration.timed())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "setup_s": setup_s,
        "calibration_s": min(calibrations),
        "calibrations": calibrations,
        "positions": positions,
        "setup_calibration_s": min(_SETUP_CALIBRATION),
        "latencies": latencies,
        "items": n_items,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(reqs),
        "failed": len(failures),
        "failures": failures[:5],
        "digest": digest.hexdigest(),
    }
    if tracer:
        tracer.uninstall()
        tracer.counts["cli.output_bytes"] += output_bytes
        record["layers"] = tracer.metrics()
        if round_no == 0:  # later rounds repeat the same calls
            tracer.dump(trace_path)
    if round_no == 0:
        with open(outputs_path, "w") as fh:
            json.dump(outputs, fh)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
