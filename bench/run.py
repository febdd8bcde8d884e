"""Benchmark command for semimodular.

    python3 bench/run.py --workload {raster,verify,points} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The run builds the workload's requests
from the seed once (workloads.py) and writes them as plain data to
bench/out.  A run is then a sequence of rounds; each round is one fresh
interpreter running bench/worker.py, which sets up the program and times
one round of the requests in-process, loading nothing of the benchmark's
reference code.  Every round repeats the same requests, and later rounds
must reproduce round 0's outputs exactly; after the rounds, this process
checks round 0's outputs against the reference computations (checks.py).
Rounds continue until the timed requests add up to S seconds, and at least
MIN_ROUNDS rounds have run.

Every time is measured against the calibration snippet of calibration.py,
run in the same interpreter: a request's time is divided by the fastest of
the calibration samples nearest to it, the set-up's by the fastest of the
samples taken around it, and both are multiplied by calibration.REFERENCE_S.  A
request then counts at the round where its scaled time is least; the
set-up, once per round, at its median over rounds.  The machine the bounds
were set on changes speed by up to 2.2x for seconds at a time, and a median
of plain times lands in whichever state prevailed (see README.md).

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics (per round) with --trace 1.  The line before it reports
the calibration snippet's fastest time before and after the rounds, and the
same statistics in plain seconds, to tell drift of the machine from a change
to the program.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import calibration
import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("raster", "verify", "points")
MIN_ROUNDS = 6
# A request is measured against the fastest of the calibration samples taken
# nearest to it: this many on each side.
NEAREST_SAMPLES = 6
ROUND_TIMEOUT_S = 120
WALL_LIMIT_S = 150


def calibrate() -> float:
    """Milliseconds for the calibration snippet, fastest of 200 runs."""
    return min(calibration.timed() for _ in range(200)) * 1e3


def run_round(paths: dict, round_no: int, trace: bool) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), paths["requests"], str(round_no), str(int(trace)),
         paths["outputs"], paths["trace"]],
        capture_output=True, text=True, timeout=ROUND_TIMEOUT_S, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"round {round_no} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail_percentile(n: int) -> int:
    """The highest whole percentile that keeps at least ten of n values beyond it."""
    return max(p for p in range(50, 100) if n - math.ceil(n * p / 100) >= 10)


def percentile(sorted_values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    return sorted_values[math.ceil(len(sorted_values) * p / 100) - 1]


def nearest_calibration(r: dict, i: int) -> float:
    """Fastest of the calibration samples nearest to request i of round r."""
    k = r["positions"][i]
    return min(r["calibrations"][max(0, k - NEAREST_SAMPLES):k + NEAREST_SAMPLES])


def end_to_end(rounds: list[dict], calibrated: bool = True) -> dict:
    """Each request counts at the round where its time is least; the set-up,
    once per round, at its median over rounds.  With `calibrated`, a request's
    time is first divided by the fastest of the calibration samples nearest to
    it, the set-up's by the fastest of the samples around it, and both are
    multiplied by calibration.REFERENCE_S."""
    ref = calibration.REFERENCE_S

    def scaled(r):
        if not calibrated:
            return r["latencies"]
        return [t / nearest_calibration(r, i) * ref for i, t in enumerate(r["latencies"])]

    lat = sorted(min(column) for column in zip(*(scaled(r) for r in rounds)))
    return {
        "setup_s": (statistics.median(
            r["setup_s"] / r["setup_calibration_s"] * ref if calibrated else r["setup_s"] for r in rounds), "s"),
        "throughput": (rounds[0]["items"] / sum(lat), "items/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (percentile(lat, tail_percentile(len(lat))) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def per_layer(rounds: list[dict]) -> dict:
    """Layer metrics per round.  Times are divided by the fastest calibration
    sample of their round, times calibration.REFERENCE_S, and count at the
    round where they are least; counts repeat exactly across rounds."""
    out = {}
    for name, (_, unit) in rounds[0]["layers"].items():
        values = [r["layers"][name][0] for r in rounds]
        if unit == "ms":
            value = min(v / r["calibration_s"] for v, r in zip(values, rounds)) * calibration.REFERENCE_S
        elif name == "symmetry.margin_min":
            value = min(values)
        else:
            value = statistics.median_low(values)
        out[name] = (value, unit)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "semimodular", "__init__.py")):
        print("bench/run.py: src/semimodular not found; run from the root of a semimodular checkout",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    out_dir = workloads.OUT_DIR
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    paths = {name: os.path.join(out_dir, f"{name}-{stem}.{ext}")
             for name, ext in (("requests", "json"), ("outputs", "json"), ("trace", "tsv"))}
    requests = workloads.ROUNDS[args.workload](args.seed)
    with open(paths["requests"], "w") as fh:
        json.dump({"workload": args.workload, "warmup": workloads.WARMUP[args.workload], "requests": requests}, fh)

    calibration_ms = [calibrate()]
    rounds: list[dict] = []
    busy = 0.0
    while (busy < args.seconds or len(rounds) < MIN_ROUNDS) and time.perf_counter() - start < WALL_LIMIT_S:
        rounds.append(run_round(paths, len(rounds), bool(args.trace)))
        busy += sum(rounds[-1]["latencies"])
    calibration_ms.append(calibrate())

    with open(paths["outputs"]) as fh:
        errors = checks.check_round(requests, json.load(fh))
    consistent = all(r["digest"] == rounds[0]["digest"] for r in rounds)
    if not consistent:
        errors.append("a later round's outputs differ from round 0's")
    failures = [f for r in rounds for f in r["failures"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    metrics = per_layer(rounds) if args.trace else end_to_end(rounds)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for e in (errors + failures)[:20]:
        print(f"bench: {e}", file=sys.stderr)
    unscaled = end_to_end(rounds, calibrated=False)
    info = {"calibration_ms": calibration_ms, "unscaled": {k: v for k, (v, _) in unscaled.items()},
            "rounds": len(rounds), "requests_per_round": len(rounds[0]["latencies"]),
            "tail_percentile": tail_percentile(len(rounds[0]["latencies"])), "timed_s": busy,
            "wall_s": time.perf_counter() - start, "python": sys.version.split()[0]}
    with open(os.path.join(out_dir, f"run-{stem}-trace{args.trace}.json"), "w") as fh:
        json.dump({"info": info, "result": result, "rounds": rounds}, fh)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
