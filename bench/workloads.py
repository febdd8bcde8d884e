"""The requests of one round of each workload, made from the benchmark seed.

A round is the same list of requests for every round of a run, so every
round does the same work and per-round counts repeat exactly.  Only the
seed changes the inputs.  Requests are plain JSON data (argv lists, spec
tuples, points as [re, im]), so the timed worker reads them without
importing the reference code; run.py builds them once per run.
"""

from __future__ import annotations

import math
import random

from reference import RefSeries, distance_to, parse_selector, ref_seq

OUT_DIR = "bench/out"

# --- raster -----------------------------------------------------------------

RASTER_RES = 17  # odd, so the centre pixel sits on the window centre
RASTER_TOL = "1e-8"
# Frames of the documented kind: the top-level README's [-2,2]^2 window at the
# size ROADMAP profiles (64x64).  Larger frames are left out: a 128x128 frame
# runs for 1.6-2.8 s, longer than the speed swings the calibration corrects.
RASTER_LARGE = (
    ("fib", 4, "standard", 64),
    ("lucas", 6, "standard", 64),
    ("lucas-first:3:-1", 2, "standard", 64),
)
RASTER_LARGE_WINDOW = (-2.0, 2.0, -2.0, 2.0)
RASTER_LARGE_CHECKED_PIXELS = 16
RASTER_SPECS = (
    ("fib", 4, "standard"),
    ("lucas", 6, "standard"),
    ("lucas-first:3:-1", 2, "standard"),
    ("lucas-second:-2:-1", 4, "standard"),
    ("fib", 4, "footnote"),
    ("fib", 8, "standard"),
    ("lucas-first:2:-1", 6, "standard"),
)
RASTER_FRAMES_PER_SPEC = 6
RASTER_HALF_WIDTHS = (1.5, 1.75, 2.0, 2.25, 2.5)
RASTER_CHECKED_PIXELS = 4  # seeded pixels per frame compared with the reference colour


def _frame(frames, rng, selector, weight, variant, window, res, checked) -> dict:
    out = f"{OUT_DIR}/frame-{len(frames)}.ppm"
    argv = [
        "grid", "--seq", selector, "--weight", str(weight), "--variant", variant,
        "--window=" + ",".join(repr(x) for x in window),
        "--res", f"{res}x{res}", "--tol", RASTER_TOL, "--out", out,
    ]
    pixels = [(rng.randrange(res), rng.randrange(res)) for _ in range(checked)]
    return {"kind": "grid", "id": len(frames), "argv": argv, "selector": selector, "weight": weight,
            "footnote": variant == "footnote", "window": window, "res": res, "out": out,
            "pixels": pixels, "repeat_of": None}


def raster_round(seed: int) -> list[dict]:
    """RASTER_FRAMES_PER_SPEC small frames per spec, each centred on a seeded
    pole so its centre pixel is guarded, the first small frame again
    (repeated frames must be byte-identical), and the RASTER_LARGE frames
    over [-2,2]^2, all in seeded order."""
    rng = random.Random(seed)
    frames = []
    for selector, weight, variant in RASTER_SPECS:
        series = RefSeries(parse_selector(selector), weight, variant == "footnote")
        for _ in range(RASTER_FRAMES_PER_SPEC):
            centre = float(rng.choice([p for p in series.poles(8) if abs(p) <= 2]))
            h = rng.choice(RASTER_HALF_WIDTHS)
            window = (centre - h, centre + h, -h, h)
            frames.append(_frame(frames, rng, selector, weight, variant, window, RASTER_RES, RASTER_CHECKED_PIXELS))
    for selector, weight, variant, res in RASTER_LARGE:
        frames.append(_frame(frames, rng, selector, weight, variant, RASTER_LARGE_WINDOW, res,
                             RASTER_LARGE_CHECKED_PIXELS))
    first = frames[rng.randrange(len(RASTER_SPECS) * RASTER_FRAMES_PER_SPEC)]
    frames.append(dict(first, id=len(frames), repeat_of=first["id"]))
    rng.shuffle(frames)
    return frames


# --- verify -----------------------------------------------------------------

CHECK_SEQS = ("fib", "lucas", "lucas-first:3:-1", "lucas-second:-2:-1")
CHECK_SAMPLES = 100
CHECK_TOL = "1e-12"
POLE_SEQS = ("fib", "lucas", "lucas-first:3:-1", "lucas-first:2:3", "lucas-second:-3:2")


def verify_round(seed: int) -> list[dict]:
    """The paper's claims as a user checks them: identity scans at weights
    2, 4, 6, the footnote variant, the mismatched-mirror negative control,
    exact pole maps (one b != -1 sequence with rational values) and the
    matrix identities.  The seed picks the annulus seeds, pole ranges and
    matrix powers."""
    rng = random.Random(seed)
    reqs = []

    def check(selector, identity, k, variant="standard", mirror_a=None):
        argv = ["check", "--identity", identity, "--seq", selector, "--k", str(k),
                "--variant", variant, "--samples", str(CHECK_SAMPLES),
                "--seed", str(rng.randrange(1, 10**6)), "--tol", CHECK_TOL]
        if mirror_a is not None:
            argv += ["--mirror-a", str(mirror_a)]
        reqs.append({"kind": "check", "argv": argv, "negative": mirror_a is not None})

    for selector in CHECK_SEQS:
        for identity in ("inversion", "mirror"):
            for k in (1, 2, 3):
                check(selector, identity, k)
    for k in (1, 2):
        check("fib", "inversion", k, variant="footnote")
        check("fib", "mirror", k, variant="footnote")
    check("fib", "mirror", 1, mirror_a=2)
    check("lucas", "mirror", 2, mirror_a=3)
    for selector in POLE_SEQS:
        seq = parse_selector(selector)
        for _ in range(2):
            nmin, nmax = -rng.randrange(10, 40), rng.randrange(10, 40)
            argv = ["poles", "--seq", selector, "--nmin", str(nmin), "--nmax", str(nmax)]
            if seq.b != -1:
                argv.append("--uncertified")
            reqs.append({"kind": "poles", "argv": argv, "selector": selector, "range": (nmin, nmax)})
    reqs.append({"kind": "matrix-verify", "argv": ["matrix", "--verify"]})
    for _ in range(3):
        n = rng.randrange(50, 600)
        reqs.append({"kind": "fib-power", "argv": ["matrix", "--fib-power", str(n)], "n": n})
    rng.shuffle(reqs)
    return reqs


# --- points -----------------------------------------------------------------

POINTS_PER_SPEC = 4
POINT_WEIGHTS = range(2, 13)
POINT_TOL_EXP = (-13.0, -8.0)
HALVES_SHARE = 0.25
# Points are kept at least this far from every reference pole, five times the
# program's default guard, so no point is rejected.
POINT_CLEARANCE = 5e-6


def point_specs() -> list[tuple[int, int, bool, int, bool]]:
    """(a, b, second kind, weight, footnote) for every spec the workload visits."""
    specs = []
    for a in [s * v for v in range(1, 7) for s in (1, -1)]:
        for second in (False, True):
            specs += [(a, -1, second, w, False) for w in POINT_WEIGHTS]
            if abs(a) >= 3:  # b = +1 grows (heuristic tails) only for |a| > 2
                specs += [(a, 1, second, w, False) for w in POINT_WEIGHTS]
    specs += [(1, -1, False, w, True) for w in POINT_WEIGHTS]
    return specs


def _point(rng: random.Random, series: RefSeries, singular: list[float]) -> complex:
    """Seeded annulus (60%), 1e-5 off a pole (20%) or near an accumulation point (20%)."""
    while True:
        u = rng.random()
        theta = rng.uniform(0.0, 2.0 * math.pi)
        if u < 0.6:
            r = math.sqrt(rng.uniform(0.2**2, 5.0**2))
            z = complex(r * math.cos(theta), r * math.sin(theta))
        elif u < 0.8:
            pole = float(rng.choice(series.poles(6)))
            z = complex(pole + 1e-5 * math.cos(theta), 1e-5 * math.sin(theta))
        else:
            point = rng.choice(series.seq.roots())
            d = 10 ** rng.uniform(-4.0, -2.0)
            z = complex(point + d * math.cos(theta), d * math.sin(theta))
        if distance_to(singular, z) >= POINT_CLEARANCE:
            return z


def points_round(seed: int) -> list[dict]:
    """Every spec once in seeded order, with POINTS_PER_SPEC consecutive points
    each, so one request in POINTS_PER_SPEC is the first for its spec.
    Points are [re, im]."""
    rng = random.Random(seed)
    specs = point_specs()
    rng.shuffle(specs)
    reqs = []
    singular_by_seq = {}
    for a, b, second, weight, footnote in specs:
        series = RefSeries(ref_seq(a, b, second), weight, footnote)
        key = (a, b, second, footnote)
        if key not in singular_by_seq:
            singular_by_seq[key] = series.singular_points()
        singular = singular_by_seq[key]
        for _ in range(POINTS_PER_SPEC):
            z = _point(rng, series, singular)
            reqs.append({
                "kind": "point",
                "spec": (a, b, second, weight, footnote),
                "z": [z.real, z.imag],
                "tol": 10 ** rng.uniform(*POINT_TOL_EXP),
                "halves": rng.random() < HALVES_SHARE,
            })
    return reqs


ROUNDS = {"raster": raster_round, "verify": verify_round, "points": points_round}

# Requests run before the timed ones, as part of the set-up.  raster and
# verify warm every spec they use; points warms a = 7 specs, which it does not
# use, so its specs stay cold as they are for a one-shot `eval`.
WARMUP = {
    "raster": [
        {"kind": "warmup", "argv": ["grid", "--seq", sel, "--weight", str(w), "--variant", var,
                                    "--window=-2,2,-2,2", "--res", "9x9", "--tol", RASTER_TOL,
                                    "--out", f"{OUT_DIR}/warmup.ppm"]}
        for sel, w, var in RASTER_SPECS
    ],
    "verify": [
        {"kind": "warmup", "argv": ["check", "--identity", "inversion", "--seq", sel, "--samples", "3",
                                    "--tol", CHECK_TOL]}
        for sel in CHECK_SEQS
    ] + [{"kind": "warmup", "argv": ["matrix", "--verify"]}],
    "points": [
        {"kind": "point", "spec": (7, b, False, 2, False), "z": [0.3, 0.7], "tol": 1e-10, "halves": halves}
        for b in (-1, 1) for halves in (False, True)
    ],
}
