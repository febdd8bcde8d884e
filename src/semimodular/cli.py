"""Command-line surface: eval, check, poles, matrix, grid.

Every subcommand writes json-lines records (schema field "schema": 1) to
stdout and diagnostics to stderr.  Each record is written as it is made (a
`check` writes all of its records at once), and every subcommand raises
before its first record, so a run that fails writes none.  Identical inputs
produce byte-identical output.  Exit codes: 0 success, 1 failed identity
check, 2 pole proximity, 3 tolerance unreachable (also a term, automorphy
factor or rounding floor past double range, or a sequence parameter too
large for double arithmetic), 64 usage (a bad option value, or any other
package error), 74 output I/O failure.  Every error writes a one-line
message to stderr, after the usage text when an option is malformed.
`matrix --fib-power N` takes 1 <= N <= 20576: larger powers have entries
too long to print; `poles` exits 64 where a pole's entries are too long to
print (fib from `--nmax 20578` on).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from .errors import PoleProximity, SemimodularError, ToleranceUnreachable, UncertifiedOnly
from .gl2 import fib_matrix_check, generator_identities, P, S
from .lucas import FIBONACCI, INDEX_CAP, LUCAS_NUMBERS, Kind, SequenceSpec, is_certified_spec
from .series import (
    GUARD_EPS,
    SeriesSpec,
    Variant,
    _accumulation_points,
    _pole_pairs,
    evaluate,
)
from .symmetry import InversionS, MirrorPa, check_identity

SCHEMA = 1
EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_POLE = 2
EXIT_TOL = 3
EXIT_USAGE = 64
EXIT_IO = 74

_SEQ_GRAMMAR = re.compile(r"lucas-(first|second):(-?\d+):(-?\d+)$")

# (PS)^N holds F(N+1), and F(20578) has 4301 digits, one past CPython's
# default limit on int-to-str conversion, so no larger power can be printed.
FIB_POWER_CAP = 20_576


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code this tool documents."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(args, record: dict, human: str, lead: str = "") -> None:
    """Write one output line after the already formatted lines `lead`, in
    one write; a subcommand calls this once nothing can fail."""
    if args.format == "human":
        line = human
    else:
        line = json.dumps({"schema": SCHEMA, **record}, separators=(",", ":"), allow_nan=False)
    sys.stdout.write(f"{lead}{line}\n")


def _seq(text: str) -> SequenceSpec:
    if text == "fib":
        return FIBONACCI
    if text == "lucas":
        return LUCAS_NUMBERS
    m = _SEQ_GRAMMAR.match(text)
    if m is None:
        raise argparse.ArgumentTypeError(f"bad sequence selector {text!r} (use fib, lucas, lucas-first:a:b, lucas-second:a:b)")
    try:
        return SequenceSpec(int(m.group(2)), int(m.group(3)), Kind(m.group(1)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _z(text: str) -> complex:
    try:
        re_part, im_part = text.split(",")
        return complex(float(re_part), float(im_part))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad complex literal {text!r}; expected RE,IM") from None


def _window(text: str) -> tuple[float, float, float, float]:
    try:
        x0, x1, y0, y1 = (float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad window {text!r}; expected x0,x1,y0,y1") from None
    if not (x0 < x1 and y0 < y1):
        raise argparse.ArgumentTypeError("window must satisfy x0 < x1 and y0 < y1")
    return x0, x1, y0, y1


def _res(text: str) -> tuple[int, int]:
    m = re.match(r"(\d+)x(\d+)$", text)
    if m is None:
        raise argparse.ArgumentTypeError(f"bad resolution {text!r}; expected WxH")
    w, h = int(m.group(1)), int(m.group(2))
    if not (1 <= w <= 4096 and 1 <= h <= 4096):
        raise argparse.ArgumentTypeError("resolution out of range (1..4096 per axis)")
    return w, h


def _fib_power(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad power {text!r}; expected an integer") from None
    if not 1 <= n <= FIB_POWER_CAP:
        raise argparse.ArgumentTypeError(f"needs 1 <= N <= {FIB_POWER_CAP}, got {n}")
    return n


def _gated_seq(args) -> SequenceSpec:
    """The selected sequence; uncertified ones are exploration-only."""
    if not is_certified_spec(args.seq) and not args.uncertified:
        raise UncertifiedOnly("only b = -1, a != 0 is certified; pass --uncertified to explore other sequences")
    return args.seq


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_eval(args) -> int:
    spec = SeriesSpec(_gated_seq(args), args.weight, Variant(args.variant))
    res = evaluate(spec, args.z, args.tol, guard_eps=args.guard_eps)
    _emit(
        args,
        {
            "command": "eval",
            "value_re": res.value.real,
            "value_im": res.value.imag,
            "tail_bound": res.tail_bound,
            "certified": res.certified,
            "j_min": res.j_min,
            "j_max": res.j_max,
        },
        f"value = {res.value.real!r} + {res.value.imag!r}i  tail <= {res.tail_bound:.3e}  "
        f"certified={res.certified}  window=[{res.j_min}, {res.j_max}]",
    )
    return EXIT_OK


def _cmd_check(args) -> int:
    seq = args.seq
    spec = SeriesSpec(seq, 2 * args.k, Variant(args.variant))
    if args.identity == "inversion":
        if args.mirror_a is not None:
            raise ValueError("--mirror-a applies to --identity mirror only")
        kind = InversionS()
        force = False
    else:
        mirror_a = seq.a if args.mirror_a is None else args.mirror_a
        kind = MirrorPa(mirror_a)
        force = mirror_a != seq.a
    report = check_identity(
        spec,
        kind,
        n_samples=args.samples,
        seed=args.seed,
        eval_tol=args.tol,
        force_pairing=force,
    )
    # Every sample line is formatted before the one write, so a record that
    # cannot be written leaves stdout empty.
    human = args.format == "human"
    samples = "".join([
        _sample_line(i, z, r, t, human)
        for i, (z, r, t) in enumerate(zip(report.sample_points, report.residuals, report.tolerances))
    ])
    _emit(
        args,
        {
            "type": "summary",
            "identity": args.identity,
            "pass": report.passed,
            "max_residual": report.max_residual,
            "samples": args.samples,
            "seed": args.seed,
        },
        f"{args.identity}: {'PASS' if report.passed else 'FAIL'}  "
        f"max residual {report.max_residual:.3e}  ({args.samples} samples, seed {args.seed})",
        samples,
    )
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _sample_line(i: int, z: complex, r: float, t: float, human: bool) -> str:
    """One sample record; jsonl has `_emit`'s bytes, since json writes a
    finite float as its repr."""
    x, y = z.real, z.imag
    if human:
        return (
            f"sample {i:3d}  z = {x:+.4f}{y:+.4f}i  residual {r:.3e}  "
            f"tolerance {t:.3e}  {'ok' if r <= t else 'FAIL'}\n"
        )
    # A sum of finite values is finite or overflows to inf.  The message is
    # ours: json.dumps words its own differently across CPython versions.
    if not math.isfinite(x + y + r + t) and not all(map(math.isfinite, (x, y, r, t))):
        raise ValueError("a check record has a value that is not finite, which JSON cannot write")
    return (
        f'{{"schema":{SCHEMA},"type":"sample","index":{i},"z_re":{x!r},"z_im":{y!r},'
        f'"residual":{r!r},"tolerance":{t!r},"ok":{"true" if r <= t else "false"}}}\n'
    )


def _pole_line(num: int, den: int, human: bool) -> str:
    """One pole record; jsonl has `_emit`'s bytes, since json writes an int
    as its str."""
    n, d = str(num), str(den)
    if human:
        return f"pole {n}/{d}\n"
    return f'{{"schema":{SCHEMA},"type":"pole","fraction":"{n}/{d}","numerator":{n},"denominator":{d}}}\n'


def _check_printable(pairs) -> None:
    """Raise unless every entry prints: one str() of the longest entry, which
    passes CPython's int-to-str digit limit (4300 by default) iff all do."""
    try:
        str(max((max(abs(num), den) for num, den in pairs), default=0))
    except ValueError:
        raise ValueError("a pole has entries too long to print; narrow --nmin/--nmax") from None


def _cmd_poles(args) -> int:
    seq = _gated_seq(args)
    nmin, nmax = args.nmin, args.nmax
    if nmin <= nmax <= INDEX_CAP:
        # For b = -1, a != 0 |L(n)| does not decrease as |n| grows (|n| >= 1),
        # so the end poles carry the longest entries: their check refuses an
        # unprintable range before any other pole is made.  Other sequences
        # are checked in full below.  An --nmax past the index cap is left
        # to the map, which names that index before its first pole.
        _check_printable([*_pole_pairs(seq, nmin, nmin), *_pole_pairs(seq, nmax, nmax)])
    pairs = _pole_pairs(seq, nmin, nmax)
    if not is_certified_spec(seq):
        pairs = list(pairs)
        _check_printable(pairs)
    # Before the first pole, so a root that overflows writes no record.
    accumulation = _accumulation_points(seq)
    human, write = args.format == "human", sys.stdout.write
    for num, den in pairs:
        write(_pole_line(num, den, human))
    _emit(
        args,
        {
            "type": "accumulation",
            "points": list(accumulation),
        },
        "accumulation points: " + (", ".join(repr(a) for a in accumulation) or "none"),
    )
    return EXIT_OK


def _cmd_matrix(args) -> int:
    if args.fib_power is not None:
        n = args.fib_power
        mat = (P * S).power(n)
        _emit(
            args,
            {
                "type": "fib-power",
                "n": n,
                "p": mat.p,
                "q": mat.q,
                "r": mat.r,
                "s": mat.s,
            },
            f"(PS)^{n} = [[{mat.p}, {mat.q}], [{mat.r}, {mat.s}]]",
        )
        return EXIT_OK
    ok = True
    for name, holds in generator_identities():
        ok &= holds
        _emit(
            args,
            {"type": "identity", "name": name, "holds": holds},
            f"{name}: {'ok' if holds else 'FAIL'}",
        )
    fib_ok = all(fib_matrix_check(n) for n in range(1, 51))
    ok &= fib_ok
    _emit(
        args,
        {"type": "fib-matrix", "max_n": 50, "holds": fib_ok},
        f"(PS)^n Fibonacci form for n <= 50: {'ok' if fib_ok else 'FAIL'}",
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _brightness(value: complex) -> float:
    """The pixel brightness 1 - 1/(1 + log1p|value|), the same for conj(value)."""
    try:
        log_size = math.log1p(abs(value))
    except OverflowError:
        # |value| passes double range.  Halving is exact, and at this size
        # log|value| is log1p|value| to within an ulp.
        log_size = math.log(abs(value * 0.5)) + math.log(2.0)
    return 1.0 - 1.0 / (1.0 + log_size)


def _pixel_color(value: complex, v: float) -> tuple[int, int, int]:
    """The colour of hue arg(value) at brightness v = `_brightness(value)`."""
    hue = (math.atan2(value.imag, value.real) + math.pi) / (2.0 * math.pi)
    if hue >= 1.0:
        hue -= 1.0
    # colorsys.hsv_to_rgb(hue, 1.0, v) written out term for term at s = 1,
    # which saves about a third of this function's time: p = v*0.0 is 0,
    # q = v*(1.0 - f), t = v*(1.0 - (1.0 - f)).  t keeps colorsys's form,
    # because the shorter v*f can differ in the last bit and move a byte.
    # 0 <= hue < 1, so i is colorsys's i % 6.
    h = hue * 6.0
    i = int(h)
    f = h - i
    if i == 0:
        return int(v * 255 + 0.5), int(v * (1.0 - (1.0 - f)) * 255 + 0.5), 0
    if i == 1:
        return int(v * (1.0 - f) * 255 + 0.5), int(v * 255 + 0.5), 0
    if i == 2:
        return 0, int(v * 255 + 0.5), int(v * (1.0 - (1.0 - f)) * 255 + 0.5)
    if i == 3:
        return 0, int(v * (1.0 - f) * 255 + 0.5), int(v * 255 + 0.5)
    if i == 4:
        return int(v * (1.0 - (1.0 - f)) * 255 + 0.5), 0, int(v * 255 + 0.5)
    return int(v * 255 + 0.5), 0, int(v * (1.0 - f) * 255 + 0.5)


def render_grid(
    spec: SeriesSpec,
    window: tuple[float, float, float, float],
    width: int,
    height: int,
    tol: float = 1e-8,
    guard_eps: float = GUARD_EPS,
) -> bytes:
    """Binary PPM (P6, maxval 255) domain coloring of the series.

    Pixel (column i, row j) maps to
    z = x0 + (i+0.5)*(x1-x0)/W + i*(y1 - (j+0.5)*(y1-y0)/H).  Pixels whose
    evaluation trips the pole guard (or cannot reach tol) render black.
    Output bytes depend only on the arguments.

    Every coefficient is a real integer, so f(conj z) == conj(f(z)) bit for
    bit (errors included).  A row whose im is exactly -im of a later row is
    therefore evaluated once: its pixels are encoded both as computed and
    conjugated, with one brightness for both (abs is exact under
    conjugation), and the later row takes the conjugated bytes (black stays
    black).  A kept row is dropped once its twin has used it.  The bytes are
    those of evaluating every pixel.
    """
    x0, x1, y0, y1 = window
    reals = [x0 + (i + 0.5) * (x1 - x0) / width for i in range(width)]
    ims = [y1 - (j + 0.5) * (y1 - y0) / height for j in range(height)]
    # im = 0 is its own twin; its row is never conjugated.
    rows = set(ims)
    twinned = {im for im in rows if im != 0 and -im in rows}
    kept: dict[float, bytearray] = {}
    out = bytearray(b"P6\n%d %d\n255\n" % (width, height))
    for im in ims:
        mirrored = kept.pop(-im, None)
        if mirrored is not None:
            out += mirrored
            continue
        twin = bytearray() if im in twinned else None
        for re in reals:
            try:
                value = evaluate(spec, complex(re, im), tol, guard_eps=guard_eps).value
            except (PoleProximity, ToleranceUnreachable):
                out += b"\0\0\0"
                if twin is not None:
                    twin += b"\0\0\0"
                continue
            v = _brightness(value)
            out.extend(_pixel_color(value, v))
            if twin is not None:
                twin.extend(_pixel_color(value.conjugate(), v))
        if twin is not None:
            kept[im] = twin
    return bytes(out)


def _cmd_grid(args) -> int:
    spec = SeriesSpec(_gated_seq(args), args.weight, Variant(args.variant))
    width, height = args.res
    data = render_grid(spec, args.window, width, height, args.tol, args.guard_eps)
    with open(args.out, "wb") as fh:
        fh.write(data)
    _emit(
        args,
        {
            "command": "grid",
            "out": args.out,
            "width": width,
            "height": height,
        },
        f"wrote {args.out} ({width}x{height})",
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _add_seq_flags(sub, *, uncertified: bool = True, variant: bool = True) -> None:
    sub.add_argument("--seq", type=_seq, required=True, help="fib | lucas | lucas-first:a:b | lucas-second:a:b")
    if uncertified:
        sub.add_argument("--uncertified", action="store_true", help="allow exploration sequences outside b = -1, a != 0")
    if variant:
        sub.add_argument("--variant", choices=["standard", "footnote"], default="standard")
    _add_format_flag(sub)


def _add_format_flag(sub) -> None:
    sub.add_argument("--format", choices=["jsonl", "human"], default="jsonl")


def build_parser() -> _Parser:
    parser = _Parser(prog="semimodular", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="evaluate a series at one point")
    _add_seq_flags(p_eval)
    p_eval.add_argument("--weight", type=int, required=True)
    p_eval.add_argument("--z", type=_z, required=True, help="RE,IM")
    p_eval.add_argument("--tol", type=float, default=1e-10)
    p_eval.add_argument("--guard-eps", type=float, default=GUARD_EPS)
    p_eval.set_defaults(func=_cmd_eval)

    p_check = subs.add_parser("check", help="residual-scan one invariance law")
    _add_seq_flags(p_check, uncertified=False)
    p_check.add_argument("--identity", choices=["inversion", "mirror"], required=True)
    p_check.add_argument("--k", type=int, default=1, help="half-weight; the series weight is 2k")
    p_check.add_argument("--samples", type=int, default=100)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--tol", type=float, default=1e-10, help="per-evaluation tolerance")
    p_check.add_argument("--mirror-a", type=int, default=None, help="override the mirror parameter (mirror only; negative control)")
    p_check.set_defaults(func=_cmd_check)

    p_poles = subs.add_parser("poles", help="exact pole ratios over an index range")
    _add_seq_flags(p_poles, variant=False)
    p_poles.add_argument("--nmin", type=int, required=True)
    p_poles.add_argument("--nmax", type=int, required=True)
    p_poles.set_defaults(func=_cmd_poles)

    p_matrix = subs.add_parser("matrix", help="verify generator identities or print a Fibonacci-matrix power")
    group = p_matrix.add_mutually_exclusive_group(required=True)
    group.add_argument("--verify", action="store_true")
    group.add_argument("--fib-power", type=_fib_power, default=None, metavar="N")
    _add_format_flag(p_matrix)
    p_matrix.set_defaults(func=_cmd_matrix)

    p_grid = subs.add_parser("grid", help="render a domain-colored PPM raster")
    _add_seq_flags(p_grid)
    p_grid.add_argument("--weight", type=int, required=True)
    p_grid.add_argument("--window", type=_window, required=True, help="x0,x1,y0,y1")
    p_grid.add_argument("--res", type=_res, required=True, help="WxH")
    p_grid.add_argument("--out", required=True)
    p_grid.add_argument("--tol", type=float, default=1e-8)
    p_grid.add_argument("--guard-eps", type=float, default=GUARD_EPS)
    p_grid.set_defaults(func=_cmd_grid)

    return parser


# One parser per process: parsing leaves no state in it, and argparse reads
# sys.stdout, sys.stderr and the terminal width when it prints.
_parser = functools.lru_cache(maxsize=None)(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SemimodularError, ValueError, OverflowError, OSError) as exc:
        print(f"semimodular: {exc}", file=sys.stderr)
        if isinstance(exc, PoleProximity):
            return EXIT_POLE
        if isinstance(exc, (ToleranceUnreachable, OverflowError)):
            return EXIT_TOL
        return EXIT_IO if isinstance(exc, OSError) else EXIT_USAGE


def run() -> None:
    """Console-script entry point."""
    raise SystemExit(main())


if __name__ == "__main__":
    run()
