"""Spans around the program's public functions, for the traced run.

The tracer wraps public functions only, from outside the program: each one
is replaced at every module attribute through which it is looked up (the
defining module, the package, and any module that imported it by name), so
calls between the program's own modules are traced too.  A function that no
longer exists is skipped, and the metrics derived from it are left out of
the result instead of failing the run.

Spans are kept in memory as [name, start, end, parent] and written out
when the round ends; self times are derived from them (a span's duration
minus the durations of its direct children).  Counts that do not come from
spans are read from the public results the wrapped functions return.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# span name -> (module, attribute); "Class.method" attributes are wrapped on the class.
TARGETS = {
    "lucas.seq_value": ("lucas", "seq_value"),
    "lucas.growth_info": ("lucas", "growth_info"),
    "series.evaluate": ("series", "evaluate"),
    "series.evaluate_halves": ("series", "evaluate_halves"),
    "series.pole_distance": ("series", "pole_distance"),
    "series.pole_map": ("series", "pole_map"),
    "symmetry.check_identity": ("symmetry", "check_identity"),
    "gl2.power": ("gl2", "IntMat2.power"),
    "gl2.generator_identities": ("gl2", "generator_identities"),
    "gl2.fib_matrix_check": ("gl2", "fib_matrix_check"),
    "cli.main": ("cli", "main"),
    "cli.render_grid": ("cli", "render_grid"),
}
MODULES = ("lucas", "series", "symmetry", "gl2", "cli")
EVAL = ("series.evaluate", "series.evaluate_halves")
GL2 = ("gl2.power", "gl2.generator_identities", "gl2.fib_matrix_check")
PPM_HEADER_LINES = 3


def _unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    if suffix.endswith("_ms"):
        return "ms"
    return {"margin_min": "ratio", "output_bytes": "bytes", "source_lines": "lines"}.get(suffix, "count")


class Tracer:
    def __init__(self, package: str = "semimodular"):
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.present: set[str] = set()
        self.counts: Counter = Counter()
        self.windows: Counter = Counter()
        self.margins: list[float] = []
        self._growth_misses0 = None
        self._growth = None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == self.package or name.startswith(self.package + "."))]
        for span, (mod_name, attr) in TARGETS.items():
            mod = sys.modules.get(f"{self.package}.{mod_name}")
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                original = None if cls is None else cls.__dict__.get(meth)
                if original is None:
                    continue
                self._replace(cls, meth, self._wrap(span, original))
            else:
                original = getattr(mod, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(span, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._replace(m, key, wrapper)
            self.present.add(span)
            if span == "lucas.growth_info" and hasattr(original, "cache_info"):
                self._growth = original
                self._growth_misses0 = original.cache_info().misses

    def _replace(self, owner, key, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = getattr(self, "_observe_" + name.split(".")[-1], None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                if name in EVAL and self._outermost(span, EVAL) and type(exc).__name__ == "PoleProximity":
                    self.counts["series.guard_rejections"] += 1
                raise
            span[2] = clock()
            stack.pop()
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return wrapper

    def _outermost(self, span, group) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] in group:
                return False
            parent = self.spans[parent][3]
        return True

    # -- counts read from public results ---------------------------------------

    def _observe_evaluate(self, span, args, kwargs, result) -> None:
        if self._outermost(span, EVAL):
            self.counts["series.terms"] += result.j_max - result.j_min + 1
            self.windows[result.j_max] += 1

    def _observe_evaluate_halves(self, span, args, kwargs, result) -> None:
        if self._outermost(span, EVAL):
            minus, plus = result
            self.counts["series.terms"] += (minus.j_max - minus.j_min + 1) + (plus.j_max - plus.j_min + 1)
            self.windows[plus.j_max] += 1

    def _observe_check_identity(self, span, args, kwargs, result) -> None:
        self.counts["symmetry.samples"] += len(result.residuals)
        if not kwargs.get("force_pairing", False):
            self.margins.extend(t / r for r, t in zip(result.residuals, result.tolerances) if r > 0)

    def _observe_render_grid(self, span, args, kwargs, result) -> None:
        pixels = result.split(b"\n", PPM_HEADER_LINES)[-1]
        self.counts["cli.black_pixels"] += sum(
            1 for k in range(0, len(pixels), 3) if pixels[k:k + 3] == b"\x00\x00\x00"
        )
        self.counts["cli.output_bytes"] += len(result)

    # -- derived metrics -------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of this round as (value, unit); metrics of absent
        functions and modules are left out."""
        n = len(self.spans)
        child = [0.0] * n
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        outer_gl2 = 0.0
        eval_calls = 0
        for idx, span in enumerate(self.spans):
            name, t0, t1, _ = span
            calls[name] += 1
            total[name] += t1 - t0
            own[name] += t1 - t0 - child[idx]
            if name in EVAL and self._outermost(span, EVAL):
                eval_calls += 1
            if name in GL2 and self._outermost(span, GL2):
                outer_gl2 += t1 - t0
        ms = 1e3
        out: dict[str, float] = {}
        have = self.present.__contains__
        if have("lucas.seq_value"):
            out["lucas.seq_value.calls"] = calls["lucas.seq_value"]
            out["lucas.seq_value.time_ms"] = total["lucas.seq_value"] * ms
        if have("lucas.growth_info"):
            out["lucas.growth_info.calls"] = calls["lucas.growth_info"]
            out["lucas.growth_info.time_ms"] = total["lucas.growth_info"] * ms
            if self._growth is not None:
                out["lucas.growth_info.misses"] = self._growth.cache_info().misses - self._growth_misses0
        if have("series.evaluate") or have("series.evaluate_halves"):
            out["series.evaluate.calls"] = eval_calls
            out["series.evaluate.self_ms"] = (own["series.evaluate"] + own["series.evaluate_halves"]) * ms
            out["series.terms"] = self.counts["series.terms"]
            out["series.guard_rejections"] = self.counts["series.guard_rejections"]
        if have("series.pole_distance"):
            out["series.pole_distance.calls"] = calls["series.pole_distance"]
            out["series.pole_distance.time_ms"] = total["series.pole_distance"] * ms
        if have("series.pole_map"):
            out["series.pole_map.calls"] = calls["series.pole_map"]
            out["series.pole_map.self_ms"] = own["series.pole_map"] * ms
        if have("symmetry.check_identity"):
            out["symmetry.check_identity.calls"] = calls["symmetry.check_identity"]
            out["symmetry.check_identity.self_ms"] = own["symmetry.check_identity"] * ms
            out["symmetry.samples"] = self.counts["symmetry.samples"]
            # 0 when no matched identity sample ran in the round.
            out["symmetry.margin_min"] = min(self.margins, default=0.0)
        if any(have(g) for g in GL2):
            out["gl2.time_ms"] = outer_gl2 * ms
        if have("cli.main"):
            out["cli.main.calls"] = calls["cli.main"]
            out["cli.main.self_ms"] = own["cli.main"] * ms
            out["cli.output_bytes"] = self.counts["cli.output_bytes"]
        if have("cli.render_grid"):
            out["cli.render_grid.self_ms"] = own["cli.render_grid"] * ms
            out["cli.black_pixels"] = self.counts["cli.black_pixels"]
        if self.windows:
            ordered = sorted(self.windows.elements())
            out["series.window_j_p50"] = ordered[(len(ordered) - 1) // 2]
            out["series.window_j_max"] = ordered[-1]
        for name in MODULES:
            mod = sys.modules.get(f"{self.package}.{name}")
            if mod is not None:
                with open(mod.__file__) as fh:
                    out[f"{name}.source_lines"] = sum(1 for _ in fh)
        return {name: (value, _unit(name)) for name, value in out.items()}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, t0, t1, parent in self.spans:
                fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")
