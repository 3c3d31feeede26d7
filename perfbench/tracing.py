"""Spans around the calls through which one apnkit module calls another.

The tracer replaces module attributes with timing wrappers, so the library
itself is unchanged; a wrapper records a span (name, start, end, parent)
and the layer's self time, which is the span's duration minus the time of
the spans nested inside it. Functions a later version of the library no
longer has are skipped and listed in ``missing``; their metrics read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, layer): the layer boundaries that are wrapped.
BOUNDARIES = (
    ("catalog", "fixture", "catalog.fixture"),
    ("trimming", "_tables_for_alpha", "trimming.tables"),
    ("ortho", "signatures_of_tables", "ortho.classify"),
    ("ortho", "_batch_walsh_hists", "ortho.walsh_hist"),
    ("ortho", "_ortho_cached", "ortho.ortho_derivative"),
    ("ortho", "invariant_signature", "ortho.invariant_signature"),
    ("vbf", "_diff_counts_batch", "vbf.ddt_hist"),
    ("vbf", "_degree_of_tables", "vbf.degree"),
    ("vbf", "differential_spectrum", "vbf.spectra"),
    ("vbf", "extended_walsh_spectrum", "vbf.spectra"),
    ("vbf", "is_apn", "vbf.is_apn"),
    ("vbf", "linearity", "vbf.linearity"),
    ("extension", "_search_one_r", "extension.dfs"),
    ("extension", "sample_quadratic_r", "extension.sample_r"),
    ("extension", "gamma_space", "extension.gamma_space"),
    ("extension", "gamma_representatives", "extension.gamma_representatives"),
    ("extension", "build_extension", "extension.build_extension"),
    ("gf2", "solve_affine", "gf2.solve_affine"),
)


def _rows(args) -> int:
    return int(args[0].shape[0])


def _on_classify(tracer, args, kwargs, out):
    tracer.add("ortho.classify.tables", len(out))
    tracer.add("ortho.classify.apn_rows",
               sum(1 for s in out if s is not None and s.apn))


def _on_gamma_space(tracer, args, kwargs, out):
    tracer.add("extension.gamma_space.calls", 1)
    tracer.add("extension.gamma_space.nonempty", 0 if out.empty else 1)


# counters taken at a boundary from its arguments and result
_COUNTERS = {
    "trimming.tables": lambda t, a, k, out: t.add("trimming.trims", int(out.shape[0])),
    "ortho.classify": _on_classify,
    "ortho.walsh_hist": lambda t, a, k, out: t.add("ortho.walsh_hist.tables", _rows(a)),
    "vbf.ddt_hist": lambda t, a, k, out: t.add("vbf.ddt_hist.tables", _rows(a)),
    "extension.gamma_space": _on_gamma_space,
    "gf2.solve_affine": lambda t, a, k, out: t.add("gf2.solve_affine.calls", 1),
}


class Tracer:
    """Self time and counts per layer; inactive wrappers call straight
    through, so checks made outside the timed phase are not traced."""

    def __init__(self) -> None:
        self.active = False
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.missing: list[str] = []
        self.originals: dict[str, object] = {}
        self._stack: list[list] = []
        self._open: dict[str, int] = defaultdict(int)
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    def add(self, key: str, value: float) -> None:
        if self.active:
            self.counts[key] += value

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named ``name`` (a root span when called from
        the benchmark loop)."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][0] if stack else 0
        frame = [span_id, time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - frame[1]
            self.self_s[name] += dur - frame[2]
            if stack:
                stack[-1][2] += dur
            self.spans.append((span_id, parent, name, frame[1], end))

    def install(self, apnkit) -> None:
        """Wrap every boundary in every apnkit module that binds it."""
        mods = [m for name, m in sys.modules.items()
                if name == "apnkit" or name.startswith("apnkit.")]
        for modname, attr, layer in BOUNDARIES:
            home = getattr(apnkit, modname, None)
            orig = getattr(home, attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self.originals[f"{modname}.{attr}"] = orig
            wrapper = self._wrapper(orig, layer, _COUNTERS.get(layer))
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, orig))

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._patched):
            setattr(mod, name, orig)
        self._patched.clear()

    def _wrapper(self, orig, layer, counter):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            # a layer that calls itself (chunked batches) counts its work once
            outer = tracer._open[layer] == 0
            tracer._open[layer] += 1
            try:
                out = tracer.span(layer, orig, *args, **kwargs)
            finally:
                tracer._open[layer] -= 1
            if counter is not None and outer:
                counter(tracer, args, kwargs, out)
            return out

        return wrapper
