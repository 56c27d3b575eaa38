"""Span tracing of lexdist's public functions, installed from outside src/.

Each traced function is replaced by a wrapper wherever lexdist looks the
name up: every lexdist module attribute (or class attribute) that holds
the original object is rebound, so `from .x import f` copies are covered
as well as module-attribute calls and call-time imports.  A span records
its name, start, end, parent span and an optional detail taken from the
arguments or the result; spans stay in memory until the round ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

SMALL_RANK_CELLS = 64
CELL_BUCKETS = (9, 64, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)


def _shape(matrix):
    rows = len(matrix)
    return rows, (len(matrix[0]) if rows else 0)


def _rank_name(args, kwargs):
    rows, cols = _shape(args[0])
    return "modmat.rank_mod.small" if rows * cols <= SMALL_RANK_CELLS else "modmat.rank_mod.large"


def _koszul_name(args, kwargs):
    # a general (distracted) Ideal carries its field; a MonomialIdeal does not
    return "homology.koszul_general" if hasattr(args[0], "p") else "homology.koszul_betti"


def _rank_detail(args, kwargs, result):
    return _shape(args[0])


def _gens_detail(args, kwargs, result):
    return result.gens


def _ok_detail(args, kwargs, result):
    return bool(result[0])


def _cases_detail(args, kwargs, result):
    return result.cases_checked


# (module, attribute, span name or namer, detail) -- attribute may be
# "Class.method".  The list is the layer map of the benchmark README.
TRACED = [
    ("lexdist.cli", "main", "cli.main", None),
    ("lexdist.verify", "verify_macaulay_lex", "verify.macaulay_lex", _cases_detail),
    ("lexdist.verify", "verify_betti_extremal", "verify.betti_extremal", _cases_detail),
    ("lexdist.verify", "verify_coh_extremal", "verify.coh_extremal", _cases_detail),
    ("lexdist.verify", "verify_distraction_hf", "verify.distraction_hf", _cases_detail),
    ("lexdist.verify", "verify_epsilon_d_extremal", "verify.epsilon_d_extremal", _cases_detail),
    ("lexdist.verify", "verify_betti_distraction_invariance", "verify.betti_invariance", _cases_detail),
    ("lexdist.verify", "verify_codistra_h0", "verify.codistra_h0", _cases_detail),
    ("lexdist.verify", "random_monomial_ideal", "verify.random_monomial_ideal", None),
    ("lexdist.monomials", "hilbert_upto", "monomials.hilbert_upto", None),
    ("lexdist.monomials", "hilbert_function", "monomials.hilbert_function", None),
    ("lexdist.monomials", "saturate_maximal", "monomials.saturate_maximal", None),
    ("lexdist.monomials", "masks_to_ideal", "monomials.masks_to_ideal", None),
    ("lexdist.macaulay", "lex_ideal_for_hf", "macaulay.lex_ideal_for_hf", None),
    ("lexdist.shakin", "stable_lex_embedding", "shakin.stable_lex_embedding", _gens_detail),
    ("lexdist.shakin", "lex_embed", "shakin.lex_embed", None),
    ("lexdist.shakin", "embedded_masks", "shakin.embedded_masks", None),
    ("lexdist.groebner", "Ideal.groebner_basis", "groebner.groebner_basis", None),
    ("lexdist.groebner", "normal_form", "groebner.normal_form", None),
    ("lexdist.groebner", "hilbert_function", "groebner.hilbert_function", None),
    ("lexdist.groebner", "h0_hilbert_function", "groebner.h0_hilbert_function", None),
    ("lexdist.groebner", "saturate_maximal", "groebner.saturate_maximal", None),
    ("lexdist.groebner", "intersect", "groebner.intersect", None),
    ("lexdist.distraction", "validate_distraction", "distraction.validate_distraction", _ok_detail),
    ("lexdist.distraction", "random_distraction", "distraction.random_distraction", None),
    ("lexdist.distraction", "distract_ideal", "distraction.distract_ideal", None),
    ("lexdist.homology", "koszul_betti", _koszul_name, None),
    ("lexdist.homology", "_koszul_monomial", "homology.koszul_monomial", None),
    ("lexdist.homology", "local_coh_monomial", "homology.local_coh_monomial", None),
    ("lexdist._modmat", "rank_mod", _rank_name, _rank_detail),
]

UNITS = {"calls": "count", "cases": "count", "ops": "count", "max_cells": "count",
         "spans": "count", "self_s": "s", "overhead_s": "s", "distinct_share": "ratio",
         "fresh_share": "ratio", "accept_share": "ratio"}


def unit_of(metric):
    """The unit of a per-layer metric, from the last part of its name."""
    return UNITS[metric.rsplit(".", 1)[-1]]


LAYERS = ("cli", "verify", "monomials", "macaulay", "shakin", "groebner",
          "distraction", "homology", "modmat")

# metrics reported as call count and self time
TIMED = (
    "monomials.hilbert_upto", "monomials.hilbert_function",
    "macaulay.lex_ideal_for_hf",
    "shakin.stable_lex_embedding", "shakin.embedded_masks",
    "groebner.groebner_basis", "groebner.normal_form",
    "groebner.saturate_maximal", "groebner.intersect",
    "distraction.validate_distraction", "distraction.distract_ideal",
    "homology.koszul_monomial", "homology.koszul_general",
    "homology.local_coh_monomial",
    "modmat.rank_mod.small", "modmat.rank_mod.large",
)


def rebind(original, replacement):
    """Point every lexdist module name bound to original at replacement.

    Returns the (module, name, original) triples that undo it.
    """
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] != "lexdist":
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, key, original))
                setattr(mod, key, replacement)
    return undo


def restore(undo):
    """Undo what rebind (or a class-attribute swap) did, newest first."""
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, detail]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, None)

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx, detail):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = detail
        self._stack.pop()

    def _wrap(self, fn, name, detail):
        tracer = self
        # a groebner_basis call is fresh when it grew the ideal's basis
        # cache, that is, when it ran Buchberger instead of returning a hit
        gb = fn.__qualname__ == "Ideal.groebner_basis"

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            before = len(args[0]._gb) if gb else None
            idx = tracer._open(label)
            info = None
            try:
                result = fn(*args, **kwargs)
                if gb:
                    info = len(args[0]._gb) > before
                elif detail is not None:
                    info = detail(args, kwargs, result)
                return result
            finally:
                tracer._close(idx, info)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every traced name in every loaded lexdist module."""
        for modname, attr, name, detail in TRACED:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, detail))
                continue
            original = getattr(owner, attr)
            self._restore += rebind(original, self._wrap(original, name, detail))

    def uninstall(self):
        restore(self._restore)
        self._restore.clear()

    # -- aggregation -------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def metrics(self) -> dict:
        """Per-layer counts, self times and ratios of one traced round."""
        selfs = self.self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for span, st in zip(self.spans, selfs):
            calls[span[0]] += 1
            self_s[span[0]] += st
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        out["bench.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == "bench")
        out["cli.calls"] = calls["cli.main"]
        out["verify.cases"] = sum(
            s[4] for s in self.spans if s[0].startswith("verify.") and isinstance(s[4], int)
        )
        for key in TIMED:
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.self_s"] = self_s[key]

        sle = [s[4] for s in self.spans if s[0] == "shakin.stable_lex_embedding"]
        done = [g for g in sle if g is not None]
        out["shakin.stable_lex_embedding.distinct_share"] = (
            len(set(done)) / len(done) if done else 0.0)
        gb = [s[4] for s in self.spans if s[0] == "groebner.groebner_basis"]
        out["groebner.groebner_basis.fresh_share"] = sum(map(bool, gb)) / len(gb) if gb else 0.0
        names = [s[0] for s in self.spans]
        inside = [s[4] for s in self.spans
                  if s[0] == "distraction.validate_distraction"
                  and s[3] >= 0 and names[s[3]] == "distraction.random_distraction"]
        out["distraction.random_distraction.accept_share"] = (
            sum(map(bool, inside)) / len(inside) if inside else 0.0)
        shapes = [s[4] for s in self.spans if s[0].startswith("modmat.rank_mod")]
        out["modmat.rank_mod.ops"] = sum(r * c * min(r, c) for r, c in shapes)
        out["modmat.rank_mod.max_cells"] = max((r * c for r, c in shapes), default=0)
        out["trace.spans"] = len(self.spans)
        return out

    def rank_histogram(self) -> dict:
        """rank_mod calls by matrix cell count, bucketed at CELL_BUCKETS."""
        hist = defaultdict(int)
        for s in self.spans:
            if s[0].startswith("modmat.rank_mod"):
                cells = s[4][0] * s[4][1]
                label = next((f"<={b}" for b in CELL_BUCKETS if cells <= b),
                             f">{CELL_BUCKETS[-1]}")
                hist[label] += 1
        return dict(hist)

    def dump(self, path):
        """Write the spans (name, start, end, parent) and summaries as JSON."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({
                "names": names,
                "spans": [[ids[s[0]], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3]]
                          for s in self.spans],
                "rank_histogram": self.rank_histogram(),
            }, fh, separators=(",", ":"))
