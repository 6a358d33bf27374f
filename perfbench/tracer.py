"""Spans around the calls into each slopecert layer, recorded from outside.

``Tracer.install`` replaces each layer function where it is looked up with a
wrapper that records a span (name, start, end, parent) in memory, plus exact
work counts, and ``Tracer.uninstall`` puts every original object back. The
package source is never edited: the wrappers are set on

- the names bound in ``slopecert.certify``, which is where the pipeline
  looks its layer functions up;
- ``slopecert.braid.cable_braid``, reached by ``choose_params`` through
  ``braid.``;
- ``slopecert.homfly.homfly_oracle``, the oracle fallback of ``_gamma_rec``;
- ``__mul__`` and ``__rmul__`` of ``LaurentPoly``, ``BiLaurent`` and
  ``SkeinElem``.

A layer's self time is the total duration of its spans minus the part of
that time covered by their child spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

# name bound in slopecert.certify -> span name
CERTIFY_NAMES = {
    "choose_params": "surgery.choose_params",
    "dual_gluing": "surgery.gluing",
    "double_dual_gluing": "surgery.gluing",
    "induced_slopes": "surgery.gluing",
    "cable_braid": "braid.cable_braid",
    "closure_components": "braid.closure_components",
    "bennequin_euler_char": "braid.euler_char",
    "kb_root": "skein_tree.expand",
    "kg_root": "skein_tree.expand",
    "expand": "skein_tree.expand",
    "eval_tree": "skein_tree.eval_tree",
    "closed_form_kb": "skein_tree.closed_form",
    "closed_form_kg": "skein_tree.closed_form",
    "difference": "skein_tree.difference",
    "gamma_positive": "homfly.gamma_ok",
    "homfly_oracle": "homfly.oracle",
    "zeroth_gamma": "homfly.zeroth_gamma",
}

# span name given to a gamma_positive call that raised
GAMMA_FAILED = "homfly.gamma_failed"

CERTIFY_SPAN = "certify.certify_slope"
TO_JSON_SPAN = "certify.to_json"


def _tree_nodes(tree) -> int:
    return 1 + sum(_tree_nodes(child) for child in tree.children)


def _term_pairs(a, b) -> int:
    other = b if type(b) is type(a) else type(a)._coerce(b)
    return len(a._terms) * len(other._terms)


class Tracer:
    """In-memory span recorder that wraps slopecert's layer functions."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn: Callable, args=(), kwargs=None, failed_name: Optional[str] = None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``
        (renamed ``failed_name`` if it raises)."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        except BaseException:
            if failed_name is not None:
                rec[0] = failed_name
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable, on_result=None, failed_name=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs, failed_name)
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, key: str, measure: Callable):
        def on_result(args, result):
            self.counts[key] += measure(args, result)

        return on_result

    # -- installing --------------------------------------------------------

    def targets(self) -> List[tuple]:
        """(owner, attribute, span name, result hook, span name on failure)
        for every object ``install`` replaces."""
        from slopecert import braid, certify, homfly
        from slopecert.poly import BiLaurent, LaurentPoly, SkeinElem

        letters = self._count("braid.letters_built", lambda args, w: len(w.letters))
        nodes = self._count("skein_tree.tree_nodes", lambda args, tree: _tree_nodes(tree))
        pairs = self._count("poly.laurent_mul_term_pairs", lambda args, _: _term_pairs(*args))
        hooks = {"cable_braid": letters, "expand": nodes}
        out = [
            (certify, attr, span, hooks.get(attr), GAMMA_FAILED if attr == "gamma_positive" else None)
            for attr, span in CERTIFY_NAMES.items()
        ]
        out.append((braid, "cable_braid", "braid.cable_braid", letters, None))
        out.append((homfly, "homfly_oracle", "homfly.oracle", None, None))
        for cls, span, hook in (
            (LaurentPoly, "poly.laurent_mul", pairs),
            (BiLaurent, "poly.bilaurent_mul", None),
            (SkeinElem, "poly.skein_mul", None),
        ):
            out.extend((cls, attr, span, hook, None) for attr in ("__mul__", "__rmul__") if attr in cls.__dict__)
        return out

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for owner, attr, span, hook, failed_name in self.targets():
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span, original, hook, failed_name))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: number of spans and self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name]["calls"] += 1
            totals[name]["self_s"] += end - start - child_time[i]
        return dict(totals)

    def _calls_under(self, name: str, ancestors: set, direct: bool) -> int:
        """Spans called ``name`` whose parent (``direct``) or any ancestor
        has a name in ``ancestors``."""
        found = 0
        for span_name, _, _, parent in self.spans:
            if span_name != name:
                continue
            while parent >= 0:
                if self.spans[parent][0] in ancestors:
                    found += 1
                    break
                if direct:
                    break
                parent = self.spans[parent][3]
        return found

    def layer_metrics(self) -> Dict[str, float]:
        """Self time per layer in seconds and exact work counts."""
        totals = self.layer_totals()

        def self_s(name: str) -> float:
            return totals.get(name, {}).get("self_s", 0.0)

        def calls(name: str) -> int:
            return totals.get(name, {}).get("calls", 0)

        gamma = {"homfly.gamma_ok", GAMMA_FAILED}
        return {
            "surgery.choose_params_s": self_s("surgery.choose_params"),
            "surgery.candidates": self._calls_under("braid.cable_braid", {"surgery.choose_params"}, True),
            "surgery.gluing_s": self_s("surgery.gluing"),
            "braid.cable_braid_s": self_s("braid.cable_braid"),
            "braid.cable_braid_calls": calls("braid.cable_braid"),
            "braid.letters_built": self.counts["braid.letters_built"],
            "braid.closure_components_s": self_s("braid.closure_components"),
            "braid.euler_char_s": self_s("braid.euler_char"),
            "skein_tree.expand_s": self_s("skein_tree.expand"),
            "skein_tree.eval_tree_s": self_s("skein_tree.eval_tree"),
            "skein_tree.tree_nodes": self.counts["skein_tree.tree_nodes"],
            "skein_tree.closed_form_s": self_s("skein_tree.closed_form"),
            "skein_tree.difference_s": self_s("skein_tree.difference"),
            "poly.skein_mul_calls": calls("poly.skein_mul"),
            "poly.skein_mul_s": self_s("poly.skein_mul"),
            "certify.self_s": self_s(CERTIFY_SPAN),
            "certify.to_json_s": self_s(TO_JSON_SPAN),
            "homfly.gamma_positive_calls": calls("homfly.gamma_ok") + calls(GAMMA_FAILED),
            "homfly.gamma_ok_s": self_s("homfly.gamma_ok"),
            "homfly.gamma_failed_s": self_s(GAMMA_FAILED),
            "homfly.gamma_failed": calls(GAMMA_FAILED),
            "homfly.oracle_fallbacks": self._calls_under("homfly.oracle", gamma, False),
            "homfly.oracle_s": self_s("homfly.oracle"),
            "poly.laurent_mul_calls": calls("poly.laurent_mul"),
            "poly.laurent_mul_term_pairs": self.counts["poly.laurent_mul_term_pairs"],
            "poly.laurent_mul_s": self_s("poly.laurent_mul"),
            "poly.bilaurent_mul_calls": calls("poly.bilaurent_mul"),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": self.spans}, fh)
