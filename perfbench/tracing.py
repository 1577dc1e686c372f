"""Spans around the public functions of each liechannel layer.

A traced function is replaced, in every liechannel module that binds it, by
a wrapper that records one span: name, start, end, parent span and whether
an exception crossed the boundary. Rebinding each module's name catches the
calls a layer makes internally as well as the calls between layers, without
touching the package source. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

# (span name, module, function); one name may cover several functions
TRACED: Tuple[Tuple[str, str, str], ...] = (
    ("liecore.points_concircular", "liecore", "points_concircular"),
    ("liecore.span", "liecore", "span"),
    ("liecore.signature", "liecore", "signature"),
    ("cellcomplex.lines", "cellcomplex", "plus_lines"),
    ("cellcomplex.lines", "cellcomplex", "minus_lines"),
    ("cellcomplex.ribbons", "cellcomplex", "plus_ribbons"),
    ("cellcomplex.ribbons", "cellcomplex", "minus_ribbons"),
    ("legendre.is_legendre", "legendre", "is_legendre"),
    ("legendre.curvature_sphere", "legendre", "curvature_sphere"),
    ("channel.verify_channel", "channel", "verify_channel"),
    ("channel.full_certificate", "channel", "full_certificate"),
    ("channel.certificate_residuals", "channel", "certificate_residuals"),
    ("channel.is_dupin_cyclide", "channel", "is_dupin_cyclide"),
    ("channel.cross_ratio_constancy", "channel", "cross_ratio_constancy"),
    ("channel.is_multi_circular", "channel", "is_multi_circular"),
    ("channel.is_multi_circular_net", "channel", "is_multi_circular_net"),
    ("curvature.curvature_report", "curvature", "curvature_report"),
    ("curvature.kappa_line_spread", "curvature", "kappa_line_spread"),
    ("curvature.is_isothermic_5point", "curvature", "is_isothermic_5point"),
    ("curvature.interior_vertex_stars", "curvature", "interior_vertex_stars"),
    ("curvature.vessiot_classify", "curvature", "vessiot_classify"),
    ("builder.validate_sphere_curve", "builder", "validate_sphere_curve"),
    ("builder.channel_from_sphere_curve", "builder", "channel_from_sphere_curve"),
    ("builder.propagate_point", "builder", "propagate_point"),
    ("builder.blend_channel", "builder", "blend_channel"),
    ("io_json.load_net", "io_json", "load_net"),
    ("io_json.save_net", "io_json", "save_net"),
    ("io_json.verify_report", "io_json", "verify_report"),
    ("io_json._dump", "io_json", "_dump"),
    ("cli.main", "cli", "main"),
)

# JSON writes issued by the CLI itself are the report writes; the others
# belong to save_net and stay inside its span.
REPORT_WRITE = "io_json.report_write"
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(
    REPORT_WRITE if name == "io_json._dump" else name for name, _, _ in TRACED))
STATS = ("calls", "s", "self_s", "raised")


class Tracer:
    """Records spans while installed; ``install`` and ``remove`` bracket a pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.nested = array("b")      # an enclosing span has the same name
        self._stack: List[int] = []
        self._active: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
            self._active.append(0)
        clock, stack, active = time.perf_counter_ns, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.nested.append(1 if active[nid] else 0)
            self.raised.append(0)
            self.end.append(0)
            stack.append(idx)
            active[nid] += 1
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                active[nid] -= 1
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == "liechannel" or k.startswith("liechannel.")]
        for name, mod_name, attr in TRACED:
            orig = getattr(importlib.import_module(f"liechannel.{mod_name}"), attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def remove(self) -> None:
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "raised": np.frombuffer(self.raised, dtype=np.int8),
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> Dict[str, float]:
        """calls, inclusive time, self time and raised count per layer name.

        Inclusive time counts only spans with no same-named ancestor, so
        recursion is not counted twice; self time subtracts the direct
        children's spans.
        """
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) * 1e-9
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        top = np.frombuffer(self.nested, dtype=np.int8) == 0

        # a JSON write whose parent span is not cli.main belongs to save_net
        labels = np.array([REPORT_WRITE if n == "io_json._dump" else n for n in self.names],
                          dtype=object)
        span_label = labels[name]
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        span_label[(name == self._ids["io_json._dump"])
                   & (parent_name != self._ids["cli.main"])] = ""

        out: Dict[str, float] = {}
        for layer in LAYER_NAMES:
            sel = span_label == layer
            out[f"{layer}.calls"] = int(np.count_nonzero(sel))
            out[f"{layer}.s"] = float(dur[sel & top].sum())
            out[f"{layer}.self_s"] = float(self_s[sel].sum())
            out[f"{layer}.raised"] = int(a["raised"][sel].sum())
        return out
