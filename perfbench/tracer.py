"""Outside-in layer trace of vlinetomo.

The tracer wraps public functions of the ``vlinetomo`` modules without
editing them: every module-level name bound to a traced function object
is rebound to a wrapper, so calls between modules (``beam_field`` from
``vline`` and ``star``, ``forward_L`` from ``cli``) go through it too.
Each call becomes a span holding its name, start, end, parent span, case
id and counts.  Spans stay in memory until the run ends; ``case_metrics``
then turns the spans of each case into the per-layer metrics.

Spans of ``_blocks`` (the thread pool) are transparent for self time: the
work inside a block belongs to the layer that submitted it.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np
from vlinetomo.star import _angular_distance

TRANSPARENT = ("_blocks.map_blocks", "_blocks.block")


@dataclass
class Span:
    name: str
    parent: int | None
    case: object
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans for calls into the vlinetomo modules."""

    def __init__(self):
        self.spans: dict[int, Span] = {}
        self.case = None
        self.windows: dict[object, tuple[float, float]] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._rebound = []
        self._last_singular = None

    # -- span recording -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self, name, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        span = Span(name, parent, self.case)
        self.spans[sid] = span
        stack.append(sid)
        span.start = time.perf_counter()
        return sid, span

    def _end(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, name, fn, counter=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            _, span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts.update(counter(bound.arguments, result))
            return result

        return traced

    def _wrap_map_blocks(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def map_blocks(block_fn, *args, **kwargs):
            bound = sig.bind(block_fn, *args, **kwargs)
            bound.apply_defaults()
            sid, span = self._begin("_blocks.map_blocks")

            def block(s, e):
                _, bspan = self._begin("_blocks.block", parent=sid)
                try:
                    return block_fn(s, e)
                finally:
                    self._end(bspan)

            try:
                return fn(block, *args, **kwargs)
            finally:
                self._end(span)
                span.counts["workers"] = max(1, int(bound.arguments["workers"]))

        return map_blocks

    # -- installation ---------------------------------------------------

    def _counters(self):
        def singular(_, result):
            self._last_singular = result
            return {}

        def guarded(a, _):
            sing = self._last_singular
            bad = np.concatenate([sing.z1, sing.z2])
            dist = _angular_distance(a["dsino"].angles()[:, None], bad[None, :])
            return {"guarded": int(np.sum(dist.min(axis=1)
                                          < np.deg2rad(a["guard_deg"])))}

        return {
            "beam_field": lambda a, _: {"vertices": a["h"].grid.nx * a["h"].grid.ny},
            "bilinear": lambda a, _: {"points": int(np.size(a["px"]))},
            "sample_with_strips": lambda a, _: {"points": int(np.size(a["px"]))},
            "solve_dirichlet_disc": lambda _, r: {"iterations": int(r.iterations),
                                                  "residual": float(r.residual)},
            "radon_transform_field": lambda _, r: {"lines": int(r.values.size)},
            "singular_directions": singular,
            "apply_q": guarded,
            "read_vlt1": lambda a, _: {"bytes": os.path.getsize(a["path"])},
            "write_vlt1": lambda a, _: {"bytes": os.path.getsize(a["path"])},
        }

    def install(self):
        """Rebind every traced function in every loaded vlinetomo module."""
        from vlinetomo import (_blocks, beam, cli, io, operators, phantoms,
                               poisson, radon, star, vline)

        counters = self._counters()
        targets = {
            phantoms: ("make_phantom",),
            beam: ("beam_field", "invert_signed", "transform_beam_values",
                   "sample_with_strips"),
            operators: ("bilinear",),
            poisson: ("solve_dirichlet_disc", "solve_free_space"),
            vline: ("forward_L", "forward_T", "forward_I", "forward_J",
                    "mixed_derivative", "recover_curl", "recover_div",
                    "recover_field_LT", "recover_field_LI",
                    "recover_field_TJ", "recover_potential",
                    "recover_stream", "_moment_pipeline"),
            radon: ("radon_transform_field", "fbp_inverse"),
            star: ("forward_star", "invert_star", "apply_q",
                   "singular_directions"),
            io: ("read_vlt1", "write_vlt1"),
            cli: ("main",),
        }
        replace = {}
        for module, names in targets.items():
            layer = module.__name__.rsplit(".", 1)[-1]
            for name in names:
                fn = getattr(module, name)
                replace[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn,
                                                  counters.get(name)))
        fn = _blocks.map_blocks
        replace[id(fn)] = (fn, self._wrap_map_blocks(fn))

        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "vlinetomo"
                                      or mod_name.startswith("vlinetomo.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._rebound.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    # -- aggregation ----------------------------------------------------

    def case_spans(self, case):
        return {sid: s for sid, s in self.spans.items() if s.case == case}

    def _owner(self, sid):
        """Nearest ancestor that is not a transparent pool span."""
        parent = self.spans[sid].parent
        while parent is not None and self.spans[parent].name in TRANSPARENT:
            parent = self.spans[parent].parent
        return parent

    def self_times(self, spans):
        """Span duration minus the time its child spans cover."""
        children: dict = {}
        for sid, span in spans.items():
            if span.name not in TRANSPARENT:
                children.setdefault(self._owner(sid), []).append(span)
        out = {sid: s.end - s.start - _covered(children.get(sid, ()), s.start, s.end)
               for sid, s in spans.items() if s.name not in TRANSPARENT}
        return out, children.get(None, [])


def _covered(spans, lo, hi):
    """Length of the union of span intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for s in sorted(spans, key=lambda s: s.start):
        a, b = max(s.start, lo), min(s.end, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# per-layer metric -> (span name, quantity, unit); quantity is "total"
# (inclusive seconds), "self" (self seconds), or a count key summed over
# spans ("max:" keeps the largest value instead)
LAYER_METRICS = {
    "beam.beam_field_s": ("beam.beam_field", "self", "s"),
    "beam.beam_field_incl_s": ("beam.beam_field", "total", "s"),
    "beam.vertices": ("beam.beam_field", "vertices", "count"),
    "operators.bilinear_s": ("operators.bilinear", "total", "s"),
    "operators.bilinear_points": ("operators.bilinear", "points", "count"),
    "beam.invert_signed_s": ("beam.invert_signed", "total", "s"),
    "beam.transform_beam_values_self_s": ("beam.transform_beam_values", "self", "s"),
    "beam.sample_with_strips_self_s": ("beam.sample_with_strips", "self", "s"),
    "beam.strip_points": ("beam.sample_with_strips", "points", "count"),
    "poisson.dirichlet_s": ("poisson.solve_dirichlet_disc", "total", "s"),
    "poisson.cg_iterations": ("poisson.solve_dirichlet_disc", "iterations", "count"),
    "poisson.cg_residual": ("poisson.solve_dirichlet_disc", "max:residual", "1"),
    "poisson.free_space_s": ("poisson.solve_free_space", "total", "s"),
    "vline.stencil_s": ("vline.mixed_derivative", "total", "s"),
    "vline.moment_self_s": ("vline._moment_pipeline", "self", "s"),
    "radon.transform_field_s": ("radon.radon_transform_field", "total", "s"),
    "radon.line_integrals": ("radon.radon_transform_field", "lines", "count"),
    "radon.fbp_s": ("radon.fbp_inverse", "total", "s"),
    "star.apply_q_s": ("star.apply_q", "total", "s"),
    "star.singular_directions_s": ("star.singular_directions", "total", "s"),
    "star.forward_self_s": ("star.forward_star", "self", "s"),
    "star.guarded_angles": ("star.apply_q", "guarded", "count"),
    "io.read_s": ("io.read_vlt1", "total", "s"),
    "io.write_s": ("io.write_vlt1", "total", "s"),
    "io.bytes_read": ("io.read_vlt1", "bytes", "bytes"),
    "io.bytes_written": ("io.write_vlt1", "bytes", "bytes"),
    "cli.self_s": ("cli.main", "self", "s"),
}
VLINE_FORWARD = ("vline.forward_L", "vline.forward_T", "vline.forward_I",
                 "vline.forward_J")


def case_metrics(tracer, case):
    """Per-layer totals for one case, keyed by metric name."""
    spans = tracer.case_spans(case)
    selfs, top = tracer.self_times(spans)
    out = {}
    for metric, (name, quantity, _) in LAYER_METRICS.items():
        mine = [(sid, s) for sid, s in spans.items() if s.name == name]
        if quantity == "total":
            out[metric] = sum(s.end - s.start for _, s in mine)
        elif quantity == "self":
            out[metric] = sum(selfs[sid] for sid, _ in mine)
        elif quantity.startswith("max:"):
            key = quantity[4:]
            out[metric] = max((s.counts[key] for _, s in mine), default=0.0)
        else:
            out[metric] = sum(s.counts[quantity] for _, s in mine)
    out["vline.forward_self_s"] = sum(selfs[sid] for sid, s in spans.items()
                                      if s.name in VLINE_FORWARD)

    maps = [s for s in spans.values() if s.name == "_blocks.map_blocks"]
    blocks = [s for s in spans.values() if s.name == "_blocks.block"]
    busy = sum(s.end - s.start for s in blocks)
    capacity = sum((s.end - s.start) * s.counts["workers"] for s in maps)
    # metric names may not start with "_", so _blocks reports as blocks.*
    out["blocks.count"] = len(blocks)
    out["blocks.busy_s"] = busy
    out["blocks.parallel_eff"] = busy / capacity if capacity > 0 else 1.0

    lo, hi = tracer.windows[case]
    out["trace.unattributed_s"] = (hi - lo) - _covered(top, lo, hi)
    return out


COUNT_METRICS = ("operators.bilinear_points", "beam.vertices",
                 "beam.strip_points", "radon.line_integrals",
                 "poisson.cg_iterations")


def metric_units():
    units = {m: unit for m, (_, _, unit) in LAYER_METRICS.items()}
    units.update({"vline.forward_self_s": "s", "blocks.count": "count",
                  "blocks.busy_s": "s", "blocks.parallel_eff": "1",
                  "trace.unattributed_s": "s", "trace.overhead_frac": "1",
                  "phantoms.make_s": "s"})
    return units
