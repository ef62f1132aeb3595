"""In-memory span tracing around the codec's public layer functions.

A traced pass installs wrappers on module attributes, in the namespaces the
codec calls them from (``cubecodec.container.encode_plane`` is the name
``encode_planes`` looks up, ``cubecodec.spatial.entropy_encode_blocks`` the
one ``encode_plane`` looks up, and so on).  Nothing in the codec is edited.
Each span records name, start, end, parent span and pass id; spans stay in a
list until the run writes them out.

A wrapper records a span only while an operation span opened by the
benchmark is on the stack, so output checks made between operations are not
traced.  Counts a wrapper takes (blocks, nonzero coefficients, payload
bytes) are measured inside a ``trace.count`` child span, which keeps their
cost out of the self time of every codec span.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


def _count_entropy_encode(args, result):
    qblocks = np.asarray(args[0])
    return {"blocks": int(qblocks.shape[0]), "nonzero_coeffs": int(np.count_nonzero(qblocks)),
            "payload_bytes": len(result)}


#: (module, attribute, span name, counter).  The top-level entries are the
#: names the benchmark itself calls; the rest are the names the codec's own
#: functions look up at call time.
TRACE_POINTS = (
    ("cubecodec", "read_cube", "cube.read_cube", None),
    ("cubecodec", "write_cube", "cube.write_cube", None),
    ("cubecodec", "compress_with_report", "container.compress_with_report", None),
    ("cubecodec", "serialize_stream", "container.serialize_stream", None),
    ("cubecodec", "parse_stream", "container.parse_stream", None),
    ("cubecodec", "decompress", "container.decompress", None),
    ("cubecodec", "cube_delta_e", "colorimetry.cube_delta_e", None),
    ("cubecodec.container", "serialize_stream", "container.serialize_stream", None),
    ("cubecodec.container", "pca_fit", "reduction.pca_fit", None),
    ("cubecodec.container", "csi_select_knots", "reduction.csi_select_knots", None),
    ("cubecodec.container", "pca_forward", "reduction.pca_forward", None),
    ("cubecodec.container", "csi_forward", "reduction.csi_forward", None),
    ("cubecodec.container", "pca_inverse", "reduction.pca_inverse", None),
    ("cubecodec.container", "csi_inverse", "reduction.csi_inverse", None),
    ("cubecodec.container", "encode_plane", "spatial.encode_plane", None),
    ("cubecodec.container", "decode_plane", "spatial.decode_plane", None),
    ("cubecodec.spatial", "entropy_encode_blocks", "spatial.entropy_encode_blocks",
     _count_entropy_encode),
    ("cubecodec.spatial", "entropy_decode_blocks", "spatial.entropy_decode_blocks", None),
    ("cubecodec.reduction", "natural_cubic_spline", "spline.natural_cubic_spline", None),
    ("cubecodec.colorimetry", "spectra_to_xyz", "colorimetry.spectra_to_xyz", None),
    ("cubecodec.colorimetry", "ciede2000_array", "colorimetry.ciede2000_array", None),
)

#: Per-layer metric -> (spans whose self time it sums, the end-to-end metric
#: it should move).  Milliseconds of self time per pass, except
#: ``container.serialize_ms``, which is per compress.
LAYER_TIMES = {
    "spatial.entropy_encode_ms": (("spatial.entropy_encode_blocks",), "compress_s"),
    "spatial.encode_plane_ms": (("spatial.encode_plane",), "compress_s"),
    "spatial.entropy_decode_ms": (("spatial.entropy_decode_blocks",), "decompress_s"),
    "spatial.decode_plane_ms": (("spatial.decode_plane",), "decompress_s"),
    "container.serialize_ms": (("container.serialize_stream",), "compress_s"),
    "container.parse_ms": (("container.parse_stream",), "decompress_s"),
    "container.compress_self_ms": (("container.compress_with_report",), "compress_s"),
    "reduction.fit_ms": (("reduction.pca_fit", "reduction.csi_select_knots"), "compress_s"),
    "reduction.forward_ms": (("reduction.pca_forward", "reduction.csi_forward"), "compress_s"),
    "reduction.inverse_ms": (("reduction.pca_inverse", "reduction.csi_inverse"), "decompress_s"),
    "spline.solve_ms": (("spline.natural_cubic_spline",), "decompress_s"),
    "cube.read_ms": (("cube.read_cube",), "compress_s"),
    "cube.write_ms": (("cube.write_cube",), "decompress_s"),
    "colorimetry.xyz_ms": (("colorimetry.spectra_to_xyz",), "score_s"),
    "colorimetry.ciede2000_ms": (("colorimetry.ciede2000_array",), "score_s"),
}

#: Per-layer counts and ratios -> (unit, the end-to-end metric they should
#: move).  The ``spatial`` counts are per pass, the ``container`` ones per
#: compress; ``trace.overhead_frac`` is traced over untraced compress_s, minus 1.
LAYER_COUNTS = {
    "spatial.blocks": ("count", "compress_s"),
    "spatial.nonzero_coeffs": ("count", "compress_s"),
    "spatial.payload_bytes": ("bytes", "compress_s"),
    "container.rate_probes": ("count", "compress_s"),
    "container.useful_encode_frac": ("ratio", "compress_s"),
    "container.serialize_calls": ("count", "compress_s"),
    "trace.overhead_frac": ("ratio", "compress_s"),
}


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None  # index in Tracer.spans; None for an operation root
    pass_id: int | None
    start_ns: int = 0
    end_ns: int = 0
    counts: dict | None = None


class Tracer:
    """Span recorder: spans in start order, each pointing at its parent by index."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._saved = []
        self.pass_id = None

    @contextmanager
    def span(self, name):
        """Open a span; at the bottom of the stack it is an operation root."""
        span = Span(name, self._stack[-1] if self._stack else None, self.pass_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start_ns = time.perf_counter_ns()
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if counter is not None:
                    with self.span("trace.count"):
                        span.counts = counter(args, result)
            return result
        return traced

    def install(self):
        """Wrap every trace point present; a point the codec no longer has is listed in ``missing``."""
        self.missing = []
        for module_name, attr, name, counter in TRACE_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, counter))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times_ns(spans):
    """Per span: duration minus the time its direct children cover (children never overlap)."""
    out = [s.end_ns - s.start_ns for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end_ns - s.start_ns
    return out


def _root_of(spans):
    roots = []
    for i, s in enumerate(spans):
        roots.append(i if s.parent is None else roots[s.parent])
    return roots


def pass_layers(spans, pass_id):
    """Per-layer metrics of one traced pass, from the spans carrying its pass id."""
    selfs = self_times_ns(spans)
    by_name = {}
    counts = {"blocks": 0, "nonzero_coeffs": 0, "payload_bytes": 0, "probes": 0}
    serialize_calls = 0
    compresses = 0
    for span, self_ns in zip(spans, selfs):
        if span.pass_id != pass_id:
            continue
        by_name[span.name] = by_name.get(span.name, 0) + self_ns
        if span.counts:
            for key in counts.keys() & span.counts.keys():
                counts[key] += span.counts[key]
        if span.name == "container.serialize_stream":
            serialize_calls += 1
        elif span.name == "op.compress":
            compresses += 1
    out = {metric: sum(by_name.get(n, 0) for n in names) / 1e6
           for metric, (names, _) in LAYER_TIMES.items()}
    out["container.serialize_ms"] /= max(compresses, 1)
    out["spatial.blocks"] = counts["blocks"]
    out["spatial.nonzero_coeffs"] = counts["nonzero_coeffs"]
    out["spatial.payload_bytes"] = counts["payload_bytes"]
    out["container.rate_probes"] = counts["probes"] / max(compresses, 1)
    out["container.useful_encode_frac"] = compresses / counts["probes"] if counts["probes"] else 0.0
    out["container.serialize_calls"] = serialize_calls / max(compresses, 1)
    return out


def self_shares(spans):
    """For each operation kind, each span name's share of the operation's total self time."""
    selfs = self_times_ns(spans)
    roots = _root_of(spans)
    totals = {}
    for span, self_ns, root in zip(spans, selfs, roots):
        per_op = totals.setdefault(spans[root].name, {})
        per_op[span.name] = per_op.get(span.name, 0) + self_ns
    out = {}
    for op, per_name in totals.items():
        whole = sum(per_name.values()) or 1
        out[op] = dict(sorted(((n, v / whole) for n, v in per_name.items()),
                              key=lambda kv: -kv[1]))
    return out
