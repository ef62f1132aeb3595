"""The argument contract: a public call returns a valid result or raises a CodecError.

The checks live in :mod:`cubecodec.errors`, one per kind of value.  The
escape table names each call that once let a ``TypeError``,
``AttributeError`` or ``ValueError`` out, or quietly accepted a bool or NaN;
the property puts one bad value into an otherwise valid call of every
exported callable.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cubecodec
from cubecodec import (
    ArgumentError,
    BenchConfig,
    CodecError,
    CompressedStream,
    CorruptError,
    CsiSideInfo,
    DeltaEStats,
    EvalReport,
    FormatError,
    PcaSideInfo,
    RateError,
    RateTarget,
    SizeLimitError,
    SpectralCube,
    ValidationError,
    compress,
    compress_with_report,
    compression_rate,
    csi_forward,
    csi_inverse,
    csi_select_knots,
    cube_delta_e,
    decompress,
    decompress_with_report,
    default_config,
    emit_csv,
    emit_table,
    natural_cubic_spline,
    parse_stream,
    pca_fit,
    pca_forward,
    pca_inverse,
    read_cube,
    run_benchmark,
    serialize_stream,
    synthesize_cube,
    write_cube,
)
from cubecodec.cli import cli_main
from cubecodec.colorimetry import ciede2000_array
from cubecodec.container import stream_nbytes
from cubecodec.errors import check_array, check_axis, check_int, check_real, check_type
from cubecodec.reduction import csi_reconstruction_matrix
from cubecodec.spatial import EncodedPlane, PlaneStack, entropy_decode_planes, entropy_encode_blocks

_CUBE = synthesize_cube(8, 8, 6, "random-smooth", seed=1)
_STREAM = compress(_CUBE, "pca", 3, quality=50)
_BLOB = serialize_stream(_STREAM)
_CSI_SIDE = csi_select_knots(6, 3)
_PCA_SIDE = pca_fit(_CUBE, 3)
_REPORT = EvalReport(image="skin", method="pca", p=3, target_cr=8.0)
_CONFIG = BenchConfig(corpus=["synth:flat:8x8x6:0"], methods=["csi"], p_values=[3],
                      repetitions=3)


def _stream_fields(**changes):
    fields = {f.name: getattr(_STREAM, f.name) for f in dataclasses.fields(_STREAM)}
    return {**fields, **changes}


# ---------------------------------------------------------------------------
# the helpers

def test_check_int_rejects_bools_fractions_and_values_out_of_range():
    assert check_int("n", np.int16(5), 1, 9) == 5
    assert check_int("n", 2 ** 70, 1) == 2 ** 70  # no upper bound by default
    for bad in (True, 5.0, "5", None, 0, 10, np.array([5])):
        with pytest.raises(ArgumentError, match=r"n must be an integer in \[1, 9\]"):
            check_int("n", bad, 1, 9)


def test_check_real_takes_an_open_interval_and_rejects_bools_and_nan():
    assert check_real("x", np.float32(0.5), 0, 1) == 0.5
    assert check_real("x", 3) == 3.0
    for bad in (0, 1, True, math.nan, math.inf, "0.5", None, 0.5 + 0j, np.array([0.5])):
        with pytest.raises(ValidationError, match=r"x must be a real number in \(0, 1\)"):
            check_real("x", bad, 0, 1, ValidationError)


def test_check_type_names_the_expected_classes():
    assert check_type("data", b"", (bytes, bytearray)) == b""
    with pytest.raises(ArgumentError, match="data must be bytes or bytearray, got NoneType"):
        check_type("data", None, (bytes, bytearray))
    with pytest.raises(ValidationError, match="cube must be SpectralCube, got str"):
        check_type("cube", "x", SpectralCube, ValidationError)


def test_check_array_casts_within_a_kind_only():
    assert check_array("a", [1, 2], np.float64).dtype == np.float64
    planes = np.zeros((2, 3), dtype=np.float32)
    assert check_array("a", planes, None) is planes  # None: any real array, not copied
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a real past float32 casts to inf without a warning
        assert check_array("a", np.array([1e300]), np.float32)[0] == np.inf
    for bad, dtype in (("x", np.float64), (None, np.float64), ([1.5], np.int64),
                       ([[1], [1, 2]], np.float64), ([1j], np.float64), (2 ** 64, np.float64)):
        with pytest.raises(ArgumentError, match="must be an array of"):
            check_array("a", bad, dtype)


@pytest.mark.parametrize("axis,match", [
    ([1.0, np.nan, 3.0], "non-finite"),
    ([1.0, np.inf], "non-finite"),
    ([-np.inf, np.inf], "non-finite"),
    ([1.0, 1.0], "finite and strictly increasing"),
    ([2.0, 1.0], "finite and strictly increasing"),
    ([[1.0, 2.0]], r"1-D with 1 to 3 values"),
    ([1.0, 2.0, 3.0, 4.0], r"1-D with 1 to 3 values"),
    (["a", "b"], "must be an array of"),
], ids=["nan", "inf", "infs", "repeat", "decreasing", "2-d", "too-long", "strings"])
def test_check_axis(axis, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NaN or inf axis never reaches np.diff
        with pytest.raises(ValidationError, match=match):
            check_axis("grid", axis, np.float64, range(1, 4), ValidationError)
    assert check_axis("grid", [3], np.float32, range(1, 4)).flags.c_contiguous


# ---------------------------------------------------------------------------
# escapes: each of these raised something other than a CodecError, or
# returned, before the checks moved into cubecodec.errors

_ESCAPES = {
    "csi_select_knots-str-n": (lambda: csi_select_knots("6", 3), ArgumentError),
    "csi_select_knots-float-n": (lambda: csi_select_knots(6.0, 3), ArgumentError),
    "csi_inverse-str-wavelengths": (
        lambda: csi_inverse(csi_forward(_CUBE, _CSI_SIDE), _CSI_SIDE, ["a"] * 6), ArgumentError),
    "natural_cubic_spline-str-knots": (
        lambda: natural_cubic_spline(["a", "b"], [1.0, 2.0], [0.5]), ArgumentError),
    "natural_cubic_spline-2d-query": (
        lambda: natural_cubic_spline([0.0, 1.0], [1.0, 2.0], np.zeros((2, 2))), ArgumentError),
    "compression_rate-str": (lambda: compression_rate(_CUBE, "10"), ArgumentError),
    "compression_rate-nan": (lambda: compression_rate(_CUBE, math.nan), ArgumentError),
    "compression_rate-bool": (lambda: compression_rate(_CUBE, True), ArgumentError),
    "synthesize_cube-float-width": (lambda: synthesize_cube(2.5, 8, 6, "flat"), ArgumentError),
    "synthesize_cube-str-seed": (lambda: synthesize_cube(8, 8, 6, "flat", seed="x"), ArgumentError),
    "synthesize_cube-negative-seed": (
        lambda: synthesize_cube(8, 8, 6, "flat", seed=-1), ArgumentError),
    "synthesize_cube-list-pattern": (lambda: synthesize_cube(8, 8, 6, ["flat"]), ArgumentError),
    "parse_stream-none": (lambda: parse_stream(None), ArgumentError),
    "read_cube-none": (lambda: read_cube(None), ArgumentError),
    "write_cube-none": (lambda: write_cube(None), ArgumentError),
    "compress-none-cube": (lambda: compress(None, "pca", 3, quality=50), ArgumentError),
    "compress-float-rate": (lambda: compress(_CUBE, "pca", 3, rate=8.0), ArgumentError),
    "compress-list-method": (lambda: compress(_CUBE, ["pca"], 3, quality=50), ArgumentError),
    "decompress-none": (lambda: decompress(None), ArgumentError),
    "serialize_stream-none": (lambda: serialize_stream(None), ArgumentError),
    "pca_fit-none-cube": (lambda: pca_fit(None, 3), ArgumentError),
    "pca_forward-none-side": (lambda: pca_forward(_CUBE, None), ArgumentError),
    "csi_forward-none-side": (lambda: csi_forward(_CUBE, None), ArgumentError),
    "cube_delta_e-none": (lambda: cube_delta_e(_CUBE, None), ArgumentError),
    "ciede2000_array-unbroadcastable": (
        lambda: ciede2000_array(np.zeros((3, 4)), np.zeros((3, 5))), ArgumentError),
    "CompressedStream-list-method": (
        lambda: CompressedStream(**_stream_fields(method=["pca"])), ValidationError),
    "CompressedStream-none-planes": (
        lambda: CompressedStream(**_stream_fields(planes=None)), ValidationError),
    "CompressedStream-none-plane-records": (
        lambda: CompressedStream(**_stream_fields(planes=[None] * 3)), ValidationError),
    # parse_stream refuses such a stream's bytes: every stream that builds also parses
    "CompressedStream-past-size-cap": (
        lambda: CompressedStream(**_stream_fields(width=2 ** 16, height=2 ** 16)), SizeLimitError),
    "EncodedPlane-none-payload": (lambda: EncodedPlane(0.0, 1.0, None), ValidationError),
    "EncodedPlane-str-offset": (lambda: EncodedPlane(offset="a", scale=1.0, payload=b""),
                                ValidationError),
    "EncodedPlane-bool-scale": (lambda: EncodedPlane(offset=0.0, scale=True, payload=b""),
                                ValidationError),
    "SpectralCube-bool-width": (
        lambda: SpectralCube(width=True, height=8, bands=6, wavelengths=_CUBE.wavelengths,
                             samples=_CUBE.samples[:, :, :1]), ValidationError),
    "PcaSideInfo-str-mean": (
        lambda: PcaSideInfo(mean="a", basis=_PCA_SIDE.basis, eigenvalues=_PCA_SIDE.eigenvalues),
        ValidationError),
    "CsiSideInfo-float-knots": (lambda: CsiSideInfo(knot_indices=[0.0, 2.5, 5.0]), ValidationError),
    "PcaSideInfo-zero-components": (
        lambda: PcaSideInfo(mean=np.zeros(3), basis=np.zeros((3, 0)), eigenvalues=np.zeros(0)),
        ValidationError),
    "BenchConfig-str-repetitions": (
        lambda: BenchConfig(corpus=["skin"], repetitions="5"), ValidationError),
    "BenchConfig-float-repetitions": (
        lambda: BenchConfig(corpus=["skin"], repetitions=5.5), ValidationError),
    "BenchConfig-str-p": (lambda: BenchConfig(corpus=["skin"], p_values=["a"]), ValidationError),
    "BenchConfig-list-method": (
        lambda: BenchConfig(corpus=["skin"], methods=[["pca"]]), ValidationError),
    "BenchConfig-none-corpus-entry": (lambda: BenchConfig(corpus=[None]), ValidationError),
    "BenchConfig-short-size": (lambda: BenchConfig(corpus=[], size_sweep=[(8,)]), ValidationError),
    "emit_csv-str": (lambda: emit_csv("abc"), ArgumentError),
    "emit_table-none-report": (lambda: emit_table([None]), ArgumentError),
    "run_benchmark-none": (lambda: run_benchmark(None), ArgumentError),
    # the entropy decoder takes a list or tuple of bytes payloads and one block count
    "entropy_decode_planes-negative-count": (lambda: entropy_decode_planes([b"\0"], -1), ArgumentError),
    "entropy_decode_planes-bool-count": (lambda: entropy_decode_planes([b"\0"], True), ArgumentError),
    "entropy_decode_planes-float-count": (lambda: entropy_decode_planes([b"\0"], 1.5), ArgumentError),
    "entropy_decode_planes-str-count": (lambda: entropy_decode_planes([b"\0"], "1"), ArgumentError),
    "entropy_decode_planes-list-count": (
        lambda: entropy_decode_planes([b"", b""], [0]), ArgumentError),
    "entropy_decode_planes-none-payloads": (lambda: entropy_decode_planes(None, 0), ArgumentError),
    "entropy_decode_planes-bytes-payloads": (lambda: entropy_decode_planes(b"\0", 1), ArgumentError),
    "entropy_decode_planes-none-payload": (lambda: entropy_decode_planes([None], 0), ArgumentError),
    "entropy_decode_planes-str-payload": (lambda: entropy_decode_planes(["\0"], 1), ArgumentError),
    "stream_nbytes-unknown-method": (lambda: stream_nbytes("x", 2, 3, 0), ArgumentError),
    "PlaneStack.of-str-sample": (lambda: PlaneStack.of([[[1, "a"]]]), ValidationError),
    "PlaneStack.of-ragged": (lambda: PlaneStack.of([[[1, 2], [3]]]), ValidationError),
    "PlaneStack.of-complex": (lambda: PlaneStack.of(np.ones((1, 8, 8), complex)), ValidationError),
    "entropy_encode_blocks-ragged": (lambda: entropy_encode_blocks([[[1], [1, 2]]]), ArgumentError),
    "csi_reconstruction_matrix-none-side": (
        lambda: csi_reconstruction_matrix(None, _CUBE.wavelengths), ArgumentError),
    "csi_reconstruction_matrix-knots-past-grid": (
        lambda: csi_reconstruction_matrix(CsiSideInfo([0, 3, 9]), _CUBE.wavelengths), ArgumentError),
}


@pytest.mark.parametrize("call,error", list(_ESCAPES.values()), ids=list(_ESCAPES))
def test_escape_now_raises_a_codec_error(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("buffer", [bytes, bytearray, memoryview])
def test_parsers_take_any_bytes_like_buffer(buffer):
    assert parse_stream(buffer(_BLOB)) == _STREAM
    assert read_cube(buffer(write_cube(_CUBE))) == _CUBE


def _uint32_view(blob):
    return memoryview(blob).cast("I")


def _2d_view(blob):
    return memoryview(blob).cast("B", (4, len(blob) // 4))


def _strided_view(blob):
    spread = np.zeros(2 * len(blob), dtype=np.uint8)
    spread[::2] = np.frombuffer(blob, dtype=np.uint8)
    return memoryview(spread)[::2]


@pytest.mark.parametrize("view", [_uint32_view, _2d_view, _strided_view],
                         ids=["uint32", "2-d", "non-contiguous"])
def test_parsers_read_any_memoryview_byte_for_byte(view):
    # a typed or 2-D view counts items, not bytes, and a strided one has no
    # contiguous buffer: each parser reads the view's raw bytes in C order
    stream = compress(_CUBE, "pca", 3, quality=42)
    blobs = [serialize_stream(stream), write_cube(_CUBE)]
    assert [len(blob) % 4 for blob in blobs] == [0, 0]  # so that a uint32 view holds each
    assert all(bytes(view(blob)) == blob for blob in blobs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parse_stream(view(blobs[0])) == parse_stream(blobs[0]) == stream
        assert read_cube(view(blobs[1])) == read_cube(blobs[1]) == _CUBE


def test_cli_bench_exits_2_for_a_p_value_scmp_cannot_hold(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("corpus = synth:flat:8x8x6:0\nmethods = csi\np_values = 70000\n")
    assert cli_main(["bench", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "p must be an integer" in captured.err
    assert captured.out == ""


def test_cli_synth_exits_2_for_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "cube.scub"
    assert cli_main(["synth", "--out", str(out), "--width", "8", "--height", "8",
                     "--bands", "6", "--pattern", "flat", "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: seed must be an integer")
    assert not out.exists()


# ---------------------------------------------------------------------------
# one value equality for the records

@pytest.mark.parametrize("record,other", [
    (_CUBE, synthesize_cube(8, 8, 6, "random-smooth", seed=2)),
    (_STREAM, compress(_CUBE, "pca", 3, quality=60)),
    (_PCA_SIDE, pca_fit(_CUBE, 2)),
    (_CSI_SIDE, csi_select_knots(6, 4)),
], ids=["cube", "stream", "pca-side", "csi-side"])
def test_records_compare_by_value(record, other):
    copy = dataclasses.replace(record)
    assert copy is not record and copy == record and not copy != record
    assert record != other
    assert record.__eq__("x") is NotImplemented and record != "x"
    assert record.__eq__(_REPORT) is NotImplemented


# ---------------------------------------------------------------------------
# frozen records: a built record keeps the values its checks passed

_MUTATIONS = {
    # each of these once stuck, and the stream or config then failed far from the change
    "stream-planes": (lambda stream, config: setattr(stream, "planes", None),
                      dataclasses.FrozenInstanceError),
    "stream-quality": (lambda stream, config: setattr(stream, "quality", 300),
                       dataclasses.FrozenInstanceError),
    "stream-side-mean": (lambda stream, config: operator.setitem(stream.side.mean, 0, math.nan),
                         ValueError),
    "config-repetitions": (lambda stream, config: setattr(config, "repetitions", 0),
                           dataclasses.FrozenInstanceError),
    "stream-plane-record": (lambda stream, config: operator.setitem(stream.planes, 0, None),
                            TypeError),
    "stream-wavelengths": (lambda stream, config: operator.setitem(stream.wavelengths, 0, 0.0),
                           ValueError),
    "stream-side-basis": (lambda stream, config: operator.setitem(stream.side.basis, (0, 0), 2.0),
                          ValueError),
    "csi-knots": (
        lambda stream, config: operator.setitem(csi_select_knots(6, 3).knot_indices, 1, 5),
        ValueError),
}


@pytest.mark.parametrize("mutate,error", list(_MUTATIONS.values()), ids=list(_MUTATIONS))
def test_records_refuse_a_change_once_built(mutate, error):
    stream = compress(_CUBE, "pca", 3, quality=50)
    config = dataclasses.replace(_CONFIG)
    blob = serialize_stream(stream)
    with pytest.raises(error):
        mutate(stream, config)
    assert serialize_stream(stream) == blob and parse_stream(blob) == stream
    assert config == _CONFIG


def test_records_copy_the_callers_small_arrays():
    # each record keeps read-only copies of its small arrays: the caller's own
    # arrays stay writable, and writing to them leaves the record as built
    mean, basis, eigenvalues = np.zeros(3), np.eye(3)[:, :2], np.ones(2)
    knots = np.array([0, 2, 5])
    cube_wl, stream_wl = _CUBE.wavelengths.copy(), _STREAM.wavelengths.copy()
    samples = _CUBE.samples.copy()
    pca = PcaSideInfo(mean=mean, basis=basis, eigenvalues=eigenvalues)
    csi = CsiSideInfo(knots)
    cube = SpectralCube(8, 8, 6, cube_wl, samples)
    stream = CompressedStream(**_stream_fields(wavelengths=stream_wl))
    mean[0] = 1.0
    basis[0, 0] = 0.5
    eigenvalues[0] = 3.0
    knots[1] = 4
    cube_wl[0] = stream_wl[0] = 1.0
    assert (pca.mean[0], pca.basis[0, 0], pca.eigenvalues[0]) == (0.0, 1.0, 1.0)
    assert csi.knot_indices[1] == 2
    assert cube.wavelengths[0] == _CUBE.wavelengths[0]
    assert stream.wavelengths[0] == _STREAM.wavelengths[0]
    for kept in (pca.mean, pca.basis, pca.eigenvalues, csi.knot_indices, cube.wavelengths,
                 stream.wavelengths):
        assert not kept.flags.writeable
    # the samples are taken over as they are, not copied
    assert cube.samples is samples and not samples.flags.writeable


# ---------------------------------------------------------------------------
# the property: one bad value in an otherwise valid call of every export

#: (callable, positional args, keyword args) of one valid call per export
_VALID_CALLS = {
    **{cls.__name__: (cls, ("message",), {}) for cls in (
        ArgumentError, CodecError, CorruptError, FormatError, SizeLimitError, ValidationError)},
    "RateError": (RateError, ("message",), {"best_cr": 7.5}),
    "BenchConfig": (BenchConfig, (["skin"],), dict(
        methods=["pca"], p_values=[3], target_cr=8.0, tolerance=0.05, repetitions=3,
        size_sweep=[(8, 8)])),
    "EvalReport": (EvalReport, ("skin", "pca", 3, 8.0), {}),
    "default_config": (default_config, (), {}),
    "emit_csv": (emit_csv, ([_REPORT],), {}),
    "emit_table": (emit_table, ([_REPORT],), {}),
    # config is its only argument, so every drawn call has a bad config and never runs
    "run_benchmark": (run_benchmark, (_CONFIG,), {}),
    "DeltaEStats": (DeltaEStats, (1.0, 2.0, 1.5, np.zeros((8, 8))), {}),
    "cube_delta_e": (cube_delta_e, (_CUBE, _CUBE), {}),
    "CompressedStream": (CompressedStream, (), _stream_fields()),
    "RateTarget": (RateTarget, (8.0,), {"tolerance": 0.05}),
    "compress": (compress, (_CUBE, "pca", 3), {"rate": RateTarget(4.0)}),
    "compress_with_report": (compress_with_report, (_CUBE, "csi", 3), {"quality": 50}),
    "compression_rate": (compression_rate, (_CUBE, 1000), {}),
    "decompress": (decompress, (_STREAM,), {}),
    "decompress_with_report": (decompress_with_report, (_STREAM,), {}),
    "parse_stream": (parse_stream, (_BLOB,), {}),
    "serialize_stream": (serialize_stream, (_STREAM,), {}),
    "SpectralCube": (SpectralCube, (), dict(width=8, height=8, bands=6,
                                            wavelengths=_CUBE.wavelengths,
                                            samples=_CUBE.samples)),
    "read_cube": (read_cube, (write_cube(_CUBE),), {}),
    "synthesize_cube": (synthesize_cube, (8, 8, 6, "random-smooth"), {"seed": 1}),
    "write_cube": (write_cube, (_CUBE,), {}),
    "CsiSideInfo": (CsiSideInfo, (), {"knot_indices": [0, 2, 5]}),
    "PcaSideInfo": (PcaSideInfo, (), dict(mean=_PCA_SIDE.mean, basis=_PCA_SIDE.basis,
                                          eigenvalues=_PCA_SIDE.eigenvalues)),
    "csi_forward": (csi_forward, (_CUBE, _CSI_SIDE), {}),
    "csi_inverse": (csi_inverse, (csi_forward(_CUBE, _CSI_SIDE), _CSI_SIDE, _CUBE.wavelengths), {}),
    "csi_select_knots": (csi_select_knots, (6, 3), {}),
    "pca_fit": (pca_fit, (_CUBE, 3), {}),
    "pca_forward": (pca_forward, (_CUBE, _PCA_SIDE), {}),
    "pca_inverse": (pca_inverse, (pca_forward(_CUBE, _PCA_SIDE), _PCA_SIDE, _CUBE.wavelengths),
                    {}),
    "natural_cubic_spline": (natural_cubic_spline, ([0.0, 1.0, 2.0], [1.0, 3.0, 2.0], [0.5, 1.5]),
                             {}),
}

#: bad values: none of them sizes a large allocation (a huge integer is past every bound)
_BAD_VALUES = st.one_of(
    st.sampled_from([None, True, False, 1.5, "x", math.nan, math.inf, -math.inf, -1, 2 ** 64,
                     np.zeros((2, 3)), np.zeros(7), np.full(6, np.nan)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(max_value=-1),
    st.integers(min_value=2 ** 40),
    st.text(max_size=3),
)


def test_every_export_has_a_valid_call():
    exported = {name for name in dir(cubecodec)
                if not name.startswith("_") and callable(getattr(cubecodec, name))}
    assert exported == set(_VALID_CALLS)


@pytest.mark.parametrize("name", sorted(_VALID_CALLS))
@settings(max_examples=40)
@given(data=st.data())
def test_a_bad_argument_returns_or_raises_a_codec_error(name, data):
    func, args, kwargs = _VALID_CALLS[name]
    slots = [*range(len(args)), *kwargs]
    args, kwargs = list(args), dict(kwargs)
    if slots:
        slot = data.draw(st.sampled_from(slots), label="slot")
        bad = data.draw(_BAD_VALUES, label="bad value")
        if isinstance(slot, int):
            args[slot] = bad
        else:
            kwargs[slot] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            func(*args, **kwargs)
        except CodecError:
            pass
