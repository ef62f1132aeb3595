"""End-to-end codec tests: stream format, rate control, reconstruction."""

import dataclasses
import functools
import hashlib
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubecodec import colorimetry, container, reduction
from cubecodec.colorimetry import cube_delta_e
from cubecodec.container import (
    SPECTRAL_METHODS,
    CompressedStream,
    RateTarget,
    compress,
    compress_with_report,
    compression_rate,
    decompress,
    decompress_with_report,
    parse_stream,
    serialize_stream,
    stream_nbytes,
)
from cubecodec.cube import SpectralCube, scub_nbytes, synthesize_cube, write_cube
from cubecodec.errors import (
    ArgumentError,
    CodecError,
    CorruptError,
    FormatError,
    RateError,
    SizeLimitError,
    ValidationError,
)
from cubecodec.bench import (make_chart_cube, make_dark_cube, make_narrowband_cube, make_skin_cube,
                              make_sweep_cube)
from cubecodec.reduction import CsiSideInfo, PcaSideInfo

from conftest import flip_bit, forged_scmp, random_cube


def _flat_cube(width=16, height=16, bands=8):
    wl = (400.0 + 10.0 * np.arange(bands)).astype(np.float32)
    return SpectralCube(width=width, height=height, bands=bands,
                        wavelengths=wl,
                        samples=np.full((bands, height, width), 0.5, np.float32))


# ---------------------------------------------------------------------------
# serialization

@pytest.mark.parametrize("method,p", [("pca", 3), ("pca", 5), ("csi", 2), ("csi", 4)])
def test_serialize_parse_roundtrip_bitexact(method, p):
    cube = random_cube(60, width=6, height=5, bands=5)
    stream = compress(cube, method, p, quality=70)
    blob = serialize_stream(stream)
    back = parse_stream(blob)
    assert back == stream
    assert serialize_stream(back) == blob


def test_stream_layout_sizes():
    cube = random_cube(61, width=9, height=7, bands=6)
    n = cube.bands
    for method, p in (("pca", 4), ("csi", 4)):
        stream = compress(cube, method, p, quality=50)
        blob = serialize_stream(stream)
        side = SPECTRAL_METHODS[method].side_nbytes(n, p)
        payload = sum(len(pl.payload) for pl in stream.planes)
        assert len(blob) == 19 + 4 * n + side + 29 * p + payload
        assert stream_nbytes(method, p, n, payload) == len(blob)


def test_side_info_accounting():
    # same plane records, different methods: size gap is exactly the side info
    cube = random_cube(62, width=8, height=8, bands=6)
    n, p = 6, 4
    pca_stream = compress(cube, "pca", p, quality=50)
    csi_stream = compress(cube, "csi", p, quality=50)
    shared = CompressedStream(
        method="csi", side=csi_stream.side, wavelengths=cube.wavelengths,
        quality=50, planes=pca_stream.planes, width=cube.width,
        height=cube.height,
    )
    gap = len(serialize_stream(pca_stream)) - len(serialize_stream(shared))
    pca_side = SPECTRAL_METHODS["pca"].side_nbytes(n, p)
    csi_side = SPECTRAL_METHODS["csi"].side_nbytes(n, p)
    assert gap == pca_side - csi_side
    assert pca_side == 4 * n + 4 * n * p + 4 * p
    assert csi_side == 2 * p


def test_side_info_type_must_match_method():
    cube = random_cube(62, width=8, height=8, bands=6)
    pca_stream = compress(cube, "pca", 4, quality=50)
    csi_stream = compress(cube, "csi", 4, quality=50)
    for stream, other in ((pca_stream, csi_stream), (csi_stream, pca_stream)):
        with pytest.raises(ValidationError):
            CompressedStream(
                method=stream.method, side=other.side, wavelengths=cube.wavelengths,
                quality=50, planes=stream.planes, width=cube.width,
                height=cube.height,
            )


def test_side_info_beyond_float32_is_a_validation_error():
    # band variances past float32 cannot be stored as PCA eigenvalues
    wl = (400.0 + 10.0 * np.arange(4)).astype(np.float32)
    samples = np.clip(np.random.default_rng(0).normal(0.0, 1e38, (4, 8, 8)), -3e38, 3e38)
    cube = SpectralCube(width=8, height=8, bands=4, wavelengths=wl,
                        samples=samples.astype(np.float32))
    with np.errstate(over="ignore"), pytest.raises(ValidationError):
        compress(cube, "pca", 2, quality=50)


def test_oversized_pca_side_info_raises_only_a_codec_error():
    # eigenvalues near 8e60 overflow the f32 side info: the cast warns nothing
    # and PcaSideInfo refuses the inf; CSI keeps no eigenvalues and round-trips the cube
    sign = np.where(np.indices((16, 16)).sum(axis=0) % 2 == 0, 1e30, -1e30)
    samples = np.broadcast_to(sign, (8, 16, 16)).astype(np.float32)
    cube = SpectralCube(width=16, height=16, bands=8,
                        wavelengths=(400.0 + 10.0 * np.arange(8)).astype(np.float32),
                        samples=samples)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            compress(cube, "pca", 4, quality=90)
        stream = compress(cube, "csi", 4, quality=90)
        decoded = decompress(parse_stream(serialize_stream(stream)))
    assert np.abs(decoded.samples - samples).max() < 0.05e30


def test_parse_rejects_damage():
    cube = random_cube(63, bands=4)
    blob = serialize_stream(compress(cube, "pca", 2, quality=60))
    with pytest.raises(CorruptError):
        parse_stream(blob[:-1])  # truncated by one byte
    with pytest.raises(CorruptError):
        parse_stream(blob + b"\x00")  # trailing byte
    bad_magic = b"XXXX" + blob[4:]
    with pytest.raises(FormatError):
        parse_stream(bad_magic)
    bad_version = blob[:4] + b"\x09" + blob[5:]
    with pytest.raises(FormatError):
        parse_stream(bad_version)
    bad_method = blob[:5] + b"\x07" + blob[6:]
    with pytest.raises(CorruptError):
        parse_stream(bad_method)


def _with_last_wavelength(blob: bytes, value: float) -> bytes:
    """``blob`` with its last header wavelength overwritten by ``value``."""
    n = struct.unpack_from("<H", blob, 8)[0]
    forged = bytearray(blob)
    struct.pack_into("<f", forged, 19 + 4 * (n - 1), value)
    return bytes(forged)


@pytest.mark.parametrize("method,bands,p,value", [
    ("pca", 8, 3, np.inf),
    ("csi", 8, 3, np.inf),
    ("pca", 1, 1, np.nan),  # one band: there is no order to check
], ids=["pca-inf", "csi-inf", "pca-single-band-nan"])
def test_parse_rejects_non_finite_wavelengths(method, bands, p, value):
    cube = synthesize_cube(16, 16, bands, "random-smooth", 0)
    blob = _with_last_wavelength(serialize_stream(compress(cube, method, p, quality=75)), value)
    with pytest.raises(CorruptError, match="non-finite"):
        parse_stream(blob)


def test_truncation_never_crashes_anywhere():
    cube = random_cube(64, width=5, height=4, bands=3)
    blob = serialize_stream(compress(cube, "csi", 3, quality=40))
    for cut in range(len(blob)):
        with pytest.raises((CorruptError, FormatError)):
            parse_stream(blob[:cut])


def test_plane_record_damage_is_corrupt():
    cube = random_cube(48, width=21, height=9, bands=4)
    stream = compress(cube, "csi", 3, quality=35)
    blob = serialize_stream(stream)
    assert stream.planes[-1].payload
    first = stream_nbytes("csi", 3, 4, 0) - 3 * container._PLANE_HEADER.size
    second = first + container._PLANE_HEADER.size + len(stream.planes[0].payload)
    with pytest.raises(CorruptError, match="truncated plane record header"):
        parse_stream(blob[:first + 10])
    with pytest.raises(CorruptError, match="truncated plane payload"):
        parse_stream(blob[:-1])
    forged = bytearray(blob)
    forged[second + 8] = 36  # the second record's quality byte
    with pytest.raises(CorruptError, match="plane record 1 disagrees with stream header"):
        parse_stream(bytes(forged))
    forged = bytearray(blob)
    struct.pack_into("<d", forged, first + 17, 0.0)  # the first record's norm scale
    with pytest.raises(CorruptError, match="bad normalization"):
        parse_stream(bytes(forged))


def test_streams_scmp_cannot_hold_are_rejected_when_built():
    cube = random_cube(74, width=8, height=8, bands=6)
    q50 = compress(cube, "pca", 4, quality=50)
    # planes coded at quality 90 under a quality-50 header are the quality-50
    # stream the bytes state, and decode as such
    mixed = dataclasses.replace(q50, planes=compress(cube, "pca", 4, quality=90).planes)
    assert parse_stream(serialize_stream(mixed)) == mixed
    assert decompress(mixed) == decompress(parse_stream(serialize_stream(mixed)))
    for changes in ({"side": compress(cube, "pca", 3, quality=50).side},
                    {"quality": 300}, {"quality": 0}, {"quality": 50.5}, {"quality": True},
                    {"width": 2 ** 32}, {"height": 0},
                    {"planes": []}, {"planes": q50.planes[:1] * 65536},
                    {"wavelengths": np.arange(1, 65537, dtype=np.float32)}):
        (field, _), = changes.items()
        with pytest.raises(ValidationError, match=field):
            dataclasses.replace(q50, **changes)


def test_side_info_must_fit_the_band_count():
    # a knot past u16 would wrap to 10, the last band, if it were written unchecked
    csi = compress(random_cube(75, width=8, height=8, bands=11), "csi", 2, quality=50)
    with pytest.raises(ValidationError, match="bands"):
        dataclasses.replace(csi, side=CsiSideInfo(knot_indices=[0, 65546]))
    pca = compress(random_cube(76, width=8, height=8, bands=8), "pca", 4, quality=50)
    six_band_side = compress(random_cube(77, width=8, height=8, bands=6), "pca", 4, quality=50).side
    with pytest.raises(ValidationError, match="bands"):
        dataclasses.replace(pca, side=six_band_side)


def test_pca_side_info_refuses_more_components_than_bands():
    with pytest.raises(ValidationError, match="components"):
        PcaSideInfo(mean=np.zeros(2), basis=np.zeros((2, 3)), eigenvalues=np.zeros(3))


@pytest.mark.parametrize("method", ["pca", "csi"])
def test_forged_side_info_is_corrupt(method):
    n, p = 8, 3
    blob = bytearray(serialize_stream(compress(random_cube(78, bands=n), method, p, quality=60)))
    side_at = 19 + 4 * n
    if method == "pca":  # the first basis column, after the n means, of length sqrt(n)
        struct.pack_into(f"<{n}f", blob, side_at + 4 * n, *[1.0] * n)
    else:  # the last knot one band short of the last band
        struct.pack_into("<H", blob, side_at + 2 * (p - 1), n - 2)
    with pytest.raises(CorruptError, match=f"bad {method.upper()} side info"):
        parse_stream(bytes(blob))


# ---------------------------------------------------------------------------
# parsing is the exact inverse of serializing

_INVERSE_BANDS, _INVERSE_P = 6, 3
_INVERSE_CUBE = synthesize_cube(8, 8, _INVERSE_BANDS, "random-smooth", 1)
_INVERSE_BLOBS = {method: serialize_stream(compress(_INVERSE_CUBE, method, _INVERSE_P, quality=50))
                  for method in ("pca", "csi")}
_SIDE_AT = 19 + 4 * _INVERSE_BANDS
_EIGEN_AT = _SIDE_AT + 4 * _INVERSE_BANDS * (_INVERSE_P + 1)  # PCA: after the means and basis
# quiet and signaling NaNs, infinities, signed zeros, a subnormal, a negative and the extremes
_F32_SPECIALS = [0x7FC00000, 0x7F800001, 0x7F800000, 0xFF800000, 0x00000000, 0x80000000,
                 0x00000001, 0xBF800000, 0x7F7FFFFF, 0xFF7FFFFF]


def _with_word(blob: bytes, at: int, word: int) -> bytes:
    forged = bytearray(blob)
    struct.pack_into("<I", forged, at, word)
    return bytes(forged)


def _parse_as_errors(blob: bytes) -> CompressedStream:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return parse_stream(blob)


@st.composite
def _mutated_blobs(draw):
    blob = _INVERSE_BLOBS[draw(st.sampled_from(["pca", "csi"]))]
    kind = draw(st.sampled_from(["byte", "bit", "f32"]))
    if kind == "byte":
        forged = bytearray(blob)
        forged[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
        return bytes(forged)
    if kind == "bit":
        return flip_bit(blob, draw(st.integers(0, 8 * len(blob) - 1)))
    # an aligned header word, or a word of the wavelengths or PCA's side info
    words = [*range(0, 16, 4), *range(19, _EIGEN_AT + 4 * _INVERSE_P, 4)]
    return _with_word(blob, draw(st.sampled_from(words)), draw(st.sampled_from(_F32_SPECIALS)))


@settings(max_examples=400, deadline=None)
@given(_mutated_blobs())
def test_a_mutated_stream_is_rejected_or_round_trips(blob):
    try:
        stream = _parse_as_errors(blob)
    except CodecError:
        return
    assert serialize_stream(stream) == blob


@pytest.mark.parametrize("at,word,message", [
    (_EIGEN_AT + 4 * (_INVERSE_P - 1), 0xBF800000, "eigenvalues must be numerically nonnegative"),
    (_SIDE_AT, 0x7F800001, "side info contains non-finite values"),
    (_EIGEN_AT + 4 * (_INVERSE_P - 1), 0x7F7FFFFF, "eigenvalues must be non-increasing"),
], ids=["last-eigenvalue-minus-one", "first-mean-signaling-nan", "last-eigenvalue-float32-max"])
def test_pca_side_info_is_kept_as_written_and_checked(at, word, message):
    with pytest.raises(CorruptError, match=f"bad PCA side info: {message}"):
        _parse_as_errors(_with_word(_INVERSE_BLOBS["pca"], at, word))


#: SCMP header fields and plane record fields: (byte offset, struct format)
_HEADER_FIELDS = {"p": (6, "<H"), "bands": (8, "<H"), "width": (10, "<I"), "height": (14, "<I"),
                  "quality": (18, "<B")}
_RECORD_FIELDS = {"width": (0, "<I"), "height": (4, "<I"), "quality": (8, "<B")}


@pytest.mark.parametrize("method", ["pca", "csi"])
@pytest.mark.parametrize("field,value", [
    ("p", 0), ("bands", 0), ("width", 0), ("height", 0), ("quality", 0), ("quality", 101),
    ("quality", 255),
])
def test_a_forged_header_field_is_corrupt(field, value, method):
    # the plane records agree with the forged header: the record that owns the
    # field refuses it, the side info p and N, the stream its size and quality
    blob = bytearray(_INVERSE_BLOBS[method])
    struct.pack_into(_HEADER_FIELDS[field][1], blob, _HEADER_FIELDS[field][0], value)
    if field in _RECORD_FIELDS:
        record = container._PLANE_HEADER.size
        at = stream_nbytes(method, _INVERSE_P, _INVERSE_BANDS, 0) - _INVERSE_P * record
        for plane in parse_stream(_INVERSE_BLOBS[method]).planes:
            struct.pack_into(_RECORD_FIELDS[field][1], blob, at + _RECORD_FIELDS[field][0], value)
            at += record + len(plane.payload)
        match = f"bad stream: {field} must be an integer in"
    else:
        match = f"bad {method.upper()} side info"
    with pytest.raises(CorruptError, match=match):
        _parse_as_errors(bytes(blob))


@pytest.mark.parametrize("method", ["pca", "csi"])
def test_a_zero_band_count_is_named(method):
    # each side-info reader checks N before it reads by it: the message names N, not p or the knots
    blob = bytearray(_INVERSE_BLOBS[method])
    struct.pack_into(_HEADER_FIELDS["bands"][1], blob, _HEADER_FIELDS["bands"][0], 0)
    with pytest.raises(CorruptError, match=rf"^bad {method.upper()} side info: "
                                           r"bands must be an integer in \[1, 65535\], got 0$"):
        _parse_as_errors(bytes(blob))


def test_codec_calls_the_reducers_and_scorers_through_their_module_names(monkeypatch):
    # codecbench's tracer wraps these attributes: a lookup that bypasses one
    # would leave its layer time at 0 with no error
    calls = {}

    def counting(module, name):
        fn = getattr(module, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        calls[name] = 0
        monkeypatch.setattr(module, name, wrapper)

    for name in ("pca_fit", "csi_select_knots", "pca_forward", "csi_forward",
                 "pca_inverse", "csi_inverse"):
        counting(container, name)
    counting(reduction, "natural_cubic_spline")
    counting(colorimetry, "spectra_to_xyz")
    counting(colorimetry, "ciede2000_array")
    cube = synthesize_cube(8, 8, 31, "random-smooth", 0)  # 400-700 nm: no resampling
    for method in ("pca", "csi"):
        cube_delta_e(cube, decompress(compress(cube, method, 3, quality=80)))
    assert all(calls.values()), calls


@functools.cache
def _compressed(size, method, p, quality):
    width, height, bands = size
    return compress(random_cube(75, width=width, height=height, bands=bands), method, p,
                    quality=quality)


_COMPRESSED = st.builds(_compressed, st.sampled_from([(8, 8, 6), (9, 7, 6), (8, 8, 8)]),
                        st.sampled_from(["pca", "csi"]), st.integers(2, 4),
                        st.sampled_from([30, 90]))


@settings(max_examples=80, deadline=None)
@given(_COMPRESSED, _COMPRESSED, st.data())
def test_stream_from_two_compresses_is_rejected_or_round_trips(a, b, data):
    # each field from either stream: other quality, p, size or method's side
    parts = {field.name: getattr(data.draw(st.sampled_from([a, b])), field.name)
             for field in dataclasses.fields(CompressedStream)}
    try:
        stream = CompressedStream(**parts)
    except ValidationError:
        return
    blob = serialize_stream(stream)
    assert parse_stream(blob) == stream
    assert serialize_stream(parse_stream(blob)) == blob
    try:
        decompress(stream)
    except CodecError:
        pass


# ---------------------------------------------------------------------------
# compression rate

def test_compression_rate_definition():
    cube = random_cube(65, width=4, height=4, bands=4)
    assert compression_rate(cube, cube.scub_size) == 1.0
    assert compression_rate(cube, cube.scub_size // 2) == pytest.approx(2.0)
    with pytest.raises(ArgumentError):
        compression_rate(cube, 0)


def test_compression_rate_layout_arithmetic():
    # 512x512x31 SCUB: 20 + 4*31 + 4*512*512*31 bytes
    assert scub_nbytes(512, 512, 31) == 32_506_000
    wl = (400.0 + np.arange(31) * 10.0).astype(np.float32)
    cube = SpectralCube(width=2, height=2, bands=31, wavelengths=wl,
                        samples=np.zeros((31, 2, 2), np.float32))
    # rate uses the SCUB size formula, verified against actual serialization
    assert cube.scub_size == len(write_cube(cube))
    assert compression_rate(cube, 124) == cube.scub_size / 124


# ---------------------------------------------------------------------------
# compress / decompress

def _assert_report_roundtrip(stream, report):
    """decompress_with_report decodes what decompress does; every stage time is >= 0."""
    rec, times = decompress_with_report(stream)
    assert rec == decompress(stream)
    assert min(report.times.spectral_ms, report.times.spatial_ms,
               times.spectral_ms, times.spatial_ms) >= 0
    return rec


def test_metadata_roundtrip():
    cube = synthesize_cube(12, 10, 31, "gaussian-spectra", seed=3)
    for method, p in (("pca", 6), ("csi", 6)):
        rec = _assert_report_roundtrip(*compress_with_report(cube, method, p, quality=85))
        assert (rec.width, rec.height, rec.bands) == (12, 10, 31)
        assert np.array_equal(rec.wavelengths, cube.wavelengths)


def _forbid_spectral_fit(monkeypatch):
    def no_fit(*args):
        raise AssertionError("the spectral fit ran")

    for fit in ("pca_fit", "csi_select_knots"):  # looked up by the reducers at call time
        monkeypatch.setattr(container, fit, no_fit)


def test_more_bands_than_scmp_holds_are_rejected_before_the_fit(monkeypatch):
    _forbid_spectral_fit(monkeypatch)
    cube = _flat_cube(width=1, height=2, bands=65536)  # SCMP stores the band count as u16
    with pytest.raises(ArgumentError, match="65535 bands"):
        compress_with_report(cube, "csi", 2, quality=50)


# ---------------------------------------------------------------------------
# size limit

def _peak_bytes(fn):
    """The tracemalloc peak while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("blob", [
    forged_scmp(65535, 1024, 1024),  # ~290 KB that asks for a 65535 x 1024 x 1024 cube
    forged_scmp(65535, 2 ** 16, 2 ** 16, planes=False),
], ids=["full-stream", "header-only"])
def test_forged_cube_size_is_rejected_before_any_large_allocation(blob):
    peak = _peak_bytes(lambda: pytest.raises(SizeLimitError, parse_stream, blob))
    assert peak < 2 ** 16  # before even the 256 KiB of wavelengths are read


def test_forged_stream_passes_every_other_check(monkeypatch):
    # without the cap, the forged stream parses and would go on to a decode
    monkeypatch.setattr("cubecodec.cube.MAX_CUBE_SAMPLES", 2 ** 40)
    stream = parse_stream(forged_scmp(65535, 1024, 1024))
    assert (stream.bands, stream.width, stream.height, stream.p) == (65535, 1024, 1024, 2)
    assert all(len(plane.payload) * 8 == 6 * 128 * 128 for plane in stream.planes)


def test_compress_refuses_cubes_above_the_size_cap(monkeypatch):
    cube = random_cube(71, width=4, height=3, bands=5)  # 60 samples
    blob = serialize_stream(compress(cube, "csi", 2, quality=50))
    monkeypatch.setattr("cubecodec.cube.MAX_CUBE_SAMPLES", 59)
    _forbid_spectral_fit(monkeypatch)
    with pytest.raises(SizeLimitError):
        compress_with_report(cube, "csi", 2, quality=50)
    with pytest.raises(SizeLimitError):  # the decoder draws the same line
        parse_stream(blob)


def test_decode_out_of_memory_raises_size_limit_error(monkeypatch):
    stream = compress(random_cube(72), "pca", 2, quality=50)

    def exhausted(planes, width, height, quality, bands):
        raise MemoryError

    monkeypatch.setattr(container, "PlaneBands", exhausted)
    with pytest.raises(SizeLimitError):
        decompress_with_report(stream)


@pytest.mark.parametrize("method", ["pca", "csi"])
def test_compress_out_of_memory_raises_size_limit_error(monkeypatch, method):
    def exhausted(planes):
        raise MemoryError

    monkeypatch.setattr(container.PlaneStack, "of", exhausted)
    with pytest.raises(SizeLimitError, match="out of memory compressing"):
        compress_with_report(random_cube(73), method, 2, quality=50)


@pytest.mark.parametrize("method,drive", [
    ("pca", {"rate": RateTarget(8.0)}), ("csi", {"rate": RateTarget(8.0)}),
    ("pca", {"quality": 90}), ("csi", {"quality": 90}),
], ids=["pca", "csi", "pca-q90", "csi-q90"])
def test_sweep256_compress_peak_memory(method, drive):
    # PCA peaks at its fit's (H*W, N) float64 centered samples or at the
    # (P, H, W) float64 scores beside the stack's coefficients (21.0 MiB); CSI's
    # float32 knot bands are widened a run at a time, and CSI peaks in the
    # emit, beside the probe it packs (20.2 MiB at CR 8, 19.5 MiB at q90).
    # The plane transform works a run of planes at a time, and the rate
    # search and a fixed quality each keep one probe's symbols and AC
    # magnitudes, about 6.4 MiB at 256x256.
    cube = make_sweep_cube(256, 256)
    peak = _peak_bytes(lambda: compress_with_report(cube, method, 20, **drive))
    assert peak <= 23.0 * 2 ** 20


def test_many_band_pca_compress_peak_memory():
    # the fit holds its (H*W, N) float64 centered samples and one N x N
    # covariance (13.7 MiB for this 6.25 MiB cube); dividing the covariance
    # into a second one beside them peaked at 15.1 MiB
    cube = synthesize_cube(64, 64, 400, "random-smooth", seed=3)
    peak = _peak_bytes(lambda: compress_with_report(cube, "pca", 20, quality=50))
    assert peak <= 14.5 * 2 ** 20


@pytest.mark.parametrize("size,method,p,bound", [
    ((8192, 16, 31), "pca", 20, 45.0),
    ((128, 1024, 31), "pca", 20, 44.5),
    ((128, 1024, 31), "csi", 20, 40.5),
    ((256, 256, 31), "pca", 1, 17.5),
    ((256, 256, 31), "pca", 2, 18.5),
    ((256, 256, 31), "csi", 20, 20.5),
    ((64, 64, 2000), "csi", 20, 5.0),
    ((64, 64, 2000), "pca", 20, 98.0),
], ids=["8192x16-pca", "128x1024-pca", "128x1024-csi", "256x256-pca-p1", "256x256-pca-p2",
        "256x256-csi", "64x64x2000-csi", "64x64x2000-pca"])
def test_compress_peak_memory_on_every_shape(size, method, p, bound):
    # measured peaks in MiB, in order: 42.5, 42.0, 38.2, 16.5, 17.5, 19.1, 4.4
    # and 93.0.  At 31 bands and p=20 the float64 planes and the float64
    # coefficients are each 1.29 times the cube; at p <= 2 the PCA forward
    # holds one whole-cube float64 chunk; the 2000-band PCA fit holds its
    # float64 centered samples and a 2000 x 2000 covariance, and CSI copies
    # only its 20 knot bands
    cube = synthesize_cube(*size, "random-smooth", seed=3)
    peak = _peak_bytes(lambda: compress_with_report(cube, method, p, quality=50))
    assert peak <= bound * 2 ** 20


@pytest.mark.parametrize("method", ["pca", "csi"])
def test_sweep256_decompress_peak_memory(method):
    # entropy decoding peaks at 14.3 MiB (its bit windows, 8 bytes per payload
    # byte, and the quantized blocks); the float32 cube (7.8 MiB) is then
    # written a band of rows at a time beside the quantized blocks (15.9 MiB)
    cube = make_sweep_cube(256, 256)
    stream = parse_stream(serialize_stream(compress(cube, method, 20, rate=RateTarget(8.0))))
    peak = _peak_bytes(lambda: decompress(stream))
    assert peak <= 18.0 * 2 ** 20


def _decodes_in_proportion_to_its_cube(stream):
    """Decode ``stream``; the peak is at most 1.5 times the cube plus 4 MiB."""
    cube = []
    peak = _peak_bytes(lambda: cube.append(decompress(stream)))
    assert peak <= 1.5 * cube[0].samples.nbytes + 4 * 2 ** 20


@pytest.mark.parametrize("method,p", [("csi", 2), ("pca", 20)])
def test_many_band_stream_decodes_in_proportion_to_its_cube(method, p):
    # an 8.5 KB CSI stream of a 31.25 MiB cube peaked at 101.7 MiB when the
    # float64 reconstruction was made whole; 33.3 MiB (CSI) and 33.6 MiB (PCA) now
    cube = synthesize_cube(64, 64, 2000, "random-smooth", seed=0)
    stream = parse_stream(serialize_stream(compress(cube, method, p, quality=50)))
    del cube
    _decodes_in_proportion_to_its_cube(stream)


@pytest.mark.parametrize("method", ["pca", "csi"])
@pytest.mark.parametrize("make,drive", [
    (make_skin_cube, {"rate": RateTarget(8.0)}),
    (make_narrowband_cube, {"rate": RateTarget(8.0)}),
    (make_dark_cube, {"rate": RateTarget(8.0)}),
    (make_chart_cube, {"rate": RateTarget(8.0)}),
    (functools.partial(make_sweep_cube, 128, 128), {"quality": 90}),
], ids=["skin64-cr8", "narrowband64-cr8", "dark64-cr8", "chart64-cr8", "sweep128-q90"])
def test_benchmark_streams_decode_in_proportion_to_their_cube(make, drive, method):
    # the codecbench workloads' streams at p=20: the band loop's float64
    # arrays, the synthesis's product included, fit one chunk budget.  Sized
    # by one temporary each, a 64x64 decode peaked at 3.1 MiB and a 128x128
    # one at 9.7 MiB, past its 6.9 MiB bound; 1.7 and 4.9 MiB now
    stream = parse_stream(serialize_stream(compress(make(), method, 20, **drive)))
    _decodes_in_proportion_to_its_cube(stream)


@given(st.integers(1, 40), st.integers(1, 40), st.integers(2, 80), st.sampled_from(["pca", "csi"]),
       st.integers(2, 8), st.integers(1, 100), st.integers(0, 2 ** 16))
def test_small_streams_decode_in_proportion_to_their_cube(width, height, bands, method, p, quality,
                                                          seed):
    cube = random_cube(seed, width=width, height=max(height, 3 - width), bands=bands)
    stream = compress(cube, method, min(p, bands), quality=quality)
    _decodes_in_proportion_to_its_cube(parse_stream(serialize_stream(stream)))


@pytest.mark.parametrize("method", ["pca", "csi"])
def test_sweep256_score_peak_memory(method):
    # scoring walks band-major pixel chunks into one preallocated map
    # (3.2 MiB); whole-frame (H*W, 3) stacks took 23.6 MiB
    cube = make_sweep_cube(256, 256)
    recon = decompress(compress(cube, method, 20, rate=RateTarget(8.0)))
    peak = _peak_bytes(lambda: cube_delta_e(cube, recon))
    assert peak <= 6.0 * 2 ** 20


def test_many_band_score_peak_memory():
    # a chunk is cast to float64 only in the bands the observer grid reads:
    # scoring two 62.5 MiB cubes peaked at 131.1 MiB when all 2000 were cast,
    # 8.0 MiB now; the map's digest was recorded before, when they were
    a = synthesize_cube(128, 64, 2000, "random-smooth", seed=2001)
    b = synthesize_cube(128, 64, 2000, "random-smooth", seed=2002)
    stats = []
    peak = _peak_bytes(lambda: stats.append(cube_delta_e(a, b)))
    assert peak <= 16.0 * 2 ** 20
    assert (hashlib.sha256(stats[0].map.tobytes()).hexdigest()
            == "44a3f7ed49d0982ea31a3b00db5dded7bb62a44e7748a3ad82b56639c596ec82")


# ---------------------------------------------------------------------------
# the chunk budget: cube.chunks sizes every pass, and no output depends on it

_BUDGET_CUBES = {
    "sweep37x53": functools.partial(make_sweep_cube, 37, 53),
    "sweep100x90": functools.partial(make_sweep_cube, 100, 90),
    "chart": make_chart_cube,
    "synth61": functools.partial(synthesize_cube, 40, 30, 61, "random-smooth", seed=3),
}


def _budget_run(cube, method, p):
    """The SCMP bytes, decoded cube and ΔE map of a rate-controlled round trip."""
    stream = compress(cube, method, p, rate=RateTarget(8.0))
    recon = decompress(stream)
    return serialize_stream(stream), recon, cube_delta_e(cube, recon).map


@pytest.mark.parametrize("method,p", [("pca", 1), ("pca", 20), ("csi", 20)])
@pytest.mark.parametrize("name", list(_BUDGET_CUBES))
def test_outputs_do_not_depend_on_the_chunk_budget(monkeypatch, name, method, p):
    # 2**10 samples cut every pass small: one plane a run, bands of 16 rows,
    # 16 to 64 pixels a chunk; 2**22 takes these cubes whole.  Chunk edges and
    # BLAS kernels round together, so CI runs this under one and under several
    # BLAS threads.
    cube = _BUDGET_CUBES[name]()
    blob, recon, de = _budget_run(cube, method, p)
    for budget in (2 ** 10, 2 ** 13, 2 ** 22):
        monkeypatch.setattr("cubecodec.cube.CHUNK_SAMPLES", budget)
        other_blob, other_recon, other_de = _budget_run(cube, method, p)
        assert other_blob == blob, budget
        assert other_recon == recon, budget
        assert np.array_equal(other_de, de), budget


def test_compress_is_deterministic():
    cube = make_skin_cube(32, 32)
    a = serialize_stream(compress(cube, "pca", 8, quality=77))
    b = serialize_stream(compress(cube, "pca", 8, quality=77))
    assert a == b


def test_full_rank_quality100_error_bound():
    cube = synthesize_cube(16, 16, 8, "gaussian-spectra", seed=5)
    stream = compress(cube, "pca", 8, quality=100)
    rec = decompress(stream)
    err = np.abs(rec.samples.astype(np.float64)
                 - cube.samples.astype(np.float64)).max()
    max_scale = max(pl.scale for pl in stream.planes)
    assert err <= 2.0 * max_scale


@pytest.mark.parametrize("method", ["pca", "csi"])
def test_flat_cube_reconstructs_cleanly(method):
    cube = _flat_cube()
    stream = compress(cube, method, 4 if method == "pca" else 4, quality=50)
    rec = decompress(stream)
    # constant planes quantize with at most DC error; here the normalized
    # plane is exactly zero so reconstruction is exact up to f32 rounding
    assert np.abs(rec.samples.astype(np.float64) - 0.5).max() <= 1e-6
    wl31 = synthesize_cube(4, 4, 31, "flat", 0)
    stats = cube_delta_e(wl31, decompress(compress(wl31, method, 4, quality=50)))
    assert stats.mean < 0.05


def test_monotone_stream_size_probe():
    cube = make_skin_cube(32, 32)
    low = len(serialize_stream(compress(cube, "pca", 8, quality=10)))
    high = len(serialize_stream(compress(cube, "pca", 8, quality=90)))
    assert high >= low


def test_quality_cr_monotone_over_search_domain():
    cube = make_skin_cube(16, 16)
    sizes = [len(serialize_stream(compress(cube, "csi", 6, quality=q)))
             for q in range(1, 101)]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    rates = [compression_rate(cube, s) for s in sizes]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_decompress_rejects_corrupt_payload():
    cube = random_cube(66, width=9, height=9, bands=4)
    blob = bytearray(serialize_stream(compress(cube, "pca", 3, quality=60)))
    blob[-3] ^= 0xFF  # flip bits inside the last payload
    try:
        parsed = parse_stream(bytes(blob))
        decompress(parsed)  # either parse or decode must reject; never crash
    except CorruptError:
        pass


def _damaged(blob):
    """Every truncation and every single-bit flip of ``blob``."""
    for count in range(len(blob)):
        yield blob[:count]
    for bit in range(8 * len(blob)):
        yield flip_bit(blob, bit)


@pytest.mark.parametrize("method", ["pca", "csi"])
def test_every_truncation_and_bit_flip_decodes_or_raises_codec_error(method):
    cube = synthesize_cube(8, 8, 6, "random-smooth", 5)
    blob = serialize_stream(compress(cube, method, 3, quality=50))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for damaged in _damaged(blob):
            try:
                decompress(parse_stream(damaged))
            except CodecError:
                pass


@pytest.mark.parametrize("method", ["pca", "csi"])
@pytest.mark.parametrize("scale", [1e300, 1e308])
def test_huge_plane_scale_is_corrupt_without_a_warning(method, scale):
    stream = compress(synthesize_cube(16, 16, 8, "ramp", 0), method, 3, quality=50)
    blob = bytearray(serialize_stream(stream))
    record = len(blob) - sum(container._PLANE_HEADER.size + len(plane.payload)
                             for plane in stream.planes)
    struct.pack_into("<d", blob, record + 17, scale)  # after u32 w, u32 h, u8 q, f64 offset
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parsed = parse_stream(bytes(blob))
        assert parsed.planes[0].scale == scale
        with pytest.raises(CorruptError):
            decompress(parsed)


# ---------------------------------------------------------------------------
# rate control

def test_rate_target_validation(monkeypatch):
    with pytest.raises(ArgumentError):
        RateTarget(target_cr=1.0)
    with pytest.raises(ArgumentError):
        RateTarget(target_cr=8.0, tolerance=0.0)
    for target_cr in ("8", True, None, 8 + 0j, np.array([8.0])):
        with pytest.raises(ArgumentError, match="target_cr must be a real number"):
            RateTarget(target_cr)
    for tolerance in ("0.1", True, None):
        with pytest.raises(ArgumentError, match="tolerance must be a real number"):
            RateTarget(8.0, tolerance=tolerance)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ArgumentError):
            RateTarget(bad)
        with pytest.raises(ArgumentError):
            RateTarget(8.0, tolerance=bad)
    # numpy scalars and integers are real numbers
    assert RateTarget(np.float64(8.0), np.float32(0.1)).window == pytest.approx((7.2, 8.8))
    assert RateTarget(8, tolerance=np.float64(0.05)).target_cr == 8
    with pytest.raises(ArgumentError):
        compress_with_report(random_cube(67), "pca", 2)  # neither rate nor quality
    with pytest.raises(ArgumentError):
        compress_with_report(random_cube(67), "pca", 2,
                             rate=RateTarget(8.0), quality=50)
    _forbid_spectral_fit(monkeypatch)  # a bad quality is rejected before the fit
    for quality in (50.7, "50", 0, 101, True):
        with pytest.raises(ArgumentError, match="quality must be an integer"):
            compress_with_report(random_cube(67), "pca", 2, quality=quality)
    for method in ("pca", "csi"):  # so is a p that is not an integer
        for p in (2.5, True, np.float64(3.0), "3"):
            with pytest.raises(ArgumentError, match="p must be an integer"):
                compress_with_report(random_cube(67), method, p, quality=50)


@pytest.mark.parametrize("method", ["pca", "csi"])
def test_numpy_integer_p_gives_the_same_stream(method):
    cube = random_cube(67)
    expected = serialize_stream(compress(cube, method, 3, quality=50))
    assert serialize_stream(compress(cube, method, np.int64(3), quality=50)) == expected


def test_rate_control_lands_in_window():
    cube = make_skin_cube()
    stream, report = compress_with_report(cube, "pca", 20, rate=RateTarget(8.0))
    achieved = compression_rate(cube, len(serialize_stream(stream)))
    assert report.in_window
    assert 7.6 <= achieved <= 8.4
    assert achieved == report.achieved_cr
    assert report.encodes <= 7
    _assert_report_roundtrip(stream, report)


def test_rate_fallback_prefers_smallest_cr_at_or_above_target():
    # 64x64x31 random-smooth at p=8: even quality 100 cannot spend the CR=8
    # byte budget of the f32 original, so the search reports the smallest
    # achievable rate at or above the target, flagged out-of-window.
    cube = synthesize_cube(64, 64, 31, "random-smooth", seed=12)
    stream, report = compress_with_report(cube, "pca", 8, rate=RateTarget(8.0))
    assert not report.in_window
    assert report.quality == 100
    assert report.achieved_cr >= 8.0


def test_unreachable_target_raises_rate_error():
    cube = random_cube(68, width=8, height=8, bands=3)
    with pytest.raises(RateError) as info:
        compress_with_report(cube, "pca", 3, rate=RateTarget(500.0))
    assert info.value.best_cr is not None
    assert info.value.best_cr < 500.0


def test_overhead_dominated_target_raises_rate_error():
    cube = random_cube(69, width=2, height=2, bands=4)
    with pytest.raises(RateError):
        compress_with_report(cube, "pca", 4, rate=RateTarget(30.0))


@pytest.mark.parametrize("target_cr, message", [
    (130, "target CR 130 unreachable: quality 1 achieves only 116.2"),
    (200, "stream overhead alone (3407 B) exceeds the byte budget for CR 200; "
          "best achieved CR 116.2"),
], ids=["unreachable", "overhead"])
def test_failed_rate_search_counts_each_quality_once(monkeypatch, target_cr, message):
    counted = []
    probe = container.PlaneStack.probe

    def spy(self, quality):
        counted.append(quality)
        return probe(self, quality)

    monkeypatch.setattr(container.PlaneStack, "probe", spy)
    cube = make_skin_cube()
    with pytest.raises(RateError) as info:
        compress_with_report(cube, "pca", 20, rate=RateTarget(target_cr))
    assert counted == [50, 25, 12, 6, 3, 1]  # every probe falls short, quality 1 last and once
    assert str(info.value) == message
    lowest = serialize_stream(compress(cube, "pca", 20, quality=1))
    assert info.value.best_cr == compression_rate(cube, len(lowest))


@pytest.mark.parametrize("build,p,rate,probed,encodes", [
    (make_skin_cube, 20, RateTarget(8.0, tolerance=0.001), [50, 75, 88, 94, 97, 95, 94], 6),
    (functools.partial(synthesize_cube, 64, 64, 31, "random-smooth", seed=12), 8, RateTarget(8.0),
     [50, 75, 88, 94, 97, 99, 100, 100], 7),
], ids=["last-probe-short", "last-probe-best"])
def test_out_of_window_search_emits_a_probe_at_the_best_quality(monkeypatch, build, p, rate,
                                                                 probed, encodes):
    # out of the window the emit packs one probe more at the best quality
    # above it, also when the last probe had that quality; encodes does not count it
    probes, packed = [], []
    probe, encode = container.PlaneStack.probe, container.PlaneStack.encode
    monkeypatch.setattr(container.PlaneStack, "probe",
                        lambda self, quality: probes.append(probe(self, quality)) or probes[-1])
    monkeypatch.setattr(container.PlaneStack, "encode",
                        lambda self, kept: packed.append(kept) or encode(self, kept))
    report = compress_with_report(build(), "pca", p, rate=rate)[1]
    assert [one.quality for one in probes] == probed
    assert (report.quality, report.in_window, report.encodes) == (probed[-1], False, encodes)
    assert len(packed) == 1 and packed[0] is probes[-1]


def test_method_validation():
    cube = random_cube(70, bands=4)
    with pytest.raises(ArgumentError):
        compress(cube, "dwt", 2, quality=50)
    with pytest.raises(ArgumentError):
        compress(cube, "csi", 1, quality=50)  # spline needs two knots
    with pytest.raises(ArgumentError):
        compress(cube, "pca", 9, quality=50)
