"""End-to-end codec tests: stream format, rate control, reconstruction."""

import numpy as np
import pytest

from cubecodec.colorimetry import cube_delta_e
from cubecodec.container import (
    CompressedStream,
    RateTarget,
    compress,
    compress_with_report,
    compression_rate,
    csi_side_nbytes,
    decompress,
    parse_stream,
    pca_side_nbytes,
    serialize_stream,
    stream_nbytes,
)
from cubecodec.cube import SpectralCube, scub_nbytes, synthesize_cube, write_cube
from cubecodec.errors import ArgumentError, CorruptError, FormatError, RateError
from cubecodec.bench import make_skin_cube

from conftest import random_cube


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
        side = pca_side_nbytes(n, p) if method == "pca" else csi_side_nbytes(p)
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
        method="csi", p=p, side=csi_stream.side, wavelengths=cube.wavelengths,
        quality=50, planes=pca_stream.planes, width=cube.width,
        height=cube.height, bands=n,
    )
    gap = len(serialize_stream(pca_stream)) - len(serialize_stream(shared))
    assert gap == pca_side_nbytes(n, p) - csi_side_nbytes(p)
    assert pca_side_nbytes(n, p) == 4 * n + 4 * n * p + 4 * p
    assert csi_side_nbytes(p) == 2 * p


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


def test_truncation_never_crashes_anywhere():
    cube = random_cube(64, width=5, height=4, bands=3)
    blob = serialize_stream(compress(cube, "csi", 3, quality=40))
    for cut in range(len(blob)):
        with pytest.raises((CorruptError, FormatError)):
            parse_stream(blob[:cut])


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

def test_metadata_roundtrip():
    cube = synthesize_cube(12, 10, 31, "gaussian-spectra", seed=3)
    for method, p in (("pca", 6), ("csi", 6)):
        rec = decompress(compress(cube, method, p, quality=85))
        assert (rec.width, rec.height, rec.bands) == (12, 10, 31)
        assert np.array_equal(rec.wavelengths, cube.wavelengths)


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
    max_scale = max(pl.norm.scale for pl in stream.planes)
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


# ---------------------------------------------------------------------------
# rate control

def test_rate_target_validation():
    with pytest.raises(ArgumentError):
        RateTarget(target_cr=1.0)
    with pytest.raises(ArgumentError):
        RateTarget(target_cr=8.0, tolerance=0.0)
    with pytest.raises(ArgumentError):
        compress_with_report(random_cube(67), "pca", 2)  # neither rate nor quality
    with pytest.raises(ArgumentError):
        compress_with_report(random_cube(67), "pca", 2,
                             rate=RateTarget(8.0), quality=50)


def test_rate_control_lands_in_window():
    cube = make_skin_cube()
    stream, report = compress_with_report(cube, "pca", 20, rate=RateTarget(8.0))
    achieved = compression_rate(cube, len(serialize_stream(stream)))
    assert report.in_window
    assert 7.6 <= achieved <= 8.4
    assert achieved == report.achieved_cr
    assert report.encodes <= 7


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


def test_method_validation():
    cube = random_cube(70, bands=4)
    with pytest.raises(ArgumentError):
        compress(cube, "dwt", 2, quality=50)
    with pytest.raises(ArgumentError):
        compress(cube, "csi", 1, quality=50)  # spline needs two knots
    with pytest.raises(ArgumentError):
        compress(cube, "pca", 9, quality=50)
