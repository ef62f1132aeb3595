"""Cube model, SCUB container, and synthetic-cube generator tests."""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cubecodec.cube import (
    PATTERNS,
    SpectralCube,
    read_cube,
    scub_nbytes,
    synthesize_cube,
    write_cube,
)
from cubecodec.errors import ArgumentError, CorruptError, FormatError, ValidationError

from conftest import random_cube

_HEADER_BYTES = scub_nbytes(0, 0, 0)


def test_roundtrip_single_sample():
    cube = SpectralCube(width=1, height=1, bands=1,
                        wavelengths=np.array([550.0], dtype=np.float32),
                        samples=np.array([[[0.5]]], dtype=np.float32))
    assert read_cube(write_cube(cube)) == cube


def test_write_is_deterministic():
    a = random_cube(3)
    assert write_cube(a) == write_cube(random_cube(3))


def test_2x2x3_hand_layout():
    wavelengths = np.array([500.0, 600.0, 700.0], dtype=np.float32)
    samples = np.arange(12, dtype=np.float32).reshape(3, 2, 2) / 16.0
    cube = SpectralCube(width=2, height=2, bands=3,
                        wavelengths=wavelengths, samples=samples)
    blob = write_cube(cube)
    # header 20 B + 3*4 B wavelengths + 12*4 B samples
    assert len(blob) == 80 == scub_nbytes(2, 2, 3)
    expected = (b"SCUB" + bytes([1, 1]) + b"\x00\x00"
                + struct.pack("<III", 2, 2, 3)
                + wavelengths.tobytes() + samples.tobytes())
    assert blob == expected
    back = read_cube(blob)
    assert back == cube
    assert np.array_equal(back.samples, samples)


def test_bad_magic_is_format_error():
    blob = bytearray(write_cube(random_cube(0)))
    blob[:4] = b"XXXX"
    with pytest.raises(FormatError):
        read_cube(bytes(blob))


def test_bad_version_and_dtype_are_format_errors():
    good = write_cube(random_cube(1))
    for offset in (4, 5, 6):  # version byte, dtype byte, reserved field's low byte
        blob = bytearray(good)
        blob[offset] = 9
        with pytest.raises(FormatError):
            read_cube(bytes(blob))


def test_truncation_is_corrupt_error():
    blob = write_cube(random_cube(2))
    with pytest.raises(CorruptError):
        read_cube(blob[:-1])
    with pytest.raises(CorruptError):
        read_cube(blob[:10])
    with pytest.raises(CorruptError):
        read_cube(blob + b"\x00")


def test_zero_dimension_is_corrupt_error():
    cube = random_cube(4)
    blob = bytearray(write_cube(cube))
    struct.pack_into("<I", blob, 8, 0)  # width field
    with pytest.raises(CorruptError):
        read_cube(bytes(blob))
    # the header and wavelengths alone are the length a zero-width cube claims
    with pytest.raises(CorruptError, match="non-positive dimensions"):
        read_cube(bytes(blob[:20 + 4 * cube.bands]))


def test_nonincreasing_wavelengths_is_validation_error():
    cube = random_cube(5, bands=3)
    blob = bytearray(write_cube(cube))
    struct.pack_into("<f", blob, 20, 999.0)  # first wavelength above the rest
    with pytest.raises(ValidationError):
        read_cube(bytes(blob))


def test_nonfinite_sample_is_validation_error():
    cube = random_cube(6, bands=2)
    blob = bytearray(write_cube(cube))
    struct.pack_into("<f", blob, len(blob) - 4, float("nan"))
    with pytest.raises(ValidationError):
        read_cube(bytes(blob))


def test_samples_outside_float32_are_rejected_before_the_cast():
    wl = np.array([400.0, 410.0], dtype=np.float32)
    for value in (1e39, -1e300, np.inf, np.nan):
        samples = np.full((2, 1, 1), 0.5)
        samples[1, 0, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                SpectralCube(width=1, height=1, bands=2, wavelengths=wl, samples=samples)


def test_constructor_validates_shapes_and_dims():
    wl = np.array([500.0, 600.0], dtype=np.float32)
    good = np.zeros((2, 2, 2), dtype=np.float32)
    with pytest.raises(ValidationError):
        SpectralCube(width=0, height=2, bands=2, wavelengths=wl, samples=good)
    with pytest.raises(ValidationError):
        SpectralCube(width=2, height=2, bands=2, wavelengths=wl[:1], samples=good)
    with pytest.raises(ValidationError):
        SpectralCube(width=2, height=2, bands=2, wavelengths=wl,
                     samples=np.zeros((2, 2, 3), dtype=np.float32))


def test_cube_is_immutable():
    cube = random_cube(7)
    with pytest.raises(ValueError):
        cube.samples[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        cube.wavelengths[0] = 1.0


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_roundtrip_random_cubes(width, height, bands, seed):
    rng = np.random.default_rng(seed)
    wl = np.sort(rng.choice(np.arange(300, 900), size=bands, replace=False))
    cube = SpectralCube(
        width=width, height=height, bands=bands,
        wavelengths=wl.astype(np.float32),
        samples=rng.uniform(0, 1, (bands, height, width)).astype(np.float32),
    )
    blob = write_cube(cube)
    assert len(blob) == scub_nbytes(width, height, bands)
    assert read_cube(blob) == cube


def test_read_cube_views_immutable_bytes():
    blob = write_cube(random_cube(8, width=5, height=4, bands=6))
    cube = read_cube(blob)
    assert np.shares_memory(cube.samples, np.frombuffer(blob, dtype=np.uint8))
    assert not cube.samples.flags.writeable
    assert read_cube(write_cube(cube)) == cube


@pytest.mark.parametrize("wrap", [bytearray, memoryview], ids=["bytearray", "memoryview"])
def test_read_cube_copies_a_mutable_buffer(wrap):
    original = random_cube(9, width=5, height=4, bands=6)
    buffer = bytearray(write_cube(original))
    cube = read_cube(wrap(buffer))
    buffer[_HEADER_BYTES:] = bytes(len(buffer) - _HEADER_BYTES)  # zero wavelengths and samples
    assert cube == original
    assert read_cube(write_cube(cube)) == cube


# ---------------------------------------------------------------------------
# synthesize_cube

def test_flat_pattern_is_all_half():
    cube = synthesize_cube(4, 4, 31, "flat", seed=99)
    assert np.all(cube.samples == np.float32(0.5))


def test_synthesis_is_deterministic():
    a = synthesize_cube(6, 5, 31, "random-smooth", seed=42)
    b = synthesize_cube(6, 5, 31, "random-smooth", seed=42)
    assert a == b
    c = synthesize_cube(6, 5, 31, "random-smooth", seed=43)
    assert a != c


def test_random_smooth_band_steps_bounded():
    cube = synthesize_cube(8, 8, 31, "random-smooth", seed=7)
    steps = np.abs(np.diff(cube.samples.astype(np.float64), axis=0))
    assert steps.max() <= 0.1


@pytest.mark.parametrize("pattern", PATTERNS)
def test_patterns_in_unit_range(pattern):
    cube = synthesize_cube(5, 4, 9, pattern, seed=11)
    assert cube.samples.min() >= 0.0
    assert cube.samples.max() <= 1.0
    assert cube.wavelengths.shape == (9,)


def test_unknown_pattern_is_argument_error():
    with pytest.raises(ArgumentError):
        synthesize_cube(4, 4, 4, "perlin", seed=0)


def test_bad_dims_are_argument_errors():
    with pytest.raises(ArgumentError):
        synthesize_cube(0, 4, 4, "flat", seed=0)


def test_one_pixel_random_smooth_is_mid_range():
    # a 1 x 1 field has one lattice value, so smooth_field returns the middle of its range
    cube = synthesize_cube(1, 1, 5, "random-smooth")
    assert np.all(cube.samples == np.float32(0.5))


@pytest.mark.parametrize("bands", [1, 2, 31])
def test_degenerate_band_counts(bands):
    cube = synthesize_cube(3, 3, bands, "random-smooth", seed=1)
    assert cube.bands == bands
