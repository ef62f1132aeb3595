"""Colorimetric rendering and CIEDE2000 tests."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cubecodec import colorimetry
from cubecodec.colorimetry import (
    _CMF_TABLE,
    _D65_POWER,
    _WHITE,
    ciede2000_array,
    cube_delta_e,
    spectra_to_xyz,
    xyz_array_to_lab,
)
from cubecodec.cube import SpectralCube, default_wavelengths
from cubecodec.errors import ArgumentError, SizeLimitError

from conftest import random_cube
from data_ciede2000 import CIEDE2000_PAIRS

_LABS = st.tuples(st.floats(0, 100), st.floats(-120, 120), st.floats(-120, 120))


#: the observer grid, 400-700 nm at 10 nm
_GRID = _CMF_TABLE[:, 0]


def _fsum_white():
    """Independent high-precision summation of the tristimulus normalizer."""
    _, xbar, ybar, zbar = _CMF_TABLE.T
    sx = math.fsum(float(s) * float(x) for s, x in zip(_D65_POWER, xbar))
    sy = math.fsum(float(s) * float(y) for s, y in zip(_D65_POWER, ybar))
    sz = math.fsum(float(s) * float(z) for s, z in zip(_D65_POWER, zbar))
    return 100.0 * sx / sy, 100.0 * sz / sy


def test_constant_tables_are_consistent():
    assert _CMF_TABLE.shape == (31, 4) and _D65_POWER.shape == (31,)
    assert _GRID[0] == 400.0 and _GRID[-1] == 700.0
    assert np.all(np.diff(_GRID) == 10.0)
    assert np.all(_CMF_TABLE[:, 1:] >= 0.0) and np.all(_D65_POWER >= 0.0)


def test_perfect_reflector_gives_y_100_exactly():
    # the D65 white every Lab conversion divides by is the rendered perfect reflector
    assert _WHITE.shape == (3,) and _WHITE.dtype == np.float64
    assert _WHITE[1] == 100.0


def test_white_xz_match_fsum_oracle():
    xn, zn = _fsum_white()
    # values pinned from the oracle on this observer/illuminant/grid
    assert abs(xn - 94.94009398608972) <= 1e-9
    assert abs(zn - 108.70912220594604) <= 1e-9
    assert abs(_WHITE[0] - xn) <= 1e-9
    assert abs(_WHITE[2] - zn) <= 1e-9


def test_zero_reflectance_is_black():
    assert spectra_to_xyz(np.zeros(31), _GRID).tolist() == [0.0, 0.0, 0.0]


def test_rendering_is_linear_in_reflectance():
    rng = np.random.default_rng(50)
    for _ in range(10):
        r1 = rng.uniform(0, 1, 31)
        r2 = rng.uniform(0, 1, 31)
        alpha, beta = rng.uniform(-2, 2, 2)
        mixed = spectra_to_xyz(alpha * r1 + beta * r2, _GRID)
        parts = alpha * spectra_to_xyz(r1, _GRID) + beta * spectra_to_xyz(r2, _GRID)
        assert np.abs(mixed - parts).max() <= 1e-10


def test_resampling_linear_and_coverage():
    # a 5 nm grid spanning the observer: linear resampling must agree with
    # direct evaluation of a linear-in-wavelength reflectance
    wl = np.arange(395.0, 706.0, 5.0)
    spectrum = 0.1 + (wl - 395.0) / 1000.0
    xyz_fine = spectra_to_xyz(spectrum, wl)
    on_grid = 0.1 + (_GRID - 395.0) / 1000.0
    xyz_grid = spectra_to_xyz(on_grid, _GRID)
    assert np.abs(xyz_fine - xyz_grid).max() <= 1e-10
    with pytest.raises(ArgumentError):
        spectra_to_xyz(np.ones(21), np.linspace(450, 650, 21))


@pytest.mark.parametrize("spectra,wavelengths", [
    (np.ones(1), [float("nan")]),
    (np.ones(31), np.full(31, np.nan)),
    (np.ones(31), np.r_[np.arange(400.0, 700.0, 10.0), np.inf]),
    (np.ones(31), np.arange(700.0, 399.0, -10.0)),  # decreasing
    (np.ones(32), np.r_[400.0, np.arange(400.0, 701.0, 10.0)]),  # a repeated wavelength
])
def test_wavelength_grid_must_be_finite_and_increasing(spectra, wavelengths):
    with pytest.raises(ArgumentError, match="finite and strictly increasing"):
        spectra_to_xyz(spectra, wavelengths)


@pytest.mark.parametrize("spectra", [np.ones((0, 2)), np.ones(0), np.ones((0, 3, 4)), np.float64(1.0)],
                         ids=["0x2", "0", "0x3x4", "0-d"])
def test_spectra_without_bands_are_an_argument_error(spectra):
    with pytest.raises(ArgumentError, match="at least one band"):
        spectra_to_xyz(spectra, [])


def test_renderings_are_views_of_channel_planes():
    spectra = np.random.default_rng(58).uniform(0, 1, (31, 4, 5))
    xyz = spectra_to_xyz(spectra, _GRID)
    lab = xyz_array_to_lab(xyz)
    for values in (xyz, lab):
        assert values.shape == (3, 4, 5)
        assert values.flags.c_contiguous


def test_color_arrays_must_have_three_channels():
    with pytest.raises(ArgumentError):
        xyz_array_to_lab(np.ones((4, 5)))
    with pytest.raises(ArgumentError):
        ciede2000_array(np.ones((2, 6)), np.ones((2, 6)))


def test_lab_of_white_and_black():
    assert xyz_array_to_lab(_WHITE).tolist() == [100.0, 0.0, 0.0]
    black = xyz_array_to_lab(np.zeros(3))
    assert abs(black[0]) <= 1e-12 and black[1] == 0.0 and black[2] == 0.0


def test_lab_cube_root_branch_hand_value():
    # a multiple of the white: a and b vanish up to the rounding of each ratio
    L, a, b = xyz_array_to_lab(0.1 * _WHITE)
    assert abs(L - (116.0 * 0.1 ** (1.0 / 3.0) - 16.0)) <= 1e-9
    assert abs(a) <= 1e-12 and abs(b) <= 1e-12


def test_lab_linear_branch():
    t = 0.5 * (6.0 / 29.0) ** 3
    L, a, b = xyz_array_to_lab(t * _WHITE)
    f = t / (3.0 * (6.0 / 29.0) ** 2) + 4.0 / 29.0
    assert abs(L - (116.0 * f - 16.0)) <= 1e-12
    assert abs(a) <= 1e-12 and abs(b) <= 1e-12


# ---------------------------------------------------------------------------
# CIEDE2000

def test_published_verification_pairs():
    pairs = np.array(CIEDE2000_PAIRS)
    got = ciede2000_array(pairs[:, 0:3].T, pairs[:, 3:6].T)
    for row, value in zip(CIEDE2000_PAIRS, got):
        assert abs(value - row[6]) <= 1e-4, row


def test_identical_colors_give_zero():
    c = np.array([43.2, -11.0, 30.5])
    assert ciede2000_array(c, c) == 0.0


@given(_LABS, _LABS)
def test_symmetry(lab1, lab2):
    a, b = np.array(lab1), np.array(lab2)
    assert ciede2000_array(a, b) == ciede2000_array(b, a)


@given(_LABS, _LABS)
def test_nonnegative(lab1, lab2):
    assert ciede2000_array(np.array(lab1), np.array(lab2)) >= 0.0


@pytest.mark.parametrize("call", [
    lambda: spectra_to_xyz(np.full((31, 4), np.inf), default_wavelengths(31)),
    lambda: spectra_to_xyz(np.full((31, 4), 1e308), default_wavelengths(31)),
    lambda: xyz_array_to_lab(np.full((3, 4), np.inf)),
    lambda: ciede2000_array(np.full((3, 4), np.inf), np.zeros(3)),
    lambda: ciede2000_array(np.full((3, 4), 1e200), np.zeros(3)),
], ids=["xyz-of-inf", "xyz-of-1e308", "lab-of-inf", "de-of-inf", "de-of-1e200"])
def test_non_finite_or_overflowing_input_gives_non_finite_output(call):
    # no RuntimeWarning escapes: the tests run with warnings as errors
    assert not np.isfinite(call()).all()


def test_batched_call_matches_one_pair_calls():
    rng = np.random.default_rng(51)
    lab1 = rng.uniform([-0, -100, -100], [100, 100, 100], (40, 3)).T
    lab2 = rng.uniform([-0, -100, -100], [100, 100, 100], (40, 3)).T
    batch = ciede2000_array(lab1, lab2)
    against_first = ciede2000_array(lab1, lab2[:, 0])  # broadcast against one color
    for i in range(40):
        assert batch[i] == ciede2000_array(lab1[:, i], lab2[:, i])
        assert against_first[i] == ciede2000_array(lab1[:, i], lab2[:, 0])


def test_trailing_axes_broadcast():
    rng = np.random.default_rng(60)
    lab1 = rng.uniform(-100, 100, (3, 4, 5))
    lab2 = rng.uniform(-100, 100, (3, 5))
    de = ciede2000_array(lab1, lab2)
    assert de.shape == (4, 5)
    for i, j in np.ndindex(4, 5):
        assert de[i, j] == ciede2000_array(lab1[:, i, j], lab2[:, j])


# ---------------------------------------------------------------------------
# cube_delta_e

def test_identical_cubes_score_zero():
    cube = random_cube(52, width=5, height=4, bands=31)
    stats = cube_delta_e(cube, cube)
    assert stats.mean == 0.0 and stats.max == 0.0 and stats.p95 == 0.0
    assert stats.map.shape == (4, 5)


def test_mean_is_mean_of_map():
    a = random_cube(53, width=6, height=3, bands=31)
    b = random_cube(54, width=6, height=3, bands=31)
    stats = cube_delta_e(a, b)
    assert abs(stats.mean - float(stats.map.mean())) <= 1e-12
    assert stats.max == float(stats.map.max())
    assert stats.map.min() >= 0.0


def test_delta_e_map_is_read_only():
    # the map stays the one its mean, max and p95 were taken from
    a = random_cube(53, width=6, height=3, bands=31)
    stats = cube_delta_e(a, random_cube(54, width=6, height=3, bands=31))
    assert not stats.map.flags.writeable
    with pytest.raises(ValueError):
        stats.map[0, 0] = 0.0


def test_scoring_out_of_memory_raises_size_limit_error(monkeypatch):
    def exhausted(spectra, wavelengths):
        raise MemoryError

    cube = random_cube(57, width=5, height=4, bands=31)
    monkeypatch.setattr(colorimetry, "spectra_to_xyz", exhausted)
    with pytest.raises(SizeLimitError, match="out of memory scoring"):
        cube_delta_e(cube, cube)


def test_dimension_mismatch_rejected():
    a = random_cube(55, width=4, height=4, bands=31)
    b = random_cube(56, width=5, height=4, bands=31)
    with pytest.raises(ArgumentError):
        cube_delta_e(a, b)
    c = random_cube(57, width=4, height=4, bands=31)
    shifted = type(c)(width=4, height=4, bands=31,
                      wavelengths=c.wavelengths + np.float32(1.0),
                      samples=c.samples)
    with pytest.raises(ArgumentError):
        cube_delta_e(a, shifted)


@pytest.mark.parametrize("width,height,bands", [
    (8193, 1, 31),  # one pixel past a whole chunk: the one chunk takes it
    (100, 90, 31),  # 9000 pixels, one chunk
    (130, 130, 61),  # chunks of 8192 and 8708 pixels, resampled from the 5 nm grid
])
def test_chunked_map_matches_whole_frame(width, height, bands):
    # the chunked scoring is the same public functions over column slices:
    # its map equals one whole-frame pass bit for bit
    rng = np.random.default_rng(59)
    wl = default_wavelengths(bands)
    a, b = (SpectralCube(width, height, bands, wl, rng.uniform(0, 1, (bands, height, width)))
            for _ in range(2))
    wl = wl.astype(np.float64)
    labs = [xyz_array_to_lab(spectra_to_xyz(c.samples.reshape(bands, -1), wl))
            for c in (a, b)]
    whole = ciede2000_array(*labs).reshape(height, width)
    assert np.array_equal(cube_delta_e(a, b).map, whole)
