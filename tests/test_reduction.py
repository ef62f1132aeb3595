"""PCA/KLT and spline-based spectral reduction tests."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cubecodec.cube import SpectralCube
from cubecodec.errors import ArgumentError, ValidationError
from cubecodec.reduction import (
    CsiSideInfo,
    PcaSideInfo,
    csi_forward,
    csi_inverse,
    csi_select_knots,
    pca_fit,
    pca_forward,
    pca_inverse,
)

from conftest import dense_spline_oracle, random_cube


def _cube_from(samples, wavelengths=None):
    samples = np.asarray(samples, dtype=np.float32)
    bands, height, width = samples.shape
    if wavelengths is None:
        wavelengths = (400.0 + 10.0 * np.arange(bands)).astype(np.float32)
    return SpectralCube(width=width, height=height, bands=bands,
                        wavelengths=wavelengths, samples=samples)


def _mse(a: SpectralCube, b: SpectralCube) -> float:
    return float(np.mean((a.samples.astype(np.float64)
                          - b.samples.astype(np.float64)) ** 2))


# ---------------------------------------------------------------------------
# PCA

def test_identical_spectra_give_zero_covariance():
    spectrum = np.array([0.1, 0.4, 0.7], dtype=np.float32)
    samples = np.broadcast_to(spectrum[:, None, None], (3, 4, 5)).copy()
    cube = _cube_from(samples)
    side = pca_fit(cube, 2)
    assert np.all(np.abs(side.eigenvalues) <= 1e-12)
    planes = pca_forward(cube, side)
    assert np.abs(planes).max() <= 1e-9
    recon = pca_inverse(planes, side, cube.wavelengths)
    assert np.allclose(recon.samples.astype(np.float64),
                       spectrum.astype(np.float64)[:, None, None], atol=1e-6)


def test_two_band_diagonal_cube_closed_form():
    # pixel spectra (0,0), (1,1), (2,2), (3,3): eigenvalue 2*var = 10/3
    vals = np.array([0.0, 1.0, 2.0, 3.0], dtype=np.float32).reshape(2, 2)
    cube = _cube_from(np.stack([vals, vals]))
    side = pca_fit(cube, 1)
    assert np.allclose(side.basis[:, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)],
                       atol=1e-12)
    assert abs(side.eigenvalues[0] - 2 * (5.0 / 3.0)) <= 1e-12


def test_full_rank_round_trip_is_identity():
    cube = random_cube(21, width=5, height=4, bands=6)
    side = pca_fit(cube, 6)
    recon = pca_inverse(pca_forward(cube, side), side, cube.wavelengths)
    err = np.abs(recon.samples.astype(np.float64)
                 - cube.samples.astype(np.float64)).max()
    assert err <= 1e-6


def test_forward_hand_computed_projection():
    side = PcaSideInfo(mean=np.zeros(2),
                       basis=np.array([[1.0], [1.0]]) / np.sqrt(2),
                       eigenvalues=np.array([1.0]))
    cube = _cube_from(np.array([[[3.0, 3.0]], [[1.0, 1.0]]]))  # pixel (3, 1)
    planes = pca_forward(cube, side)
    assert np.allclose(planes[0], 4 / np.sqrt(2), atol=1e-12)
    # hand computation: mean + basis * score = (4/sqrt2)*(1,1)/sqrt2 = (2, 2),
    # the rank-1 projection of (3, 1) onto span{(1,1)}
    recon = pca_inverse(planes, side, cube.wavelengths)
    assert abs(float(recon.samples[0, 0, 0]) - 2.0) <= 1e-9
    assert abs(float(recon.samples[1, 0, 0]) - 2.0) <= 1e-9


def test_zero_planes_invert_to_mean():
    cube = random_cube(22, bands=4)
    side = pca_fit(cube, 2)
    zeros = np.zeros((2, cube.height, cube.width))
    recon = pca_inverse(zeros, side, cube.wavelengths)
    assert np.allclose(recon.samples.astype(np.float64),
                       side.mean[:, None, None], atol=1e-6)


@pytest.mark.parametrize("seed", range(5))
def test_fitted_basis_orthonormal(seed):
    cube = random_cube(100 + seed, width=6, height=6, bands=8)
    side = pca_fit(cube, int(np.random.default_rng(seed).integers(1, 9)))
    assert side.orthonormality_defect() < 1e-9


def test_fit_is_bit_deterministic():
    cube = random_cube(23, width=8, height=8, bands=8)
    a = pca_fit(cube, 5)
    b = pca_fit(cube, 5)
    assert a == b  # array_equal on mean, basis, eigenvalues


def test_monotone_reconstruction_error_in_p():
    cube = random_cube(24, width=8, height=8, bands=8)
    errors = []
    for p in range(1, 9):
        side = pca_fit(cube, p)
        recon = pca_inverse(pca_forward(cube, side), side, cube.wavelengths)
        errors.append(_mse(cube, recon))
    for lo, hi in zip(errors[1:], errors[:-1]):
        assert lo <= hi + 1e-12


def _all_knot_sets(n, p):
    interior = itertools.combinations(range(1, n - 1), p - 2)
    return [np.array((0, *mid, n - 1), dtype=np.int64) for mid in interior]


@pytest.mark.parametrize("p", [2, 3])
def test_pca_beats_every_knot_selection(p):
    # KLT optimality among rank-p linear reductions, against the exhaustive
    # set of spline knot selections on small instances.
    for seed in range(6):
        cube = random_cube(300 + seed, width=6, height=6, bands=4)
        side = pca_fit(cube, p)
        pca_mse = _mse(cube, pca_inverse(pca_forward(cube, side), side,
                                         cube.wavelengths))
        csi_best = min(
            _mse(cube, csi_inverse(csi_forward(cube, CsiSideInfo(k)),
                                   CsiSideInfo(k), cube.wavelengths))
            for k in _all_knot_sets(4, p)
        )
        assert pca_mse <= csi_best + 1e-12


def test_pca_argument_errors():
    cube = random_cube(25, bands=4)
    with pytest.raises(ArgumentError):
        pca_fit(cube, 0)
    with pytest.raises(ArgumentError):
        pca_fit(cube, 5)
    single = _cube_from(np.zeros((3, 1, 1), dtype=np.float32))
    with pytest.raises(ArgumentError):
        pca_fit(single, 1)  # needs >= 2 pixels
    side = pca_fit(cube, 2)
    other = random_cube(26, bands=3)
    with pytest.raises(ArgumentError):
        pca_forward(other, side)
    planes = pca_forward(cube, side)
    bad = planes[:1]
    with pytest.raises(ArgumentError):
        pca_inverse(bad, side, cube.wavelengths)


def test_pca_fit_rejects_a_bool_p():
    with pytest.raises(ArgumentError, match="p must be an integer"):
        pca_fit(random_cube(25, bands=4), True)


def test_pca_fit_rejects_a_fractional_p():
    with pytest.raises(ArgumentError, match="p must be an integer"):
        pca_fit(random_cube(25, bands=4), 2.5)


def test_flat_cube_uses_canonical_completion():
    cube = _cube_from(np.full((4, 3, 3), 0.5, dtype=np.float32))
    side = pca_fit(cube, 3)
    assert np.array_equal(side.basis, np.eye(4)[:, :3])
    assert np.all(side.eigenvalues == 0.0)


def test_fit_stays_finite_at_the_float32_extremes():
    # samples of +-float32 max in a checkerboard over bands and pixels: each
    # pixel spectrum is +-F * (1, -1, 1, -1), so the covariance is rank one,
    # F^2 * 16/15 * v v^T, and the sums peak near 4.9e77, far inside float64
    f = float(np.finfo(np.float32).max)
    cube = _cube_from(np.where(np.indices((4, 4, 4)).sum(axis=0) % 2 == 0, f, -f))
    side = pca_fit(cube, 2)
    for values in (side.mean, side.basis, side.eigenvalues):
        assert np.isfinite(values).all()
    assert np.array_equal(side.mean, np.zeros(4))
    assert side.eigenvalues[0] == pytest.approx(4 * f * f * 16 / 15, rel=1e-12)
    assert np.allclose(side.basis[:, 0], [0.5, -0.5, 0.5, -0.5], atol=1e-12)


# ---------------------------------------------------------------------------
# CSI

def test_knot_selection_examples():
    assert np.array_equal(csi_select_knots(31, 2).knot_indices, [0, 30])
    assert np.array_equal(csi_select_knots(31, 31).knot_indices, np.arange(31))
    assert np.array_equal(csi_select_knots(31, 7).knot_indices,
                          [0, 5, 10, 15, 20, 25, 30])


@given(st.integers(2, 64), st.integers(2, 64))
def test_knot_selection_properties(n, p):
    if p > n:
        n, p = p, n
    side = csi_select_knots(n, p)
    k = side.knot_indices
    assert k[0] == 0 and k[-1] == n - 1
    assert np.all(np.diff(k) > 0)
    assert len(k) == p


def test_knot_selection_errors():
    with pytest.raises(ArgumentError):
        csi_select_knots(31, 1)
    with pytest.raises(ArgumentError):
        csi_select_knots(5, 6)


def test_knots_must_be_nonnegative():
    with pytest.raises(ValidationError, match="knot indices must be nonnegative"):
        CsiSideInfo(knot_indices=[-1, 2, 5])


def test_knot_selection_rejects_a_fractional_p():
    # a p of 2.5 once gave the knots 0, 3, 7: past the last of 6 bands
    for p in (2.5, True, np.float64(3.0)):
        with pytest.raises(ArgumentError, match="p must be an integer"):
            csi_select_knots(6, p)


def test_forward_copies_knot_bands():
    cube = random_cube(30, bands=5)
    side = csi_select_knots(5, 5)
    planes = csi_forward(cube, side)
    assert np.array_equal(planes, cube.samples.astype(np.float64))
    ends = csi_forward(cube, csi_select_knots(5, 2))
    assert np.array_equal(ends[0], cube.samples[0].astype(np.float64))
    assert np.array_equal(ends[1], cube.samples[4].astype(np.float64))


def test_forward_direct_indexing_example():
    samples = np.arange(5, dtype=np.float32).reshape(5, 1, 1)
    cube = _cube_from(samples)
    side = CsiSideInfo(np.array([0, 2, 4]))
    planes = csi_forward(cube, side)
    assert np.array_equal(planes.ravel(), [0.0, 2.0, 4.0])


def test_all_knots_reconstruction_is_exact():
    cube = random_cube(31, bands=7)
    side = csi_select_knots(7, 7)
    recon = csi_inverse(csi_forward(cube, side), side, cube.wavelengths)
    assert recon == cube


def test_linear_spectra_survive_any_knot_set():
    # exactly linear, f32-representable spectra: 0.25 + i * 5/256
    bands = 9
    wl = (400.0 + 10.0 * np.arange(bands)).astype(np.float32)
    line = (0.25 + np.arange(bands) * (5.0 / 256.0)).astype(np.float32)
    samples = np.broadcast_to(line[:, None, None], (bands, 2, 3)).copy()
    cube = _cube_from(samples, wl)
    for p in (2, 3, 5, 9):
        side = csi_select_knots(bands, p)
        recon = csi_inverse(csi_forward(cube, side), side, cube.wavelengths)
        assert recon == cube


def test_knot_bands_exact_through_reconstruction():
    cube = random_cube(32, bands=9)
    side = csi_select_knots(9, 4)
    recon = csi_inverse(csi_forward(cube, side), side, cube.wavelengths)
    assert np.array_equal(recon.samples[side.knot_indices],
                          cube.samples[side.knot_indices])


def test_inverse_matches_per_pixel_dense_oracle():
    samples = np.array([0.0, 1.0, 0.0, 1.0, 0.0], dtype=np.float32).reshape(5, 1, 1)
    cube = _cube_from(samples)
    side = CsiSideInfo(np.array([0, 2, 4]))
    planes = csi_forward(cube, side)
    recon = csi_inverse(planes, side, cube.wavelengths)
    wl = cube.wavelengths.astype(np.float64)
    expected = dense_spline_oracle(wl[[0, 2, 4]], [0.0, 0.0, 0.0],
                                   np.atleast_1d(wl[1]))
    # spectrum (0,1,0,1,0) sampled at knots {0,2,4} is identically zero
    assert abs(float(recon.samples[1, 0, 0]) - expected[0]) <= 1e-12


def test_inverse_random_pixels_match_oracle():
    cube = random_cube(33, width=3, height=2, bands=11)
    side = csi_select_knots(11, 5)
    planes = csi_forward(cube, side)
    recon = csi_inverse(planes, side, cube.wavelengths)
    wl = cube.wavelengths.astype(np.float64)
    kx = wl[side.knot_indices]
    for y in range(2):
        for x in range(3):
            ky = cube.samples[side.knot_indices, y, x].astype(np.float64)
            expected = dense_spline_oracle(kx, ky, wl)
            got = recon.samples[:, y, x].astype(np.float64)
            assert np.abs(got - expected).max() <= 1e-7  # f32 storage rounding


def test_csi_dimension_errors():
    cube = random_cube(34, bands=6)
    side = csi_select_knots(6, 3)
    planes = csi_forward(cube, side)
    with pytest.raises(ArgumentError):
        csi_inverse(planes, csi_select_knots(6, 4), cube.wavelengths)
    bad_side = CsiSideInfo(np.array([0, 2, 7]))
    with pytest.raises(ArgumentError):
        csi_forward(cube, bad_side)
