"""Spectral-dimension reduction: PCA/KLT and cubic-spline band subsampling.

Both reducers turn an N-band cube into P spatial planes, a ``(P, H, W)``
array, plus the side information a decoder needs to invert the reduction:
the band-mean vector and the N x P eigenvector basis for PCA, or the
retained band indices for the spline method (knots are uniform in band
index, endpoints always included, so reconstruction never extrapolates).
PCA's planes are float64 scores, projected a chunk of pixels at a time
(:func:`~cubecodec.cube.chunks`); the spline method's are the knot bands,
float32 as the cube holds them.  The side-info records are frozen.

Both inverses are linear and share one synthesis, ``matrix @ planes (+ mean)``:
the matrix is the PCA basis (plus the band means) or the natural-spline
matrix of :func:`csi_reconstruction_matrix`.  The synthesis owns the decode
loop, over spans of rows of planes given whole or as the decoder's
:class:`~cubecodec.spatial.PlaneBands`, so it makes no whole-cube float64 array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import CHUNK_ALIGN, MAX_DIM, SpectralCube, chunks, freeze, values_equal
from .errors import (ArgumentError, ValidationError, check_array, check_axis, check_int,
                     check_type)
from .spatial import PlaneBands
from .spline import natural_cubic_spline


@dataclass(frozen=True, eq=False)
class PcaSideInfo:
    """Decoder-side PCA metadata: band means, basis columns, eigenvalues; 1 <= p <= n."""

    mean: np.ndarray  # (N,) float64
    basis: np.ndarray  # (N, P) float64, orthonormal columns
    eigenvalues: np.ndarray  # (P,) float64, non-increasing

    def __post_init__(self):
        mean, basis, eigenvalues = (check_array(name, getattr(self, name), np.float64,
                                                ValidationError)
                                    for name in ("mean", "basis", "eigenvalues"))
        if mean.ndim != 1 or basis.ndim != 2:
            raise ValidationError("mean must be 1-D and basis 2-D")
        n, p = basis.shape
        if mean.shape != (n,) or eigenvalues.shape != (p,):
            raise ValidationError("side-info shapes are inconsistent")
        if not 1 <= p <= n:
            raise ValidationError(f"side info needs 1 to {n} components, got p={p}")
        if not (np.isfinite(mean).all() and np.isfinite(basis).all()
                and np.isfinite(eigenvalues).all()):
            raise ValidationError("side info contains non-finite values")
        if np.any(np.diff(eigenvalues) > 0):
            raise ValidationError("eigenvalues must be non-increasing")
        if np.any(eigenvalues < -1e-12):
            raise ValidationError("eigenvalues must be numerically nonnegative")
        freeze(self, mean=mean, basis=basis, eigenvalues=eigenvalues)

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def p(self) -> int:
        return self.basis.shape[1]

    def check_for_bands(self, n: int, error: type = ArgumentError):
        """Raise ``error`` unless the side info is for ``n`` bands."""
        if self.n != n:
            raise error(f"side info is for {self.n} bands, not {n}")

    def orthonormality_defect(self) -> float:
        """Max-norm of basis^T basis - I."""
        g = self.basis.T @ self.basis
        return float(np.abs(g - np.eye(self.p)).max())

    __eq__ = values_equal


@dataclass(frozen=True, eq=False)
class CsiSideInfo:
    """Decoder-side spline metadata: strictly increasing retained band indices."""

    knot_indices: np.ndarray  # (P,) int64, first 0, last N-1

    def __post_init__(self):
        knots = check_axis("knot_indices", self.knot_indices, np.int64, range(2, MAX_DIM + 1),
                           ValidationError)
        if knots[0] < 0:
            raise ValidationError("knot indices must be nonnegative")
        freeze(self, knot_indices=knots)

    @property
    def p(self) -> int:
        return self.knot_indices.shape[0]

    def check_for_bands(self, n: int, error: type = ArgumentError):
        """Raise ``error`` unless the knots span ``n`` bands, 0 to n - 1."""
        if self.knot_indices[0] != 0 or self.knot_indices[-1] != n - 1:
            raise error(
                f"knots must include both end bands 0 and {n - 1}, "
                f"got {self.knot_indices[0]}..{self.knot_indices[-1]}"
            )

    __eq__ = values_equal


def pca_fit(cube: SpectralCube, p: int) -> PcaSideInfo:
    """Fit the KLT basis of a cube's band covariance.

    The covariance is accumulated in float64 over all pixels (divisor
    H*W - 1); the returned basis holds eigenvectors of the p largest
    eigenvalues, sorted descending, each column sign-fixed so its
    largest-magnitude entry is positive.
    """
    n = check_type("cube", cube, SpectralCube).bands
    p = check_int("p", p, 1, n)
    npix = cube.width * cube.height
    if npix < 2:
        raise ArgumentError("PCA needs at least two pixels")
    centered = cube.pixel_matrix().astype(np.float64)  # (HW, N), a copy
    mean = centered.mean(axis=0)
    centered -= mean  # in place: one (HW, N) array, not two
    # finite float32 samples center to below 6.8e38, so each product is below
    # 4.7e77 and a sum over 2^27 pixels below 6.2e85: float64 cannot overflow
    cov = centered.T @ centered
    del centered  # not kept through the divide and eigh
    cov /= npix - 1
    if not cov.any():
        # zero variance everywhere: deterministic canonical completion
        basis = np.eye(n)[:, :p]
        return PcaSideInfo(mean=mean, basis=basis, eigenvalues=np.zeros(p))
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w, kind="stable")[::-1][:p]
    eigenvalues = np.maximum(w[order], 0.0)
    basis = v[:, order]
    # sign convention: largest-magnitude entry of each column positive
    pivot = np.argmax(np.abs(basis), axis=0)
    signs = np.sign(basis[pivot, np.arange(basis.shape[1])])
    signs[signs == 0] = 1.0
    basis = basis * signs
    return PcaSideInfo(mean=mean, basis=basis, eigenvalues=eigenvalues)


def pca_forward(cube: SpectralCube, side: PcaSideInfo) -> np.ndarray:
    """Project mean-centered spectra onto the basis: one (H, W) plane per component.

    Runs band-major: ``basis.T @ (samples - mean)`` on the (N, H*W) samples
    gives the (P, H*W) planes contiguous, where the pixel-major product
    ``(H*W, N) @ (N, P)`` gives their transpose.  Every score rounds as in
    that product, bit for bit on every cube tried: the pixel count is
    zero-padded to :data:`~cubecodec.cube.CHUNK_ALIGN`.
    The centered samples are made a chunk of pixels at a time.
    """
    check_type("cube", cube, SpectralCube)
    check_type("side", side, PcaSideInfo).check_for_bands(cube.bands)
    n, npix = cube.bands, cube.width * cube.height
    samples = cube.samples.reshape(n, -1)
    planes = np.empty((side.p, npix))
    # numpy runs a one-row product as a matrix-vector one, whose rounding
    # depends on the layout and the length: that one keeps the whole
    # pixel-major (H*W, N) view.  The others project chunks of the padded
    # pixels, each of at least 2**20 multiply-adds: OpenBLAS runs a product
    # of at most 100**3 through its small-matrix kernel, whose sums over more
    # than about 384 bands round differently from the blocked kernel's.
    spans = [(0, npix)] if side.p == 1 else chunks(npix + -npix % CHUNK_ALIGN, n * side.p // 16)
    for lo, hi in spans:
        real = min(hi, npix) - lo
        centered = np.zeros((n, hi - lo))
        np.subtract(samples[:, lo:lo + real], side.mean[:, None], out=centered[:, :real])
        scores = (centered.T @ side.basis).T if side.p == 1 else side.basis.T @ centered
        planes[:, lo:lo + real] = scores[:, :real]
    return planes.reshape(side.p, cube.height, cube.width)


def pca_inverse(planes: np.ndarray, side: PcaSideInfo, wavelengths) -> SpectralCube:
    """Reconstruct a cube from component planes: mean + basis @ scores (no clamping)."""
    check_type("side", side, PcaSideInfo)
    return _synthesize(side.basis, planes, wavelengths, mean=side.mean)


def csi_select_knots(n: int, p: int) -> CsiSideInfo:
    """Uniform-in-band-index knots: round(k*(n-1)/(p-1)), endpoints included."""
    n = check_int("n", n, 1, MAX_DIM)
    p = check_int("p", p, 2, n)
    k = np.arange(p, dtype=np.float64)
    idx = np.floor(k * (n - 1) / (p - 1) + 0.5).astype(np.int64)
    return CsiSideInfo(knot_indices=idx)


def csi_forward(cube: SpectralCube, side: CsiSideInfo) -> np.ndarray:
    """Retain the knot bands, copied unmodified: a ``(P, H, W)`` float32 array."""
    check_type("cube", cube, SpectralCube)
    check_type("side", side, CsiSideInfo).check_for_bands(cube.bands)
    return cube.samples[side.knot_indices]


def csi_reconstruction_matrix(side: CsiSideInfo, wavelengths: np.ndarray) -> np.ndarray:
    """(N, P) matrix mapping knot-band values to all N bands.

    The natural spline is linear in its knot ordinates, so reconstruction is
    a fixed matrix for a given knot set: column j is the spline response to
    the j-th unit vector.  Rows at knot bands are exact unit rows, which
    keeps retained bands bit-exact through reconstruction.
    """
    wl = check_axis("wavelengths", wavelengths, np.float64, range(1, MAX_DIM + 1))
    check_type("side", side, CsiSideInfo).check_for_bands(len(wl))
    return natural_cubic_spline(wl[side.knot_indices], np.eye(side.p), wl)


def csi_inverse(planes: np.ndarray, side: CsiSideInfo, wavelengths) -> SpectralCube:
    """Reconstruct all bands per pixel by natural-spline interpolation over knots."""
    return _synthesize(csi_reconstruction_matrix(side, wavelengths), planes, wavelengths)


def _synthesize(matrix: np.ndarray, planes, wavelengths,
                mean: np.ndarray | None = None) -> SpectralCube:
    """The cube ``matrix @ planes (+ mean)``: an (N, P) matrix times (P, H, W) planes,
    given as one array or as :class:`~cubecodec.spatial.PlaneBands`.

    The one decode loop: each span of rows, sliced from the array or decoded by
    :meth:`PlaneBands.rows`, goes a chunk of pixels at a time into the float32 cube.
    A sample outside float32 (non-finite planes make one) is stored with no numpy
    warning, and :class:`SpectralCube` refuses it with :class:`ValidationError`;
    the ``np.errstate`` around the loop covers the decoder's dequantize and scale steps.
    """
    n, p = matrix.shape
    if isinstance(planes, PlaneBands):
        shape, rows = planes.shape, planes.rows
    else:
        planes = check_array("planes", planes, None)  # the product casts each chunk
        shape, rows = planes.shape, lambda lo, hi: planes[:, lo:hi]
    if len(shape) != 3 or shape[0] != p:
        raise ArgumentError(f"planes of shape {shape} for {p} components")
    wl = check_axis("wavelengths", wavelengths, np.float32, range(n, n + 1))
    _, height, width = shape
    samples = np.empty((n, height * width), dtype=np.float32)
    # per pixel, the float64 samples alive in the loop: a decoded span with the
    # pair of arrays PlaneBands.rows makes it from (3 * p) and this product (n)
    live = 3 * p + n
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in chunks(height, live * width):
            span = rows(lo, hi).reshape(p, -1)
            start = lo * width  # a multiple of 16 pixels, as the chunks' edges are
            for a, b in chunks(span.shape[1], live):
                recon = matrix @ span[:, a:b]
                if mean is not None:
                    recon += mean[:, None]
                samples[:, start + a:start + b] = recon
    return SpectralCube(width=width, height=height, bands=n, wavelengths=wl,
                        samples=samples.reshape(n, height, width))
