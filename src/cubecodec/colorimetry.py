"""Colorimetric rendering and the CIEDE2000 color difference.

Rendering is fixed: spectra go to CIE XYZ under illuminant D65 with the CIE
1931 2-degree observer, both tabulated on the 400-700 nm grid at 10 nm
steps, and Lab is always taken against the D65 white, the perfect reflector
rendered the same way.  No function takes another observer, illuminant or
white.  The tables are compiled in (`cubecodec dump-constants` prints them
for audit); the D65-weighted color-matching matrix, its Y normalizer and the
reference white are computed once, at import.  Y is normalized so the perfect reflector scores exactly 100.  Lab
conversion uses the standard cube-root/linear branch, and the color
difference implements the full CIEDE2000 formula with unit weighting
factors, including the hue-angle special cases.

The array functions work on channel planes, the first axis: spectra are
(N, ...), bands first, and XYZ and Lab are (3, ...).  Spectra are rendered
band-major: the input's (N, M) view is cast to float64 in its own memory
order, or, off the observer grid, only the bands the resampling reads are,
and one (3, 31) @ (31, M) product follows.  Lab runs f once on the X/Y/Z
planes, and CIEDE2000 runs on the L/a/b planes, each array holding one
quantity under one name.  Every step is the same floating-point operation, in
the same order, as a plain one-temporary-per-step formula, so the values do
not depend on which steps run in place.  :func:`cube_delta_e` feeds them each
cube's own band-major float32 samples, a chunk of pixels at a time, as
:func:`~cubecodec.cube.chunks` sizes and aligns them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import SpectralCube, chunks
from .errors import ArgumentError, SizeLimitError, check_array, check_axis, check_type

# CIE 1931 2-degree standard observer, 400-700 nm at 10 nm.
_CMF_TABLE = np.array([
    # wavelength, xbar, ybar, zbar
    [400.0, 0.014310, 0.000396, 0.067850],
    [410.0, 0.043510, 0.001210, 0.207400],
    [420.0, 0.134380, 0.004000, 0.645600],
    [430.0, 0.283900, 0.011600, 1.385600],
    [440.0, 0.348280, 0.023000, 1.747060],
    [450.0, 0.336200, 0.038000, 1.772110],
    [460.0, 0.290800, 0.060000, 1.669200],
    [470.0, 0.195360, 0.090980, 1.287640],
    [480.0, 0.095640, 0.139020, 0.812950],
    [490.0, 0.032010, 0.208020, 0.465180],
    [500.0, 0.004900, 0.323000, 0.272000],
    [510.0, 0.009300, 0.503000, 0.158200],
    [520.0, 0.063270, 0.710000, 0.078250],
    [530.0, 0.165500, 0.862000, 0.042160],
    [540.0, 0.290400, 0.954000, 0.020300],
    [550.0, 0.433450, 0.994950, 0.008750],
    [560.0, 0.594500, 0.995000, 0.003900],
    [570.0, 0.762100, 0.952000, 0.002100],
    [580.0, 0.916300, 0.870000, 0.001650],
    [590.0, 1.026300, 0.757000, 0.001100],
    [600.0, 1.062200, 0.631000, 0.000800],
    [610.0, 1.002600, 0.503000, 0.000340],
    [620.0, 0.854450, 0.381000, 0.000190],
    [630.0, 0.642400, 0.265000, 0.000050],
    [640.0, 0.447900, 0.175000, 0.000020],
    [650.0, 0.283500, 0.107000, 0.000000],
    [660.0, 0.164900, 0.061000, 0.000000],
    [670.0, 0.087400, 0.032000, 0.000000],
    [680.0, 0.046770, 0.017000, 0.000000],
    [690.0, 0.022700, 0.008210, 0.000000],
    [700.0, 0.011359, 0.004102, 0.000000],
])

# CIE illuminant D65 relative spectral power, same grid.
_D65_POWER = np.array([
    82.7549, 91.4860, 93.4318, 86.6823, 104.8650, 117.0080, 117.8120,
    114.8610, 115.9230, 108.8110, 109.3540, 107.8020, 104.7900, 107.6890,
    104.4050, 104.0460, 100.0000, 96.3342, 95.7880, 88.6856, 90.0062,
    89.5991, 87.6987, 83.2886, 83.6992, 80.0268, 80.2146, 82.2778,
    78.2842, 69.7213, 71.6091,
])


@dataclass(frozen=True)
class DeltaEStats:
    """Per-image CIEDE2000 statistics between two cubes."""

    mean: float
    max: float
    p95: float
    map: np.ndarray  # (H, W)


#: the observer grid, 400-700 nm at 10 nm
_WAVELENGTHS = _CMF_TABLE[:, 0]
#: (M, 3) D65-weighted color-matching functions; the uniform grid step
#: cancels in the Y normalization
_WEIGHTS = _D65_POWER[:, None] * _CMF_TABLE[:, 1:]
# computed through the same band-major product as a single-spectrum
# rendering, so the perfect reflector renders to Y = 100 bit-exactly
_Y_NORM = float((_WEIGHTS.T @ np.ones((_WEIGHTS.shape[0], 1)))[1, 0])


class _ObserverGrid:
    """A checked wavelength grid of ``n`` bands, and the linear resampling of
    band-major spectra on it to the observer grid.

    On the observer grid the bands are cast in their own memory order, so a
    view of contiguous band rows casts to a row-contiguous copy.  Off it, only
    the (at most 62) bands the resampling interpolates between are gathered and
    cast, never all N.
    """

    def __init__(self, wavelengths, n: int):
        wl = check_axis("wavelength grid", wavelengths, np.float64, range(n, n + 1))
        ow = _WAVELENGTHS
        self.read = None  # the bands read, or None on the observer grid
        if np.array_equal(wl, ow):
            return
        if wl[0] > ow[0] or wl[-1] < ow[-1]:
            raise ArgumentError(
                f"spectrum span [{wl[0]}, {wl[-1]}] does not cover observer span "
                f"[{ow[0]}, {ow[-1]}]"
            )
        idx = np.clip(np.searchsorted(wl, ow, side="right") - 1, 0, wl.shape[0] - 2)
        self.t = ((ow - wl[idx]) / (wl[idx + 1] - wl[idx]))[:, None]
        # band idx + 1 sits right after band idx among the bands read
        self.read = np.union1d(idx, idx + 1)
        self.k = np.searchsorted(self.read, idx)

    def resample(self, bands: np.ndarray) -> np.ndarray:
        """Band-major (N, M) spectra of any real dtype as float64 (31, M) spectra
        on the observer grid."""
        if self.read is None:
            return bands.astype(np.float64, copy=False)
        near = bands[self.read].astype(np.float64, copy=False)
        lower = near[self.k]
        lower *= 1.0 - self.t
        upper = near[self.k + 1]
        upper *= self.t
        lower += upper
        return lower


@np.errstate(over="ignore", invalid="ignore")  # see the docstring
def spectra_to_xyz(spectra: np.ndarray, wavelengths) -> np.ndarray:
    """Render (N, ...) reflectance spectra, bands first, to (3, ...) XYZ planes,
    Y in [0, 100].

    The product runs band-major, (3, N) weights times the (N, M) float64
    spectra :meth:`_ObserverGrid.resample` makes of the input's (N, M) view.
    ``wavelengths`` is checked against N, unless it is an :class:`_ObserverGrid`
    already checked for N, as :func:`cube_delta_e` passes for every chunk.

    One spectrum (M = 1) goes through BLAS's matrix-vector kernel, whose sums
    can differ in the last bits from the same spectrum rendered in a batch;
    :func:`cube_delta_e` makes a one-pixel chunk only for a one-pixel cube.
    Non-finite or overflowing spectra give non-finite XYZ, without a warning.
    """
    spectra = check_array("spectra", spectra, None)
    if spectra.ndim == 0 or len(spectra) == 0:
        raise ArgumentError(f"spectra need at least one band on the first axis, got shape {spectra.shape}")
    grid = wavelengths
    if not isinstance(grid, _ObserverGrid):
        grid = _ObserverGrid(wavelengths, len(spectra))
    xyz = _WEIGHTS.T @ grid.resample(spectra.reshape(len(spectra), -1))
    xyz /= _Y_NORM
    xyz *= 100.0
    return xyz.reshape((3,) + spectra.shape[1:])


#: (3,) XYZ of the reference white of every Lab conversion: the perfect
#: reflector under D65 (Y = 100 exactly), rendered as one spectrum: a product
#: over more columns can round the last bits differently
_WHITE = spectra_to_xyz(np.ones((_WAVELENGTHS.shape[0], 1)), _WAVELENGTHS)[:, 0]


_LAB_DELTA3 = (6.0 / 29.0) ** 3
_LAB_SLOPE = 1.0 / (3.0 * (6.0 / 29.0) ** 2)


def _lab_f(t: np.ndarray) -> np.ndarray:
    """Lab's f of ``t``, in place: the cube root above (6/29)^3, else the linear branch."""
    linear = ~(t > _LAB_DELTA3)
    below = _LAB_SLOPE * t[linear] + 4.0 / 29.0
    np.cbrt(t, out=t)
    t[linear] = below
    return t


def _check_planes(name: str, values) -> np.ndarray:
    """``values`` as float64 (3, ...) channel planes."""
    values = check_array(name, values, np.float64)
    if values.shape[:1] != (3,):
        raise ArgumentError(f"{name} must be three channel planes (3, ...), got shape {values.shape}")
    return values


@np.errstate(over="ignore", invalid="ignore")  # see the docstring
def xyz_array_to_lab(xyz: np.ndarray) -> np.ndarray:
    """(3, ...) XYZ planes -> (3, ...) Lab planes against the D65 white :data:`_WHITE`.

    f runs once on the X/Y/Z planes, and L, a and b are written into one new
    (3, ...) array.  Non-finite XYZ gives non-finite Lab, without a warning.
    """
    xyz = _check_planes("xyz", xyz)
    fx, fy, fz = f = _lab_f(xyz.reshape(3, -1) / _WHITE[:, None])
    lab = np.empty_like(f)
    np.multiply(fy, 116.0, out=lab[0])
    lab[0] -= 16.0
    np.subtract(fx, fy, out=lab[1])
    lab[1] *= 500.0
    np.subtract(fy, fz, out=lab[2])
    lab[2] *= 200.0
    return lab.reshape(xyz.shape)


_POW25_7 = 25.0 ** 7
#: degrees to radians and back: np.radians and np.degrees multiply by these
#: same doubles, in a scalar loop at about four times np.multiply's cost
_RADIANS = np.pi / 180.0
_DEGREES = 180.0 / np.pi


def _chroma_ratio(c: np.ndarray) -> np.ndarray:
    """``sqrt(c^7 / (c^7 + 25^7))``, in place."""
    np.power(c, 7, out=c)
    np.divide(c, c + _POW25_7, out=c)
    return np.sqrt(c, out=c)


def _cos_degrees(angle: np.ndarray, weight: float) -> np.ndarray:
    """``weight * cos(angle)`` of an angle in degrees, in place."""
    angle *= _RADIANS
    np.cos(angle, out=angle)
    angle *= weight
    return angle


@np.errstate(over="ignore", invalid="ignore")  # see the docstring
def ciede2000_array(lab1: np.ndarray, lab2: np.ndarray) -> np.ndarray:
    """CIEDE2000 with kL = kC = kH = 1 of (3, ...) Lab planes whose trailing
    axes broadcast, as one (...) array of those axes.

    Each array holds one quantity under one name; a quantity of several steps
    is built in place under its own name.  Values are not checked: non-finite
    or overflowing Lab gives a non-finite value for its pair, and no warning.
    """
    lab1 = _check_planes("lab1", lab1)
    lab2 = _check_planes("lab2", lab2)
    try:
        shape = np.broadcast_shapes(lab1.shape[1:], lab2.shape[1:])
    except ValueError:
        raise ArgumentError(f"Lab planes of shapes {lab1.shape} and {lab2.shape} do not broadcast") from None
    # channels of at least one axis: a ufunc cannot write into a 0-d one
    l1, a1, b1 = lab1[:, None]
    l2, a2, b2 = lab2[:, None]

    c1 = np.hypot(a1, b1)
    c2 = np.hypot(a2, b2)
    # 1 + G, with G = 0.5 * (1 - sqrt(C^7 / (C^7 + 25^7))) of the mean chroma C
    scale = c1 + c2
    scale *= 0.5
    _chroma_ratio(scale)
    np.subtract(1.0, scale, out=scale)
    scale *= 0.5
    scale += 1.0
    a1p = scale * a1
    a2p = scale * a2
    c1p = np.hypot(a1p, b1)
    c2p = np.hypot(a2p, b2)
    h1p = np.arctan2(b1, a1p)
    h2p = np.arctan2(b2, a2p)
    h1p *= _DEGREES
    h2p *= _DEGREES
    # arctan2 lies in [-180, 180] degrees: adding 360 to the negative angles
    # gives np.mod(h, 360.0)'s bits, signed zeros included, at a tenth of its cost
    h1p += 360.0 * (h1p < 0.0)
    h2p += 360.0 * (h2p < 0.0)

    # dH' = 2 sqrt(C1' C2') sin(dh' / 2), built from C1' C2'
    big_dh = c1p * c2p
    zero_chroma = big_dh == 0.0
    # sin(dh' / 2), built from the hue difference dh' = h2' - h1', wrapped
    # into [-180, 180] where the hues lie more than 180 apart, 0 at a zero chroma
    sin_half = h2p - h1p
    apart = np.abs(sin_half) > 180.0
    np.subtract(sin_half, 360.0, out=sin_half, where=sin_half > 180.0)
    np.add(sin_half, 360.0, out=sin_half, where=sin_half < -180.0)
    sin_half[zero_chroma] = 0.0
    sin_half *= _RADIANS
    sin_half /= 2.0
    np.sin(sin_half, out=sin_half)
    np.sqrt(big_dh, out=big_dh)
    big_dh *= 2.0
    big_dh *= sin_half

    # the mean hue: half the hue sum, moved by 360 first where the hues lie
    # more than 180 apart; the sum itself where a chroma is 0
    hsum = h1p + h2p
    low = hsum < 360.0
    hbar = hsum.copy()
    np.add(hbar, 360.0, out=hbar, where=apart & low)
    np.subtract(hbar, 360.0, out=hbar, where=apart & ~low)
    hbar *= 0.5
    np.copyto(hbar, hsum, where=zero_chroma)

    # T = 1 - 0.17 cos(hbar - 30) + 0.24 cos(2 hbar) + 0.32 cos(3 hbar + 6) - 0.20 cos(4 hbar - 63)
    t = _cos_degrees(hbar - 30.0, 0.17)
    np.subtract(1.0, t, out=t)
    t += _cos_degrees(2.0 * hbar, 0.24)
    t += _cos_degrees(3.0 * hbar + 6.0, 0.32)
    t -= _cos_degrees(4.0 * hbar - 63.0, 0.20)
    # the mean chroma C' and R_C = 2 sqrt(C'^7 / (C'^7 + 25^7))
    cbar_p = c1p + c2p
    cbar_p *= 0.5
    rc = _chroma_ratio(cbar_p.copy())
    rc *= 2.0
    # the rotation term R_T y z (y and z below), with
    # R_T = -sin(2 dtheta) R_C and dtheta = 30 exp(-((hbar - 275) / 25)^2)
    rotation = hbar - 275.0
    rotation /= 25.0
    np.square(rotation, out=rotation)
    np.negative(rotation, out=rotation)
    np.exp(rotation, out=rotation)
    rotation *= 30.0
    rotation *= 2.0
    rotation *= _RADIANS
    np.sin(rotation, out=rotation)
    np.negative(rotation, out=rotation)
    rotation *= rc

    # the weights S_L = 1 + 0.015 (lbar - 50)^2 / sqrt(20 + (lbar - 50)^2), S_C and S_H
    sl = l1 + l2
    sl *= 0.5
    sl -= 50.0
    np.square(sl, out=sl)
    root = 20.0 + sl
    np.sqrt(root, out=root)
    sl *= 0.015
    sl /= root
    sl += 1.0
    sh = 0.015 * cbar_p
    sh *= t
    sh += 1.0
    sc = cbar_p * 0.045
    sc += 1.0

    # dE00 = sqrt(x^2 + y^2 + z^2 + R_T y z) of the weighted differences
    # x = dL' / S_L, y = dC' / S_C and z = dH' / S_H, built from x
    de = l2 - l1
    de /= sl
    y = c2p - c1p
    y /= sc
    z = big_dh / sh
    rotation *= y
    rotation *= z
    np.square(de, out=de)
    de += y * y
    de += z * z
    de += rotation
    return np.sqrt(de, out=de).reshape(shape)


def cube_delta_e(original: SpectralCube, reconstructed: SpectralCube) -> DeltaEStats:
    """Per-pixel CIEDE2000 between two cubes, both rendered under D65.

    Each cube's band-major samples are scored straight into one preallocated
    map, in :func:`~cubecodec.cube.chunks` at 16 samples per pixel: 8192 pixels,
    where a 31-band cube's 4224-pixel chunks at N per pixel scored slower.
    A chunk is cast to float64 only in the (at most 62) bands the observer
    grid reads, so an N-band cube scores in about a 31-band cube's memory.
    Running out of memory raises :class:`SizeLimitError`.
    """
    check_type("original", original, SpectralCube)
    check_type("reconstructed", reconstructed, SpectralCube)
    if (original.width, original.height, original.bands) != (
            reconstructed.width, reconstructed.height, reconstructed.bands):
        raise ArgumentError("cubes have different dimensions")
    if not np.array_equal(original.wavelengths, reconstructed.wavelengths):
        raise ArgumentError("cubes have different wavelength grids")
    grid = _ObserverGrid(original.wavelengths, original.bands)  # checked once, not per chunk
    bands_a = original.samples.reshape(original.bands, -1)
    bands_b = reconstructed.samples.reshape(reconstructed.bands, -1)
    try:
        de = np.empty(bands_a.shape[1])
        for lo, hi in chunks(len(de), 16):  # 16 a pixel: measured, not a count of live samples
            lab_a = xyz_array_to_lab(spectra_to_xyz(bands_a[:, lo:hi], grid))
            lab_b = xyz_array_to_lab(spectra_to_xyz(bands_b[:, lo:hi], grid))
            de[lo:hi] = ciede2000_array(lab_a, lab_b)
    except MemoryError:
        raise SizeLimitError(f"out of memory scoring a {original.bands} x {original.width} x "
                             f"{original.height} cube") from None
    de = de.reshape(original.height, original.width)
    de.setflags(write=False)  # the map stays what mean, max and p95 were taken from
    return DeltaEStats(
        mean=float(de.mean()),
        max=float(de.max()),
        p95=float(np.percentile(de, 95.0)),
        map=de,
    )
