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

The array functions take and return pixel-interleaved (..., 3) arrays but
work channel-planar: spectra are rendered band-major, with one (3, N) @
(N, M) product, and Lab and CIEDE2000 run on contiguous 1-D L/a/b planes.
:func:`cube_delta_e` feeds them each cube's own band-major samples, a chunk
of pixels at a time, as :func:`~cubecodec.cube.chunks` sizes and aligns them.
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


def _resample_to_observer(bands: np.ndarray, wavelengths) -> np.ndarray:
    """Linear resampling of band-major (N, M) spectra onto the observer grid."""
    n = bands.shape[0]
    wl = check_axis("wavelength grid", wavelengths, np.float64, range(n, n + 1))
    ow = _WAVELENGTHS
    if np.array_equal(wl, ow):
        return bands
    if wl[0] > ow[0] or wl[-1] < ow[-1]:
        raise ArgumentError(
            f"spectrum span [{wl[0]}, {wl[-1]}] does not cover observer span "
            f"[{ow[0]}, {ow[-1]}]"
        )
    idx = np.clip(np.searchsorted(wl, ow, side="right") - 1, 0, wl.shape[0] - 2)
    t = ((ow - wl[idx]) / (wl[idx + 1] - wl[idx]))[:, None]
    return bands[idx] * (1.0 - t) + bands[idx + 1] * t


def spectra_to_xyz(spectra: np.ndarray, wavelengths) -> np.ndarray:
    """Render (..., N) reflectance spectra to (..., 3) XYZ, Y in [0, 100].

    The product runs band-major, (3, N) weights times (N, M) spectra, and the
    result is a (..., 3) view of the (3, M) X/Y/Z planes.
    """
    spectra = check_array("spectra", spectra, np.float64)
    if spectra.ndim == 0 or spectra.shape[-1] == 0:
        raise ArgumentError(f"spectra need at least one band on the last axis, got shape {spectra.shape}")
    bands = spectra.reshape(-1, spectra.shape[-1]).T
    xyz = 100.0 * ((_WEIGHTS.T @ _resample_to_observer(bands, wavelengths)) / _Y_NORM)
    return xyz.T.reshape(spectra.shape[:-1] + (3,))


#: (3,) XYZ of the reference white of every Lab conversion: the perfect
#: reflector under D65 (Y = 100 exactly), rendered as one spectrum: a product
#: over more columns can round the last bits differently
_WHITE = spectra_to_xyz(np.ones((1, _WAVELENGTHS.shape[0])), _WAVELENGTHS)[0]


_LAB_DELTA3 = (6.0 / 29.0) ** 3
_LAB_SLOPE = 1.0 / (3.0 * (6.0 / 29.0) ** 2)


def _lab_f(t: np.ndarray) -> np.ndarray:
    return np.where(t > _LAB_DELTA3, np.cbrt(t), _LAB_SLOPE * t + 4.0 / 29.0)


def _planes(values: np.ndarray) -> np.ndarray:
    """(..., 3) values as contiguous (3, K) planes; no copy for a view of planes."""
    if values.shape[-1:] != (3,):
        raise ArgumentError(f"expected (..., 3) color arrays, got shape {values.shape}")
    return np.ascontiguousarray(np.moveaxis(values, -1, 0).reshape(3, -1))


def xyz_array_to_lab(xyz: np.ndarray) -> np.ndarray:
    """(..., 3) XYZ -> (..., 3) Lab against the D65 white :data:`_WHITE`.

    Each channel is worked on as one contiguous plane; the result is a
    (..., 3) view of the (3, ...) L/a/b planes.
    """
    xyz = check_array("xyz", xyz, np.float64)
    x, y, z = _planes(xyz)
    fx = _lab_f(x / _WHITE[0])
    fy = _lab_f(y / _WHITE[1])
    fz = _lab_f(z / _WHITE[2])
    lab = np.stack([116.0 * fy - 16.0, 500.0 * (fx - fy), 200.0 * (fy - fz)])
    return np.moveaxis(lab.reshape((3,) + xyz.shape[:-1]), 0, -1)


_POW25_7 = 25.0 ** 7


def ciede2000_array(lab1: np.ndarray, lab2: np.ndarray) -> np.ndarray:
    """CIEDE2000 on (..., 3) Lab arrays with kL = kC = kH = 1.

    The formula runs on contiguous 1-D L/a/b planes.  Nothing is checked
    for finiteness: a non-finite Lab component gives NaN for its pair.
    """
    lab1, lab2 = np.broadcast_arrays(check_array("lab1", lab1, np.float64),
                                     check_array("lab2", lab2, np.float64))
    l1, a1, b1 = _planes(lab1)
    l2, a2, b2 = _planes(lab2)

    c1 = np.hypot(a1, b1)
    c2 = np.hypot(a2, b2)
    cbar = 0.5 * (c1 + c2)
    cbar7 = cbar ** 7
    g = 0.5 * (1.0 - np.sqrt(cbar7 / (cbar7 + _POW25_7)))
    a1p = (1.0 + g) * a1
    a2p = (1.0 + g) * a2
    c1p = np.hypot(a1p, b1)
    c2p = np.hypot(a2p, b2)
    h1p = np.degrees(np.arctan2(b1, a1p))
    h2p = np.degrees(np.arctan2(b2, a2p))
    # arctan2 lies in [-180, 180] degrees: adding 360 to the negative angles
    # gives np.mod(h, 360.0)'s bits, signed zeros included, at a tenth of its cost
    h1p += 360.0 * (h1p < 0.0)
    h2p += 360.0 * (h2p < 0.0)

    dl = l2 - l1
    dc = c2p - c1p
    hdiff = h2p - h1p
    zero_chroma = c1p * c2p == 0.0
    dh = np.where(hdiff > 180.0, hdiff - 360.0, np.where(hdiff < -180.0, hdiff + 360.0, hdiff))
    dh = np.where(zero_chroma, 0.0, dh)
    dbig_h = 2.0 * np.sqrt(c1p * c2p) * np.sin(np.radians(dh) / 2.0)

    lbar = 0.5 * (l1 + l2)
    cbar_p = 0.5 * (c1p + c2p)
    hsum = h1p + h2p
    habs = np.abs(h1p - h2p)
    hbar = np.where(habs <= 180.0, 0.5 * hsum,
                    np.where(hsum < 360.0, 0.5 * (hsum + 360.0), 0.5 * (hsum - 360.0)))
    hbar = np.where(zero_chroma, hsum, hbar)

    t = (1.0
         - 0.17 * np.cos(np.radians(hbar - 30.0))
         + 0.24 * np.cos(np.radians(2.0 * hbar))
         + 0.32 * np.cos(np.radians(3.0 * hbar + 6.0))
         - 0.20 * np.cos(np.radians(4.0 * hbar - 63.0)))
    dtheta = 30.0 * np.exp(-(((hbar - 275.0) / 25.0) ** 2))
    cbar_p7 = cbar_p ** 7
    rc = 2.0 * np.sqrt(cbar_p7 / (cbar_p7 + _POW25_7))
    lterm = (lbar - 50.0) ** 2
    sl = 1.0 + 0.015 * lterm / np.sqrt(20.0 + lterm)
    sc = 1.0 + 0.045 * cbar_p
    sh = 1.0 + 0.015 * cbar_p * t
    rt = -np.sin(np.radians(2.0 * dtheta)) * rc

    x = dl / sl
    y = dc / sc
    z = dbig_h / sh
    return np.sqrt(x * x + y * y + z * z + rt * y * z).reshape(lab1.shape[:-1])


def cube_delta_e(original: SpectralCube, reconstructed: SpectralCube) -> DeltaEStats:
    """Per-pixel CIEDE2000 between two cubes, both rendered under D65.

    Each cube's band-major samples are scored straight into one preallocated
    map, in :func:`~cubecodec.cube.chunks` at 16 samples per pixel: 8192 pixels,
    where a 31-band cube's 4224-pixel chunks at N per pixel scored slower.
    Running out of memory raises :class:`SizeLimitError`.
    """
    check_type("original", original, SpectralCube)
    check_type("reconstructed", reconstructed, SpectralCube)
    if (original.width, original.height, original.bands) != (
            reconstructed.width, reconstructed.height, reconstructed.bands):
        raise ArgumentError("cubes have different dimensions")
    if not np.array_equal(original.wavelengths, reconstructed.wavelengths):
        raise ArgumentError("cubes have different wavelength grids")
    wl = original.wavelengths.astype(np.float64)
    bands_a = original.samples.reshape(original.bands, -1)
    bands_b = reconstructed.samples.reshape(reconstructed.bands, -1)
    try:
        de = np.empty(bands_a.shape[1])
        for lo, hi in chunks(len(de), 16):
            lab_a = xyz_array_to_lab(spectra_to_xyz(bands_a[:, lo:hi].T, wl))
            lab_b = xyz_array_to_lab(spectra_to_xyz(bands_b[:, lo:hi].T, wl))
            de[lo:hi] = ciede2000_array(lab_a, lab_b)
    except MemoryError:
        raise SizeLimitError(f"out of memory scoring a {original.bands} x {original.width} x "
                             f"{original.height} cube") from None
    de = de.reshape(original.height, original.width)
    return DeltaEStats(
        mean=float(de.mean()),
        max=float(de.max()),
        p95=float(np.percentile(de, 95.0)),
        map=de,
    )
