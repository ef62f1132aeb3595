"""Benchmark harness: compression rate, stage timings, and color error.

One benchmark row = (image, method, p): compress at the target rate, then
time compress -> serialize -> parse -> decompress at the chosen quality
(median over repetitions; the stage split comes from the codec's reports),
and score the reconstruction with CIEDE2000 statistics.  Rows that fail
(unreachable rate target, unreadable input) stay in the report flagged with
an error message so the row count is always |corpus| x |methods| x |p-values|.

The default corpus is four synthesized 64x64x31 stand-in cubes covering the
content classes a spectral-compression study cares about: smooth skin-like
spectra, a saturated narrow-band emitter, a dark low-signal scene, and a
patchwise-constant chart.  They are stand-ins, not reproductions of any
particular test imagery.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .colorimetry import cube_delta_e
from .container import (
    SPECTRAL_METHODS,
    RateTarget,
    compress_with_report,
    decompress_with_report,
    parse_stream,
    serialize_stream,
    spectral_method,
)
from .cube import (
    SpectralCube,
    chunks,
    default_wavelengths,
    read_cube,
    smooth_field,
    synthesize_cube,
)
from .errors import ArgumentError, CodecError, RateError, ValidationError, check_int, check_type

CSV_COLUMNS = (
    "image", "method", "p", "target_cr", "achieved_cr",
    "t_spectral_ms", "t_spatial_ms", "t_total_ms",
    "de_mean", "de_p95", "de_max",
)

DEFAULT_P_VALUES = (20, 24, 28)
_NOISE_SIGMA = 0.012  # broadband sensor-noise stand-in, reflectance units


@dataclass(frozen=True)
class EvalReport:
    """One benchmark row, built once; failed rows carry ``error`` and NaN metrics."""

    image: str
    method: str
    p: int
    target_cr: float
    achieved_cr: float = float("nan")
    t_spectral_ms: float = float("nan")
    t_spatial_ms: float = float("nan")
    t_total_ms: float = float("nan")
    de_mean: float = float("nan")
    de_p95: float = float("nan")
    de_max: float = float("nan")
    rate_in_window: bool = False
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class BenchConfig:
    """Benchmark run description (see ``parse_config`` for the file format); frozen,
    so its checks hold for as long as it lives: vary one with ``dataclasses.replace``."""

    corpus: tuple[str, ...]
    methods: tuple[str, ...] = tuple(SPECTRAL_METHODS)
    p_values: tuple[int, ...] = DEFAULT_P_VALUES
    target_cr: float = 8.0
    tolerance: float = 0.05
    repetitions: int = 5
    size_sweep: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):  # a list field is stored as a tuple, so no caller mutates it
        for name in ("corpus", "methods", "p_values", "size_sweep"):
            value = tuple(check_type(name, getattr(self, name), (list, tuple), ValidationError))
            object.__setattr__(self, name, value)
        for entry in self.corpus:
            check_type("corpus entry", entry, str, ValidationError)
        for size in self.size_sweep:
            if len(check_type("size_sweep entry", size, (list, tuple), ValidationError)) != 2:
                raise ValidationError(f"size_sweep entries are (width, height) pairs, got {size!r}")
        object.__setattr__(self, "size_sweep", tuple(map(tuple, self.size_sweep)))
        if not self.corpus and not self.size_sweep:
            raise ValidationError("config needs a non-empty corpus or a size sweep")
        if not self.methods:
            raise ValidationError("config needs at least one method")
        for m in self.methods:
            spectral_method(m, ValidationError)
        if not self.p_values:
            raise ValidationError("config needs at least one p value")
        for p in self.p_values:
            check_int("p", p, 1, 0xFFFF, ValidationError)
        check_int("repetitions", self.repetitions, 3, error=ValidationError)
        try:  # the rate window's own rule, so a config that loads can run
            RateTarget(target_cr=self.target_cr, tolerance=self.tolerance)
        except ArgumentError as exc:
            raise ValidationError(str(exc)) from None


def default_config() -> BenchConfig:
    return BenchConfig(corpus=BUILTIN_CORPUS)


# ---------------------------------------------------------------------------
# synthetic corpus

def _finish(values: np.ndarray, rng: np.random.Generator,
            noise: float = _NOISE_SIGMA) -> np.ndarray:
    """Add broadband noise and clip into a safe reflectance range."""
    values = values + rng.normal(0.0, noise, values.shape)
    return np.clip(values, 0.02, 0.98)


def _cube(samples: np.ndarray) -> SpectralCube:
    """The cube of ``(bands, height, width)`` samples, as float32, on the default grid."""
    bands, height, width = samples.shape
    return SpectralCube(width=width, height=height, bands=bands,
                        wavelengths=default_wavelengths(bands),
                        samples=samples.astype(np.float32, copy=False))


def _gauss(wl, center, width):
    return np.exp(-0.5 * ((wl - center) / width) ** 2)


def make_skin_cube(width: int = 64, height: int = 64, seed: int = 2101) -> SpectralCube:
    """Smooth skin-like reflectances: rising red edge with mid-green dips."""
    rng = np.random.default_rng(seed)
    wl = default_wavelengths(31).astype(np.float64)
    base = (0.30 + 0.24 / (1.0 + np.exp(-(wl - 585.0) / 26.0))
            - 0.10 * _gauss(wl, 545.0, 22.0) - 0.05 * _gauss(wl, 577.0, 14.0)
            + 0.04 * _gauss(wl, 435.0, 28.0))
    brightness = smooth_field(rng, height, width, 0.72, 1.18, cells=3)
    tilt = smooth_field(rng, height, width, -0.06, 0.08, cells=4)
    spectra = base[:, None, None] * brightness[None] \
        + tilt[None] * ((wl[:, None, None] - 550.0) / 150.0) * 0.5
    return _cube(_finish(spectra, rng))


def make_narrowband_cube(width: int = 64, height: int = 64, seed: int = 2102) -> SpectralCube:
    """Saturated narrow-band reflectance peak around 620-650 nm."""
    rng = np.random.default_rng(seed)
    wl = default_wavelengths(31).astype(np.float64)
    center = smooth_field(rng, height, width, 615.0, 648.0, cells=3)
    sigma = smooth_field(rng, height, width, 10.0, 16.0, cells=3)
    amp = smooth_field(rng, height, width, 0.45, 0.82, cells=4)
    lam = wl[:, None, None]
    spectra = (0.05 + 0.04 * _gauss(wl, 460.0, 35.0)[:, None, None]
               + amp[None] * np.exp(-0.5 * ((lam - center[None]) / sigma[None]) ** 2))
    return _cube(_finish(spectra, rng))


def make_dark_cube(width: int = 64, height: int = 64, seed: int = 2103) -> SpectralCube:
    """Dark low-signal scene with a gentle red rise."""
    rng = np.random.default_rng(seed)
    wl = default_wavelengths(31).astype(np.float64)
    shape = 0.35 + 0.65 / (1.0 + np.exp(-(wl - 615.0) / 30.0))
    amp = smooth_field(rng, height, width, 0.08, 0.28, cells=4)
    floor = smooth_field(rng, height, width, 0.03, 0.08, cells=3)
    spectra = floor[None] + amp[None] * shape[:, None, None]
    return _cube(_finish(spectra, rng, noise=0.006))


def make_chart_cube(width: int = 64, height: int = 64, seed: int = 2104) -> SpectralCube:
    """Patchwise-constant color chart: 4 x 6 patches of distinct smooth spectra."""
    rng = np.random.default_rng(seed)
    rows, cols = 4, 6
    bands = 31
    anchors = np.linspace(0.0, bands - 1.0, 6)
    grid = np.arange(bands, dtype=np.float64)
    patch_spectra = np.empty((rows * cols, bands))
    for i in range(rows * cols):
        vals = rng.uniform(0.08, 0.92, anchors.shape[0])
        patch_spectra[i] = np.interp(grid, anchors, vals)
    ygrid = np.minimum(np.arange(height) * rows // height, rows - 1)
    xgrid = np.minimum(np.arange(width) * cols // width, cols - 1)
    patch_index = ygrid[:, None] * cols + xgrid[None, :]
    spectra = patch_spectra[patch_index].transpose(2, 0, 1)  # (bands, H, W)
    vignette = smooth_field(rng, height, width, 0.92, 1.05, cells=2)
    shading = 1.0 + 0.05 * smooth_field(rng, height, width, -1.0, 1.0, cells=16)
    return _cube(_finish(spectra * (vignette * shading)[None], rng, noise=0.02))


def make_sweep_cube(width: int, height: int, seed: int = 2105) -> SpectralCube:
    """Textured cube for timing sweeps: smooth spectra plus a narrow feature."""
    rng = np.random.default_rng(seed)
    base = synthesize_cube(width, height, 31, "random-smooth", seed=seed)
    amp = smooth_field(rng, height, width, 0.0, 0.35, cells=4)
    gauss = _gauss(default_wavelengths(31).astype(np.float64), 630.0, 14.0)
    samples = np.empty(base.samples.shape, dtype=np.float32)
    # a chunk of bands at a time; the noise is drawn in the same order
    for lo, hi in chunks(31, width * height, align=1):
        peak = amp[None] * gauss[lo:hi, None, None]
        samples[lo:hi] = _finish(0.8 * base.samples[lo:hi].astype(np.float64) + peak, rng)
    return _cube(samples)


_BUILTIN_BUILDERS = {
    "skin": make_skin_cube,
    "narrowband": make_narrowband_cube,
    "dark": make_dark_cube,
    "chart": make_chart_cube,
}
BUILTIN_CORPUS = tuple(_BUILTIN_BUILDERS)


def _load_corpus_entry(entry: str) -> SpectralCube:
    if entry in _BUILTIN_BUILDERS:
        return _BUILTIN_BUILDERS[entry]()
    if entry.startswith("synth:"):
        try:
            _, pattern, dims, seed = entry.split(":")
            w, h, n = (int(v) for v in dims.split("x"))
            return synthesize_cube(w, h, n, pattern, seed=int(seed))
        except ValueError:
            raise ArgumentError(
                f"bad synth spec {entry!r}; expected synth:<pattern>:<WxHxN>:<seed>"
            ) from None
    return read_cube(Path(entry).read_bytes())


def resolve_corpus(config: BenchConfig):
    """Yield (name, cube-or-None, error-or-None) for every effective corpus entry,
    loading each entry only when the loop reaches it: one cube is built at a time."""
    loaders = [(entry, partial(_load_corpus_entry, entry)) for entry in config.corpus]
    loaders += [(f"sweep_{w}x{h}", partial(make_sweep_cube, w, h)) for w, h in config.size_sweep]
    for name, load in loaders:
        try:
            cube, err = load(), None
        except (CodecError, OSError) as exc:
            cube, err = None, f"{type(exc).__name__}: {exc}"
        yield name, cube, err


# ---------------------------------------------------------------------------
# measurement

def evaluate_row(cube: SpectralCube, image: str, method: str, p: int,
                 target: RateTarget, repetitions: int) -> EvalReport:
    """Benchmark one (image, method, p) combination; one round trip's stream and
    reconstruction are alive at a time, and the last reconstruction is scored."""
    row = partial(EvalReport, image=image, method=method, p=p, target_cr=target.target_cr)
    try:
        rate_report = compress_with_report(cube, method, p, rate=target)[1]
        achieved = rate_report.achieved_cr
        lo, hi = target.window
        if rate_report.in_window and not lo <= achieved <= hi:
            raise RateError(f"rate search reported CR {achieved:.4g} as inside its window "
                            f"[{lo:.4g}, {hi:.4g}]", best_cr=achieved)
        t_spec, t_spat, t_tot = [], [], []
        for _ in range(repetitions):
            fixed = recon = None  # free the previous round trip outside the timed span
            t0 = time.perf_counter()
            fixed, enc = compress_with_report(cube, method, p, quality=rate_report.quality)
            recon, dec = decompress_with_report(parse_stream(serialize_stream(fixed)))
            t_tot.append((time.perf_counter() - t0) * 1e3)
            t_spec.append(enc.times.spectral_ms + dec.spectral_ms)
            t_spat.append(enc.times.spatial_ms + dec.spatial_ms)
        stats = cube_delta_e(cube, recon)
    except CodecError as exc:
        return row(error=f"{type(exc).__name__}: {exc}")
    return row(achieved_cr=achieved, rate_in_window=rate_report.in_window,
               t_spectral_ms=statistics.median(t_spec),
               t_spatial_ms=statistics.median(t_spat),
               t_total_ms=statistics.median(t_tot),
               de_mean=stats.mean, de_p95=stats.p95, de_max=stats.max)


def run_benchmark(config: BenchConfig) -> list[EvalReport]:
    """Run every (image, method, p) row of the configured benchmark."""
    check_type("config", config, BenchConfig)
    target = RateTarget(target_cr=config.target_cr, tolerance=config.tolerance)
    reports = []
    for name, cube, err in resolve_corpus(config):
        for method in config.methods:
            for p in config.p_values:
                if err is None:
                    reports.append(evaluate_row(cube, name, method, p, target, config.repetitions))
                else:
                    reports.append(EvalReport(image=name, method=method, p=p,
                                              target_cr=config.target_cr, error=err))
    return reports


# ---------------------------------------------------------------------------
# emission

def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _cells(reports: list[EvalReport]) -> list[list[str]]:
    """The CSV cells of each report; :class:`ArgumentError` unless ``reports`` is a
    non-empty list of :class:`EvalReport`."""
    if not check_type("reports", reports, (list, tuple)):
        raise ArgumentError("no reports to emit")
    for r in reports:
        check_type("report", r, EvalReport)
    return [[_fmt(getattr(r, c)) for c in CSV_COLUMNS] for r in reports]


def emit_csv(reports: list[EvalReport]) -> bytes:
    """Fixed-schema CSV; numeric fields carry 6 significant digits."""
    lines = [",".join(CSV_COLUMNS)] + [",".join(cells) for cells in _cells(reports)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit_table(reports: list[EvalReport]) -> str:
    """Aligned human-readable table, one row per report."""
    rows = [list(CSV_COLUMNS) + ["status"]]
    rows += [cells + ["ok" if r.ok else r.error] for cells, r in zip(_cells(reports), reports)]
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    out = []
    for row in rows:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# config file parsing (flat key = value, '#' comments, lists comma-separated)

def _split_list(s: str) -> list[str]:
    return [item.strip() for item in s.split(",") if item.strip()]


def _parse_sizes(s: str) -> list[tuple[int, int]]:
    sizes = []
    for item in _split_list(s):
        w, _, h = item.partition("x")
        sizes.append((int(w), int(h)))
    return sizes


#: config key -> parser of its value; each key sets the BenchConfig field of its name
_CONFIG_PARSERS = {
    "corpus": _split_list,
    "methods": lambda s: [m.lower() for m in _split_list(s)],
    "p_values": lambda s: [int(v) for v in _split_list(s)],
    "target_cr": float,
    "tolerance": float,
    "repetitions": int,
    "size_sweep": _parse_sizes,
}


def parse_config(text: str) -> BenchConfig:
    """Parse the flat key=value benchmark config format.

    Recognized keys: corpus, methods, p_values, target_cr, tolerance,
    repetitions, size_sweep (list of WxH entries).  Any other key, or a key
    given twice, raises :class:`ValidationError`.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_PARSERS:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}; "
                                  f"expected one of {', '.join(_CONFIG_PARSERS)}")
        if key in values:
            raise ValidationError(f"config line {lineno}: repeated key {key!r}")
        values[key] = val.strip()
    kwargs = {"corpus": []}
    try:
        for key, val in values.items():
            kwargs[key] = _CONFIG_PARSERS[key](val)
    except ValueError as exc:
        raise ValidationError(f"bad config value: {exc}") from None
    return BenchConfig(**kwargs)


def load_config(path) -> BenchConfig:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # with or without a BOM
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config {path} is not UTF-8 text (byte {exc.start}: "
                              f"{exc.reason})") from None
    return parse_config(text)
