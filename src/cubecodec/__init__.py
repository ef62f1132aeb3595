"""cubecodec: spectral-image compression with PCA/CSI spectral reduction,
a baseline-JPEG-style spatial coder, and a colorimetric benchmark harness."""

from .bench import BenchConfig, EvalReport, default_config, emit_csv, emit_table, run_benchmark
from .colorimetry import DeltaEStats, cube_delta_e
from .container import (
    CompressedStream,
    RateTarget,
    compress,
    compress_with_report,
    compression_rate,
    decompress,
    decompress_with_report,
    parse_stream,
    serialize_stream,
)
from .cube import SpectralCube, read_cube, synthesize_cube, write_cube
from .errors import (
    ArgumentError,
    CodecError,
    CorruptError,
    FormatError,
    RateError,
    SizeLimitError,
    ValidationError,
)
from .reduction import (
    CsiSideInfo,
    PcaSideInfo,
    csi_forward,
    csi_inverse,
    csi_select_knots,
    pca_fit,
    pca_forward,
    pca_inverse,
)
from .spline import natural_cubic_spline

__version__ = "0.1.0"
