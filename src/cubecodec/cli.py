"""Command-line front end.

Subcommands: compress, decompress, evaluate, bench, synth, dump-constants.
Exit codes: 0 success, 1 usage error, 2 data error (running out of memory
included), 3 rate error.  Interrupted by Ctrl-C, a command prints
``interrupted`` and exits 130, 128 + SIGINT: the shell's convention for a
process ended by a signal, not a fifth outcome.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench as bench_mod
from .colorimetry import _CMF_TABLE, _D65_POWER, cube_delta_e
from .container import (SPECTRAL_METHODS, RateTarget, compress_with_report, decompress,
                        parse_stream, serialize_stream)
from .cube import PATTERNS, read_cube, synthesize_cube, write_cube
from .errors import CodecError, RateError
from .spatial import BASE_LUMA_QUANT, ZIGZAG_ORDER, _AC_BITS, _DC_BITS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RATE = 3
EXIT_INTERRUPTED = 128 + 2  # SIGINT


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubecodec",
        description="Spectral-image compression toolkit (PCA/CSI spectral reduction "
                    "over a baseline-JPEG-style plane coder).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a SCUB cube to an SCMP stream")
    p.set_defaults(run=_cmd_compress)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--method", choices=tuple(SPECTRAL_METHODS), required=True)
    p.add_argument("--p", dest="p", type=int, required=True,
                   help="retained plane / knot count")
    p.add_argument("--target-cr", type=float, default=8.0)
    p.add_argument("--tolerance", type=float, default=0.05)
    p.add_argument("--quality", type=int, default=None,
                   help="fixed plane quality 1..100; overrides rate control")

    p = sub.add_parser("decompress", help="decode an SCMP stream back to a SCUB cube")
    p.set_defaults(run=_cmd_decompress)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)

    p = sub.add_parser("evaluate", help="CIEDE2000 statistics between two cubes")
    p.set_defaults(run=_cmd_evaluate)
    p.add_argument("--original", required=True)
    p.add_argument("--reconstructed", required=True)

    p = sub.add_parser("bench", help="run the benchmark and emit CSV")
    p.set_defaults(run=_cmd_bench)
    p.add_argument("--config", default=None,
                   help="benchmark config file; defaults to the built-in corpus")
    p.add_argument("--out", dest="outfile", default=None,
                   help="CSV output path (stdout when omitted)")
    p.add_argument("--table", action="store_true",
                   help="also print the aligned text table to stderr")

    p = sub.add_parser("synth", help="write a synthetic SCUB cube")
    p.set_defaults(run=_cmd_synth)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--bands", type=int, required=True)
    p.add_argument("--pattern", choices=PATTERNS, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("dump-constants", help="print compiled-in tables for audit")
    p.set_defaults(run=_cmd_dump_constants)
    return parser


def _cmd_compress(args) -> int:
    cube = read_cube(Path(args.infile).read_bytes())
    rate = None  # --quality overrides --target-cr and --tolerance
    if args.quality is None:
        rate = RateTarget(target_cr=args.target_cr, tolerance=args.tolerance)
    stream, report = compress_with_report(cube, args.method, args.p, rate, args.quality)
    blob = serialize_stream(stream)
    Path(args.outfile).write_bytes(blob)
    print(f"achieved_cr={report.achieved_cr:.6g} quality={report.quality} "
          f"in_window={report.in_window} bytes={len(blob)}")
    return EXIT_OK


def _cmd_decompress(args) -> int:
    stream = parse_stream(Path(args.infile).read_bytes())
    cube = decompress(stream)
    Path(args.outfile).write_bytes(write_cube(cube))
    print(f"decoded {cube.width}x{cube.height}x{cube.bands} cube")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    original = read_cube(Path(args.original).read_bytes())
    reconstructed = read_cube(Path(args.reconstructed).read_bytes())
    stats = cube_delta_e(original, reconstructed)
    print(f"de_mean={stats.mean:.6g}")
    print(f"de_p95={stats.p95:.6g}")
    print(f"de_max={stats.max:.6g}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.config is None:
        config = bench_mod.default_config()
    else:
        config = bench_mod.load_config(args.config)
    reports = bench_mod.run_benchmark(config)
    csv = bench_mod.emit_csv(reports)
    if args.outfile:
        Path(args.outfile).write_bytes(csv)
    else:
        sys.stdout.buffer.write(csv)
        sys.stdout.flush()
    if args.table:
        print(bench_mod.emit_table(reports), file=sys.stderr)
    return EXIT_OK


def _cmd_synth(args) -> int:
    cube = synthesize_cube(args.width, args.height, args.bands, args.pattern,
                           seed=args.seed)
    Path(args.outfile).write_bytes(write_cube(cube))
    print(f"wrote {cube.width}x{cube.height}x{cube.bands} '{args.pattern}' cube")
    return EXIT_OK


def _cmd_dump_constants(args) -> int:
    print("# CIE 1931 2-deg observer and D65 (400-700 nm, 10 nm)")
    print("wavelength_nm,xbar,ybar,zbar,d65_power")
    for (wl, xbar, ybar, zbar), power in zip(_CMF_TABLE, _D65_POWER):
        print(f"{wl:.0f},{xbar:.6f},{ybar:.6f},{zbar:.6f},{power:.4f}")
    print("\n# base luminance quantization table")
    for row in BASE_LUMA_QUANT:
        print(" ".join(f"{v:4d}" for v in row))
    print("\n# zigzag order (natural flat indices in scan order)")
    print(" ".join(str(v) for v in ZIGZAG_ORDER))
    print("\n# Huffman BITS (DC, AC luminance)")
    print("dc_bits:", " ".join(str(v) for v in _DC_BITS))
    print("ac_bits:", " ".join(str(v) for v in _AC_BITS))
    return EXIT_OK


def cli_main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit code instead of exiting."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.run(args)
    except RateError as exc:
        print(f"rate error: {exc}", file=sys.stderr)
        return EXIT_RATE
    except (CodecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError:
        print(f"error: out of memory running {args.command}", file=sys.stderr)
        return EXIT_DATA
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
