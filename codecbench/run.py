#!/usr/bin/env python3
"""Layered benchmark of the cubecodec pipeline through its public API.

Usage (from the root of a checkout):

    python3 codecbench/run.py --workload corpus64-cr8 --seed 0 --seconds 30 --trace 0

The program under test is the ``cubecodec`` package in ``src/`` of the same
checkout; the benchmark exits with code 2 and prints no result when it is
missing.  One closed loop, one caller, one process.

A *pass* runs every (cube, method) pair of the workload once: a compress
(SCUB bytes -> ``read_cube`` -> ``compress_with_report`` ->
``serialize_stream``), then ``reads`` times a decompress (``parse_stream`` ->
``decompress`` -> ``write_cube``) and a score (``cube_delta_e`` of the
reconstruction against the original), timed ``SCORE_REPEATS`` times.

Every time is in reference seconds: wall seconds rescaled by the host-speed
probe read around and during it (see ``speed.py``); the record also carries
the wall seconds.  Each op's time is a sample of its (cube, method); a timing
metric is the median sample of every (cube, method), times its ops per pass,
summed over the workload -- seconds per pass.  The run ends once less than
half a pass's time is left.  Set-up is the imports, then, three times with
the median taken, cube synthesis with SCUB encoding and a warm-up pass of the
same op mix on 32x32 versions of the cubes, which runs every code path once
before timing.  The first measured pass is the reference every later pass
must reproduce byte for byte.

With ``--trace 0`` the passes run untraced and the last stdout line carries
the end-to-end metrics.  With ``--trace 1`` untraced and traced passes
alternate; the last line carries the per-layer metrics of the traced passes
(see ``tracing.py``) and the tracing overhead.  The line before the result
is a JSON record with the environment, the output fingerprint, the timing
sample counts and tails, and the failures; it is also written, with the
spans, under ``codecbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

P = 20
TOLERANCE = 0.05
SETUP_REPEATS = 3
WARMUP_SIDE = 32
SCORE_REPEATS = 8  # a score call is short, so each is timed this often to steady its median
MAX_FAILURE_MESSAGES = 20


@dataclass(frozen=True)
class Workload:
    name: str
    cubes: tuple  # (label, maker name in cubecodec.bench, side, maker seed)
    target_cr: float | None  # rate-controlled compress, or
    quality: int | None  # one fixed-quality encode
    reads: int  # decompress + score ops per compress


WORKLOADS = {
    w.name: w for w in (
        Workload("corpus64-cr8",
                 (("skin", "make_skin_cube", 64, 2101),
                  ("narrowband", "make_narrowband_cube", 64, 2102),
                  ("dark", "make_dark_cube", 64, 2103),
                  ("chart", "make_chart_cube", 64, 2104)),
                 target_cr=8.0, quality=None, reads=1),
        Workload("sweep256-cr8", (("sweep256", "make_sweep_cube", 256, 2105),),
                 target_cr=8.0, quality=None, reads=1),
        Workload("archive128-q90", (("sweep128", "make_sweep_cube", 128, 2105),),
                 target_cr=None, quality=90, reads=4),
    )
}
METHODS = ("pca", "csi")
KINDS = ("compress", "decompress", "score")
#: Which probe kernel (see speed.py) rescales each op kind's wall seconds.
KERNEL_OF = {"compress": "scalar", "decompress": "scalar", "score": "vector"}


def pin_blas_threads() -> int:
    """Run BLAS/OpenMP single-threaded, as the one caller the loop models; call before numpy loads.

    Returns the CPU count for the record.  On a shared 2-CPU machine, one
    256x256 ``cube_delta_e`` took 0.03-0.15 s with two BLAS threads and a
    steady 0.03-0.05 s with one.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail_percentile(values):
    """Highest whole percentile with at least ten samples above it, or None below 11 samples."""
    n = len(values)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return {"percentile": pct, "value": statistics.quantiles(values, n=100)[pct - 1]}


def summarize(values):
    return {"median": statistics.median(values), "tail": tail_percentile(values),
            "samples": len(values)}


def new_samples():
    """Op kind -> (cube, method) -> seconds of each op."""
    return {kind: {} for kind in KINDS}


def per_pass_seconds(bench, samples, kind, wall=False):
    """Median op time of each (cube, method), times its ops per pass, summed over the workload.

    Reference seconds, or wall seconds with ``wall``.
    """
    per_key = samples[kind]
    if not per_key:
        return None
    return bench.ops_per_pass(kind) * sum(
        statistics.median(raw if wall else raw * factor for raw, factor in v)
        for v in per_key.values())


def timing_record(bench, samples):
    return {f"{kind}_s": {"per_pass": per_pass_seconds(bench, samples, kind),
                          "wall_per_pass": per_pass_seconds(bench, samples, kind, wall=True),
                          "ops": {f"{label}/{method}": summarize([r * f for r, f in v])
                                  for (label, method), v in samples[kind].items()}}
            for kind in KINDS}


class Bench:
    """One workload at one seed: inputs, reference outputs, op accounting."""

    def __init__(self, cc, np, speed, workload, seed, side):
        self.cc = cc
        self.np = np
        self.speed = speed
        self.workload = workload
        self.seed = seed
        self.side = side
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0  # op seconds so far, wall and reference
        self.ref_s = 0.0
        self.failures = []
        self.ref = {}  # (label, method) -> dict of pass-1 outputs
        self.scubs = []
        self.shifts = {}

    # -- set-up ----------------------------------------------------------

    def synthesize(self):
        """Build the workload's SCUB inputs from the seed; the codec sees only these bytes.

        Each cube is a builtin scene (the maker at its builtin seed), shifted
        circularly in x and y by a whole number of 8x8 blocks drawn from the
        seed; seed 0 leaves the builtins unshifted.  A shift reorders the
        blocks the coder sees, and so changes the DC differentials and every
        output byte, but keeps each block's content and the scene's spectra,
        so the work in a pass (probes, chosen qualities, coefficient counts)
        barely varies with the seed, while timings and outputs still come
        from fresh inputs.
        """
        from cubecodec import bench as makers
        rng = self.np.random.default_rng(self.seed)
        scubs = []
        self.shifts = {}
        for label, maker, side, maker_seed in self.workload.cubes:
            side = self.side or side
            cube = getattr(makers, maker)(width=side, height=side, seed=maker_seed)
            shift = (0, 0) if self.seed == 0 else tuple(
                8 * int(v) for v in rng.integers(0, side // 8, 2))
            if shift != (0, 0):
                cube = self.cc.SpectralCube(
                    width=side, height=side, bands=cube.bands, wavelengths=cube.wavelengths,
                    samples=self.np.roll(cube.samples, shift, axis=(1, 2)))
            self.shifts[label] = shift
            scubs.append((label, self.cc.write_cube(cube)))
        self.scubs = scubs

    # -- ops -------------------------------------------------------------

    def _fail(self, what, message):
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(f"{what}: {message}")

    def _op(self, kind, key, what, body, check, tracer, samples, repeats=1):
        """Run one op ``repeats`` times, each timed and checked; returns the last output.

        Each call's wall seconds go into ``samples[kind][key]`` with the
        speed factor read around the calls.  A raise or a failed check counts
        as one failure; after a raise the op is not repeated.
        """
        raws = []
        out = None
        mark = self.speed.mark()
        for i in range(repeats):
            # Only the first call is traced, so layer times stay per op, not per repeat.
            out, raw = self._call(kind, what, body, check, tracer if i == 0 else None)
            raws.append(raw)
            if out is None:
                break
        factor = self.speed.factors(mark)[KERNEL_OF[kind]]
        samples[kind].setdefault(key, []).extend((raw, factor) for raw in raws)
        self.wall_s += sum(raws)
        self.ref_s += sum(raws) * factor
        return out

    def _call(self, kind, what, body, check, tracer):
        """One timed, checked call of an op: (output or None if it raised, wall seconds)."""
        self.attempted += 1
        span = tracer.span(f"op.{kind}") if tracer else nullcontext()
        stolen = self.speed.stolen_s
        t0 = time.perf_counter()
        try:
            with span as root:
                out = body()
                if root is not None and kind == "compress":
                    root.counts = {"probes": out[2].encodes}
        except Exception as exc:  # a failing op is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            self._fail(what, f"{type(exc).__name__}: {exc}")
            return None, time.perf_counter() - t0 - (self.speed.stolen_s - stolen)
        raw = time.perf_counter() - t0 - (self.speed.stolen_s - stolen)
        try:
            problems = check(out)
        except Exception as exc:  # e.g. the blob does not parse back
            problems = [f"output check raised {type(exc).__name__}: {exc}"]
        if problems:
            self._fail(what, "; ".join(problems))
        return out, raw

    def absorb(self, other):
        """Count another bench's ops and failures as this one's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(f"warm-up {m}" for m in other.failures)
        del self.failures[MAX_FAILURE_MESSAGES:]

    def _skip(self, what, count, reason):
        self.attempted += count
        for _ in range(count):
            self._fail(what, f"skipped: {reason}")

    def run_pass(self, pass_id, samples, tracer=None):
        """Run every (cube, method) once, adding each op's seconds to ``samples``."""
        cc = self.cc
        wl = self.workload
        rate = cc.RateTarget(wl.target_cr, TOLERANCE) if wl.target_cr else None
        if tracer:
            tracer.pass_id = pass_id
        self.speed.read()
        for label, scub in self.scubs:
            for method in METHODS:
                key = (label, method)
                what = f"pass {pass_id} {label}/{method}"

                def compress():
                    cube = cc.read_cube(scub)
                    stream, report = cc.compress_with_report(cube, method, P, rate=rate,
                                                             quality=wl.quality)
                    return cube, stream, report, cc.serialize_stream(stream)

                out = self._op("compress", key, what + " compress", compress,
                               lambda o: self._check_compress(key, scub, o, rate),
                               tracer, samples)
                if out is None:
                    self._skip(what, wl.reads * (1 + SCORE_REPEATS), "its compress failed")
                    continue
                original, _, _, blob = out

                def decompress():
                    recon = cc.decompress(cc.parse_stream(blob))
                    return recon, cc.write_cube(recon)

                for read in range(wl.reads):
                    got = self._op("decompress", key, f"{what} read {read} decompress",
                                   decompress,
                                   lambda o: self._check_decompress(key, original, o),
                                   tracer, samples)
                    if got is None:
                        self._skip(what, SCORE_REPEATS, "its decompress failed")
                        continue
                    recon = got[0]
                    self._op("score", key, f"{what} read {read} score",
                             lambda: cc.cube_delta_e(original, recon),
                             lambda o: self._check_score(key, o), tracer, samples,
                             repeats=SCORE_REPEATS)

    def ops_per_pass(self, kind):
        return 1 if kind == "compress" else self.workload.reads

    # -- output checks -------------------------------------------------------

    def _check_compress(self, key, scub, out, rate):
        _, stream, report, blob = out
        problems = []
        if self.cc.parse_stream(blob) != stream:
            problems.append("parse_stream(blob) != stream")
        cr = len(scub) / len(blob)
        if rate is not None and report.in_window:
            lo, hi = rate.window
            if not lo <= cr <= hi:
                problems.append(f"in_window but CR {cr} outside [{lo}, {hi}]")
        if self.workload.quality is not None and stream.quality != self.workload.quality:
            problems.append(f"quality {stream.quality} != fixed {self.workload.quality}")
        ref = self.ref.setdefault(key, {"blob": blob, "quality": stream.quality, "cr": cr,
                                        "probes": report.encodes, "in_window": report.in_window})
        if blob != ref["blob"]:
            problems.append("SCMP bytes differ from pass 1")
        return problems

    def _check_decompress(self, key, original, out):
        recon, scub = out
        problems = []
        if (recon.width, recon.height, recon.bands) != (
                original.width, original.height, original.bands):
            problems.append("decoded dimensions differ from the original")
        elif not self.np.array_equal(recon.wavelengths, original.wavelengths):
            problems.append("decoded wavelengths differ from the original")
        if not self.np.isfinite(recon.samples).all():
            problems.append("decoded samples are not all finite")
        if scub != self.ref[key].setdefault("recon", scub):
            problems.append("reconstruction differs from pass 1")
        return problems

    def _check_score(self, key, stats):
        problems = []
        if not math.isfinite(stats.mean) or stats.mean < 0:
            problems.append(f"mean dE00 {stats.mean} is not a finite non-negative number")
        if stats.mean != self.ref[key].setdefault("de00", stats.mean):
            problems.append("dE00 differs from pass 1")
        return problems

    # -- results ---------------------------------------------------------

    def fingerprint(self):
        digest = hashlib.sha256()
        quality = {}
        for label, _ in self.scubs:
            for method in METHODS:
                ref = self.ref.get((label, method))
                if ref is not None:
                    digest.update(ref["blob"])
                    quality[f"{label}/{method}"] = ref["quality"]
        return {"sha256": digest.hexdigest(), "quality": quality}

    def streams(self):
        """Per (cube, method): the pass-1 outcome that every later pass reproduced."""
        return {f"{label}/{method}": {k: v for k, v in ref.items() if k not in ("blob", "recon")}
                for (label, method), ref in self.ref.items()}

    def output_metrics(self):
        refs = [r for r in self.ref.values() if "de00" in r]
        if not refs:
            return {"achieved_cr": None, "de00_mean": None}
        return {"achieved_cr": statistics.fmean(r["cr"] for r in refs),
                "de00_mean": statistics.fmean(r["de00"] for r in refs)}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--side", type=int, default=None,
                    help="override every cube's side length (for the smoke test)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or (args.side is not None and args.side < 8):
        ap.error("need --seed >= 0, --seconds > 0 and --side >= 8")
    return args


def main(argv=None):
    t_start = time.perf_counter()
    args = parse_args(argv)
    nproc = pin_blas_threads()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import numpy as np
        import cubecodec as cc
    except ImportError as exc:
        print(f"codecbench: cannot import the codec from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(cc.__file__).resolve().is_relative_to(src):
        print(f"codecbench: imported cubecodec from {cc.__file__}, not {src}", file=sys.stderr)
        return 2
    from speed import REF_S, SpeedProbe
    import_s = time.perf_counter() - t_start
    speed = SpeedProbe()
    import_s *= REF_S["scalar"] / speed.readings[0]["scalar"]
    speed.start()
    try:
        return measure(args, cc, np, speed, nproc, import_s)
    finally:
        speed.stop()


def measure(args, cc, np, speed, nproc, import_s):
    """Set up, run the passes and print the record and the result line."""
    from speed import REF_S, TICK_S
    from tracing import LAYER_COUNTS, LAYER_TIMES, Tracer, pass_layers, self_shares

    workload = WORKLOADS[args.workload]
    bench = Bench(cc, np, speed, workload, args.seed, args.side)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        speed.read()
        mark = speed.mark()
        stolen = speed.stolen_s
        t0 = time.perf_counter()
        bench.synthesize()
        warm = Bench(cc, np, speed, workload, args.seed, WARMUP_SIDE)
        warm.synthesize()
        warm.run_pass(0, new_samples())
        wall = time.perf_counter() - t0 - (speed.stolen_s - stolen)
        setup_times.append(wall * speed.factors(mark)["scalar"])
        bench.absorb(warm)
    setup_s = import_s + statistics.median(setup_times)

    untraced = new_samples()
    traced = new_samples()
    layers = []
    pass_s = []
    tracer = Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    pass_id = 1
    while True:
        gc.collect()
        t0 = time.perf_counter()
        if tracer and pass_id % 2 == 0:
            wall_s, ref_s = bench.wall_s, bench.ref_s
            with tracer.installed():
                bench.run_pass(pass_id, traced, tracer)
            factor = (bench.ref_s - ref_s) / (bench.wall_s - wall_s)
            layers.append({name: v * factor if name in LAYER_TIMES else v
                           for name, v in pass_layers(tracer.spans, pass_id).items()})
        else:
            bench.run_pass(pass_id, untraced)
        now = time.perf_counter()
        pass_s.append(now - t0)
        pass_id += 1
        if deadline - now < statistics.median(pass_s) / 2 and (not tracer or pass_id > 2):
            break

    peak_rss_mb = _peak_rss_mb()
    fingerprint = bench.fingerprint()
    if args.trace:
        metrics = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
        metrics["trace.overhead_frac"] = (per_pass_seconds(bench, traced, "compress")
                                          / per_pass_seconds(bench, untraced, "compress") - 1)
        units = {name: "ms" for name in LAYER_TIMES}
        units.update({name: unit for name, (unit, _) in LAYER_COUNTS.items()})
    else:
        metrics = {f"{k}_s": per_pass_seconds(bench, untraced, k) for k in KINDS}
        metrics.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb, **bench.output_metrics())
        units = {"compress_s": "s", "decompress_s": "s", "score_s": "s", "setup_s": "s",
                 "peak_rss_mb": "MB", "achieved_cr": "ratio", "de00_mean": "dE00"}

    record = {
        "workload": workload.name, "seed": args.seed, "shifts": bench.shifts,
        "seconds": args.seconds, "trace": args.trace, "side": args.side,
        "env": {"nproc": nproc, "python": platform.python_version(),
                "numpy": np.__version__, "blas": _blas_name(np), "git_commit": git_commit(),
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "fingerprint": fingerprint,
        "streams": bench.streams(),
        "setup": {"import_s": import_s, "repeats_s": setup_times},
        "speed": {"ref_s": REF_S, "tick_s": TICK_S, "readings": len(speed.readings),
                  "stolen_s": speed.stolen_s, "mean_factor": bench.ref_s / bench.wall_s},
        "passes": {"seconds": pass_s, "traced": len(layers)},
        "untraced": timing_record(bench, untraced),
        "failed_frac": bench.failed / bench.attempted,
        "failures": bench.failures,
    }
    if tracer:
        record["traced"] = timing_record(bench, traced)
        record["self_share"] = self_shares(tracer.spans)
        record["layer_moves"] = {name: moves for name, (_, moves)
                                 in {**LAYER_TIMES, **LAYER_COUNTS}.items()}
        record["missing_trace_points"] = tracer.missing
    _write_out(record, tracer)
    print(json.dumps({"record": record}))
    correct = bench.failed == 0 and all(_finite(v) for v in metrics.values())
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {k: {"value": v if _finite(v) else None, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def _finite(v):
    return v is not None and math.isfinite(v)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_name(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _write_out(record, tracer):
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}"
    if record["side"]:
        stem += f"-side{record['side']}"
    (OUT_DIR / f"{stem}-trace{record['trace']}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


if __name__ == "__main__":
    sys.exit(main())
