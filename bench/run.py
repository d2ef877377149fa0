#!/usr/bin/env python3
"""eiscong benchmark: three golden-checked closed-loop workloads.

    python3 bench/run.py --workload order-orbit|scan-levels|cli-oneshot|all \\
        [--seed N] [--seconds S] [--trace 0|1] [--small]

Run from anywhere; the library is imported from `src/` beside this directory.
A run measures whole passes over the workload's operations until --seconds
have passed and the workload's minimum pass count is reached.  Every operation is checked against a golden
value or an oracle outside its timed region.

Output: one row per workload with every metric by name and unit, then, as the
last line, one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics of a traced run
with --trace 1.  Exit status 0 when every op passed its check, 1 when any
failed, 2 when the benchmark could not run (for example, without src/eiscong).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from statistics import median
from time import perf_counter

from tracing import Tracer, span_cost
from workloads import OUT, SRC, WORKLOADS, CliOneshot, load_goldens

SETUP_SAMPLES = 5  # this process plus four fresh interpreters
REFERENCE_S = 0.0005  # reference_time() on the baseline machine at its fastest
CLI_LAYER_REPEATS, SMALL_CLI_LAYER_REPEATS = 5, 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "conjugate_spread": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "lattices.hnf_s": "s",
    "lattices.index_s": "s",
    "lattices.hnf_dim": "count",
    "lattices.hnf_in_bits": "count",
    "lattices.index_bits": "count",
    "cyclotomic.mul_rows_s": "s",
    "cusps.beta_tilde_s": "s",
    "cusps.boundary_divisor_s": "s",
    "cusps.closed_form_boundary_s": "s",
    "eisenstein.build_E_s": "s",
    "scanner.full_scan_s": "s",
    "scanner.scan_s": "s",
    "scanner.scan_calls": "count",
    "scanner.reduction_embeddings_s": "s",
    "scanner.reduction_embeddings_calls": "count",
    "scanner.embedding_keys": "count",
    "scanner.embedding_reuse": "ratio",
    "ffield.roots_in_field_s": "s",
    "ffield.split_calls": "count",
    "ideals.descriptor_s": "s",
    "ideals.candidate_characteristics_s": "s",
    "newforms.parse_s": "s",
    "newforms.cache_write_s": "s",
    "newforms.cache_read_s": "s",
    "cli.interp_start_s": "s",
    "cli.import_eiscong_s": "s",
    "cli.import_requests_s": "s",
    "cli.command_s": "s",
    "cli.stdout_bytes": "count",
    "trace.ops_per_s": "ops/s",
    "trace.overhead_share": "ratio",
    "trace.layer_share": "ratio",
}


@dataclass
class Sample:
    name: str
    group: str | None
    wall: float  # seconds as measured
    scale: float  # REFERENCE_S over the reference time measured beside the op
    error: str | None
    stdout_bytes: int = 0

    @property
    def latency(self) -> float:
        """Seconds on a machine where reference_time() is REFERENCE_S."""
        return self.wall * self.scale


def _reference_work():
    acc, x, xs = Fraction(0), 1, []
    for i in range(1, 200):
        acc += Fraction(i, i + 7)
        x = (x * 3 + i) % (10 ** 40 + 7)
        xs.append(x)
    return acc, sorted(xs)


def reference_time() -> float:
    """Median of three timings of a fixed pure-Python loop (Fractions, big
    integers, a sort), with the cyclic collector off so that the library's
    heap cannot slow it.

    The CPU speed of a shared machine drifts between runs and over tens of
    seconds; every latency is scaled by REFERENCE_S over the reference time
    measured beside it, which takes that drift out (bench/README.md)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = perf_counter()
            _reference_work()
            times.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return median(times)


def run_passes(wl, rng, seconds: float, tracer: Tracer | None = None) -> tuple[list[Sample], int]:
    samples: list[Sample] = []
    started = perf_counter()
    passes = 0
    ref = reference_time()
    while passes < wl.min_passes or perf_counter() - started < seconds:
        for op in wl.pass_ops(rng, passes):
            if tracer is not None:
                tracer.op_id = len(samples)
            error, out = None, None
            t0 = perf_counter()
            try:
                if tracer is None:
                    out = op.call(None)
                else:
                    with tracer.span("op"):
                        out = op.call(tracer)
            except Exception as exc:  # a failed op is counted, and the run goes on
                error = f"{op.name}: {type(exc).__name__}: {exc}"
            wall = perf_counter() - t0
            ref_after = reference_time()
            if error is None:
                error = op.check(out)
            samples.append(Sample(op.name, op.group, wall, 2 * REFERENCE_S / (ref + ref_after),
                                  error, len(getattr(out, "stdout", b""))))
            ref = ref_after
        passes += 1
    return samples, passes


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples beyond) at the highest percentile with at
    least ten samples beyond it; the maximum when there are ten or fewer."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    k = n - 11
    return s[k], 100.0 * (k + 1) / n, n - 1 - k


def by_name(samples: list[Sample]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for s in samples:
        out.setdefault(s.name, []).append(s.latency)
    return out


def conjugate_spread(samples: list[Sample]) -> float:
    """Slowest over fastest median latency among the ops of the spread group."""
    meds = [median(v) for v in by_name([s for s in samples if s.group is not None]).values()]
    return max(meds) / min(meds) if len(meds) > 1 else 1.0


def measure_setup(wl, args) -> float:
    """Median set-up time over this interpreter and fresh ones, each scaled
    like an op latency."""
    ref = reference_time()
    t0 = perf_counter()
    wl.setup()
    times = [perf_counter() - t0]
    cmd = [sys.executable, __file__, "--workload", wl.name, "--setup-probe"]
    if args.small:
        cmd.append("--small")
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, capture_output=True, check=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return median(times) * 2 * REFERENCE_S / (ref + reference_time())


def ops_per_s(samples: list[Sample]) -> float:
    """Successful ops over their time, with each op timed at its median
    latency, which a slow phase of a shared machine during a minority of
    passes does not move."""
    ok = sum(1 for s in samples if s.error is None)
    return ok / sum(median(v) * len(v) for v in by_name(samples).values())


def end_to_end(wl, samples: list[Sample], setup_s: float) -> tuple[dict, str]:
    lat = [s.latency for s in samples]
    ok = sum(1 for s in samples if s.error is None)
    tail_s, pct, beyond = tail(lat)
    values = {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s(samples),
        "latency_p50_s": median(lat),
        "latency_tail_s": tail_s,
        "conjugate_spread": conjugate_spread(samples),
        "peak_rss_mb": resource.getrusage(wl.rss).ru_maxrss / 1024,
    }
    wall = [s.wall for s in samples]
    note = (f"tail=p{pct:.1f} with {beyond} beyond, n={len(lat)}; "
            f"error_rate={(len(samples) - ok) / len(samples):.4g} ratio; "
            f"as measured: p50={median(wall):.4g} s, reference scale={median(s.scale for s in samples):.3f}")
    return values, note


# ------------------------------------------------------------- traced run

def install(tracer: Tracer) -> None:
    from eiscong import cusps, eisenstein, ffield, ideals, lattices, newforms, scanner

    def hnf_sizes(args, out):
        rows = args[0]
        return {"dim": len(rows), "in_bits": max(abs(x).bit_length() for r in rows for x in r)}

    def embedding_key(args, out):
        k = args[0].m if hasattr(args[0], "m") else args[0]
        return {"key": (k, tuple(args[1]), args[2])}

    def split(args, out):
        return {"split": args[1].size > ffield.ENUMERATION_CAP or bool(args[2:3] and args[2])}

    tracer.install(lattices, "hnf", "lattices.hnf", hnf_sizes)
    tracer.install(cusps, "beta_tilde", "cusps.beta_tilde")
    tracer.install(cusps, "boundary_divisor", "cusps.boundary_divisor")
    tracer.install(cusps, "closed_form_boundary", "cusps.closed_form_boundary")
    tracer.install(eisenstein, "build_E", "eisenstein.build_E")
    tracer.install(scanner, "scan", "scanner.scan")
    tracer.install(scanner, "reduction_embeddings", "scanner.reduction_embeddings", embedding_key)
    tracer.install(ffield, "roots_in_field", "ffield.roots_in_field", split)
    tracer.install(ideals, "descriptor", "ideals.descriptor")
    tracer.install(ideals, "candidate_characteristics", "ideals.candidate_characteristics")
    tracer.install(newforms, "parse_newforms", "newforms.parse")


def span_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass layer metrics for the layers these spans reached."""
    self_s = tracer.self_times()
    out = {f"{name}_s": t / passes for name, t in self_s.items() if name != "op"}
    hnf = tracer.named("lattices.hnf")
    if hnf:
        out["lattices.hnf_dim"] = max(r[5]["dim"] for r in hnf)
        out["lattices.hnf_in_bits"] = max(r[5]["in_bits"] for r in hnf)
    index = tracer.named("lattices.index")
    if index:
        out["lattices.index_bits"] = max(r[5]["index_bits"] for r in index)
    scans = tracer.named("scanner.scan")
    if scans:
        out["scanner.scan_calls"] = len(scans) / passes
    emb = tracer.named("scanner.reduction_embeddings")
    if emb:
        keys = len({r[5]["key"] for r in emb})
        out["scanner.reduction_embeddings_calls"] = len(emb) / passes
        out["scanner.embedding_keys"] = keys
        out["scanner.embedding_reuse"] = keys / (len(emb) / passes)
    roots = tracer.named("ffield.roots_in_field")
    if roots:
        out["ffield.split_calls"] = sum(1 for r in roots if r[5]["split"]) / passes
    return out


def traced_pass(wl, rng, seconds: float, cli_repeats: int, out_name: str):
    """Run `wl` traced and write its spans to .bench_out/<out_name>.jsonl;
    returns (samples, per-layer metrics of the layers it reached)."""
    tracer = Tracer()
    install(tracer)
    try:
        samples, passes = run_passes(wl, rng, seconds, tracer)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{out_name}.jsonl")
    scale = median(s.scale for s in samples)
    metrics = {k: v * scale if k.endswith("_s") else v for k, v in span_metrics(tracer, passes).items()}
    op_time = sum(s.wall for s in samples)
    layer_time = sum(t for name, t in tracer.self_times().items() if name != "op")
    metrics["trace.ops_per_s"] = ops_per_s(samples)
    metrics["trace.overhead_share"] = span_cost() * len(tracer.spans) / op_time
    metrics["trace.layer_share"] = layer_time / op_time
    if isinstance(wl, CliOneshot):
        stdout_per_pass = sum(s.stdout_bytes for s in samples) / passes
        cli = wl.layers([s.wall for s in samples], stdout_per_pass, cli_repeats)
        metrics.update({k: v * scale if k.endswith("_s") else v for k, v in cli.items()})
        metrics["trace.layer_share"] = 1.0  # command_s is the remainder by construction
    return samples, metrics


def per_layer(wl, own: dict, args, goldens: dict) -> tuple[dict, list[Sample], str]:
    """Own-layer metrics, completed by small probe passes of the other
    workloads for the layers this workload never reaches."""
    probe: dict = {}
    probe_samples: list[Sample] = []
    for name, cls in WORKLOADS.items():
        if name == wl.name:
            continue
        other = cls(True, goldens)
        other.setup()
        other.prepare(random.Random(args.seed))
        s, m = traced_pass(other, random.Random(args.seed), 0, SMALL_CLI_LAYER_REPEATS,
                           f"trace-{wl.name}-seed{args.seed}-probe-{name}")
        probe.update(m)
        probe_samples += s
    merged = {k: v for k, v in probe.items() if not k.startswith("trace.")}
    merged.update(own)
    values = {name: merged[name] for name in PER_LAYER}
    probed = sorted(k for k in PER_LAYER if k not in own)
    return values, probe_samples, f"from probe passes: {', '.join(probed) or 'none'}"


# ------------------------------------------------------------------- main

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="a small input set, for the self-test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def row(name: str, seed: int, values: dict, units: dict, note: str) -> str:
    cells = "  ".join(f"{k}={values[k]:.6g} {units[k]}" for k in units)
    return f"{name:<12} seed={seed}  {cells}  ({note})"


def run_all(args) -> int:
    """Each workload in its own process; one row each, then a summary line."""
    attempted = failed = 0
    metrics, worst = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--small"] if args.small else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        worst = max(worst, proc.returncode)
        if proc.returncode == 2 or not lines:
            sys.stderr.write(proc.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0 and worst == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return worst


def main(argv=None, goldens: dict | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "eiscong" / "__init__.py").is_file():
        print(f"error: no eiscong sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    goldens = goldens if goldens is not None else load_goldens()
    wl = WORKLOADS[args.workload](args.small, goldens)
    try:
        if args.setup_probe:
            t0 = perf_counter()
            wl.setup()
            print(perf_counter() - t0)
            return 0
        # the reference loop only tracks the speed of the core it runs on, and
        # the two cores of a shared machine drift apart: keep the run and its
        # children on one
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        setup_s = measure_setup(wl, args)
        import eiscong
        if not eiscong.__file__.startswith(str(SRC)):
            raise ImportError(f"eiscong imported from {eiscong.__file__}, not {SRC}")
        rng = random.Random(args.seed)
        wl.prepare(rng)
        if args.trace:
            repeats = SMALL_CLI_LAYER_REPEATS if args.small else CLI_LAYER_REPEATS
            samples, own = traced_pass(wl, rng, args.seconds, repeats, f"trace-{wl.name}-seed{args.seed}")
            values, probe_samples, note = per_layer(wl, own, args, goldens)
            samples += probe_samples
            units = PER_LAYER
        else:
            samples, passes = run_passes(wl, rng, args.seconds)
            values, note = end_to_end(wl, samples, setup_s)
            note = f"passes={passes}; {note}"
            units = END_TO_END
    except Exception:  # the benchmark itself could not run: no result line
        traceback.print_exc()
        return 2
    errors = [s.error for s in samples if s.error]
    for e in errors[:20]:
        print(f"FAILED {e}")
    print(row(wl.name, args.seed, values, units, note))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(samples),
        "failed": len(errors),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
