"""The prodsep benchmark: one seeded workload per process, one thread, closed loop.

    python3 bench/run.py --workload separate --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src``. With
``--trace 0`` it measures the end-to-end metrics with tracing off, every
time scaled to a reference host speed (see ``calibrate``); with
``--trace 1`` it solves each instance untraced and then with spans at every
layer boundary, then makes a pass counting per-element products, prints the per-layer
metrics and writes the spans to ``bench/out/``. The last line of standard
output is one JSON object; a wrong verdict or a rejected certificate exits 1
without it. README.md describes the workloads and the metrics.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
MIN_PASSES = 2
SLOWEST = 5

# The speed at which this process runs drifts on a shared host: one-second
# means of a fixed Python loop ranged over 2x within a minute on the 2-core
# VM the benchmark was written on, and consecutive passes over one pool
# differed by up to 1.6x. Every time the timed run reports is
# therefore scaled to the host speed at which ``calibrate`` takes
# REFERENCE_CAL_S (a median measured on that VM), using calibrations just
# before and just after each instance. Program changes do not move the
# calibration loop, so they show in the scaled times in full.
CAL_LOOPS = 4000
REFERENCE_CAL_S = 1.1e-3
SETUP_CALIBRATIONS = 9
HASH_SEED = "0"


@dataclass
class Sample:
    index: int
    solve_s: float
    verify_s: float      # None when there is no certificate
    decided: bool
    stats: object
    scale: float = 1.0   # host-speed factor the times are multiplied by


def calibrate():
    """Seconds for a fixed pure-Python loop that calls no library code."""
    gc.disable()
    t0 = time.perf_counter()
    total, table = 0, {}
    for i in range(CAL_LOOPS):
        table[i % 500] = table.get(i % 500, 0) + i
        total += i * i % 7
    seconds = time.perf_counter() - t0
    gc.enable()
    return seconds


def host_scale(calibrations):
    """Factor that brings a time measured between these calibrations to the
    reference host speed."""
    return REFERENCE_CAL_S / statistics.mean(calibrations)


def load_prodsep():
    """Import prodsep from scratch, so that every set-up pays the import."""
    for name in [m for m in sys.modules if m == "prodsep" or m.startswith("prodsep.")]:
        del sys.modules[name]
    ps = importlib.import_module("prodsep")
    importlib.import_module("prodsep.certificates")
    return ps


def set_up(workload, seed):
    """Import, generate and label the inputs SETUP_REPEATS times.

    Returns the last import and inputs, the set-up times scaled to the
    reference host speed by calibrations just before and after each set-up,
    and the time spent in the rational oracle during each set-up.
    """
    times, oracle, pools = [], [], []
    for _ in range(SETUP_REPEATS):
        cal = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
        t0 = time.perf_counter()
        ps = load_prodsep()
        pool, oracle_s = workload.make(ps, seed)
        seconds = time.perf_counter() - t0
        cal += [calibrate() for _ in range(SETUP_CALIBRATIONS)]
        times.append(seconds * host_scale(cal))
        oracle.append(oracle_s)
        pools.append(pool)
    if any(p != pools[0] for p in pools):
        raise RuntimeError("input generation is not deterministic")
    return ps, pools[-1], times, oracle


def _certify(ps, workload, inst, result):
    text = workload.certificate(ps, inst, result)
    if text is None:
        return None
    return text, workloads.verify(ps, text)


def run_one(ps, workload, index, inst, tracer=None):
    """Solve, check and certify one instance."""
    t0 = time.perf_counter()
    if tracer is None:
        result, stats = workload.solve(ps, inst)
    else:
        tracer.instance = index
        result, stats = tracer.run(spans.SOLVE, workload.solve, ps, inst)
    t1 = time.perf_counter()
    decided = workload.check(ps, inst, result, stats)
    t2 = time.perf_counter()
    if tracer is None:
        cert = _certify(ps, workload, inst, result)
    else:
        cert = tracer.run(spans.VERIFY, _certify, ps, workload, inst, result)
    t3 = time.perf_counter()
    if cert is not None:
        workloads.check_round_trip(ps, *cert)
    return Sample(index, t1 - t0, None if cert is None else t3 - t2, decided, stats)


def run_pass(ps, workload, pool, scaled=False):
    """Every instance once, in pool order. With ``scaled``, each instance's
    times are scaled to the reference host speed by the calibrations just
    before and just after it."""
    samples = []
    before = calibrate() if scaled else None
    for i, inst in enumerate(pool):
        sample = run_one(ps, workload, i, inst)
        if scaled:
            after = calibrate()
            sample.scale = host_scale((before, after))
            sample.solve_s *= sample.scale
            if sample.verify_s is not None:
                sample.verify_s *= sample.scale
            before = after
        samples.append(sample)
    return samples


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(ps, workload, pool, seconds, setup_times):
    """At least MIN_PASSES whole passes over the pool filling about ``seconds``.

    Whole passes keep the stratum mix exact. Every solve and verify of every
    pass counts, each scaled to the reference host speed.
    """
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(run_pass(ps, workload, pool, scaled=True))
        elapsed = time.perf_counter() - start
        if len(passes) >= max(MIN_PASSES, round(seconds * len(passes) / elapsed)):
            break
    samples = [s for p in passes for s in p]
    solve = [s.solve_s for s in samples]
    verify = [s.verify_s for s in samples if s.verify_s is not None]
    decided = sum(s.decided for s in passes[0])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    unscaled = sum(s.solve_s / s.scale for s in samples)
    print(f"timed: {len(passes)} passes of {len(pool)} instances; unscaled solve_per_s "
          f"{len(solve) / unscaled:.4g}; mean host-speed factor by pass "
          f"{', '.join(f'{statistics.mean(s.scale for s in p):.3f}' for p in passes)}",
          file=sys.stderr)
    metrics = {
        "solve_per_s": metric(len(solve) / sum(solve), "1/s"),
        "solve_p50_ms": metric(statistics.median(solve) * 1e3, "ms"),
        "solve_p90_ms": metric(statistics.quantiles(solve, n=10)[8] * 1e3, "ms"),
        "verify_per_s": metric(len(verify) / sum(verify), "1/s"),
        "decided_ratio": metric(decided / len(pool), "ratio"),
        "peak_rss_mb": metric(peak_kib / 1024, "MB"),
        "setup_s": metric(statistics.median(setup_times), "s"),
    }
    return len(solve), metrics


def _busy(samples):
    return sum(s.solve_s + (s.verify_s or 0.0) for s in samples)


def traced_run(ps, workload, pool, seed, oracle_times):
    """A paired pass, each instance untraced and with spans, then a counting pass.

    Pairing runs both versions of an instance within a fraction of a
    second, so ``trace.overhead_ratio`` compares like with like on a host
    whose speed drifts. The order within a pair alternates, so that
    neither version always finds the caches warm.
    """
    tracer = spans.Tracer()
    plain, traced = [], []

    def spanned(i, inst):
        spans.install_spans(tracer, ps)
        try:
            return run_one(ps, workload, i, inst, tracer)
        finally:
            tracer.restore()

    for i, inst in enumerate(pool):
        if i % 2:
            traced.append(spanned(i, inst))
            plain.append(run_one(ps, workload, i, inst))
        else:
            plain.append(run_one(ps, workload, i, inst))
            traced.append(spanned(i, inst))

    counter = spans.Tracer()
    spans.install_counters(counter, ps)
    try:
        run_pass(ps, workload, pool)
    finally:
        counter.restore()

    self_s = tracer.self_times()
    counts = tracer.counts + counter.counts
    stats = [s.stats for s in traced if s.stats is not None]
    seconds = {
        "stallings.fold_s": "stallings.fold",
        "covers.cover_s": "covers.cover",
        "separators.context_s": "separators.context",
        "separators.image_order_s": "separators.image_order",
        "separators.image_enum_s": "separators.image_enum",
        "separators.product_member_s": "separators.product_member",
        "separators.product_size_s": "separators.product_size",
        "separators.seed_search_s": "separators.seed_search",
        "separators.pinch_s": "separators.pinch",
        "certificates.verify_s": spans.VERIFY,
        "certificates.verify_image_s": "certificates.verify_image",
    }
    metrics = {name: metric(self_s.get(span, 0.0), "s") for name, span in seconds.items()}
    for name in ("stallings.calls", "stallings.folded_vertices", "covers.carrier_points",
                 "separators.image_elements", "groups.mult_calls",
                 "extensions.mult_calls", "extensions.inv_calls"):
        metrics[name] = metric(counts[name], "count")
    metrics["separators.pinch_cuts"] = metric(sum(s.cuts for s in stats), "count")
    metrics["separators.spines"] = metric(sum(s.spines for s in stats), "count")
    metrics["separators.capped"] = metric(sum(not s.decided for s in traced), "count")
    metrics["rational.oracle_s"] = metric(statistics.median(oracle_times), "s")
    metrics["trace.solve_s"] = metric(sum(s.solve_s for s in traced), "s")
    metrics["trace.overhead_ratio"] = metric(_busy(traced) / _busy(plain), "ratio")

    slowest = []
    for s in sorted(plain, key=lambda s: -s.solve_s)[:SLOWEST]:
        inst = pool[s.index]
        slowest.append({"instance": s.index, "stratum": inst.stratum,
                        "image_orders": [o if o is not None else f">{workloads.CAP}"
                                         for o in inst.orders],
                        "solve_ms": s.solve_s * 1e3,
                        "word_length": len(inst.word)})
    _report(workload.name, metrics, slowest)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "metrics": metrics, "slowest": slowest,
        "span_fields": ["name", "start", "end", "parent", "instance"],
        "spans": tracer.spans}) + "\n")
    print(f"trace: spans written to {path}", file=sys.stderr)
    return len(pool), metrics


def _report(name, metrics, slowest):
    solve = metrics["trace.solve_s"]["value"]
    print(f"trace: {name}, self time by layer and its share of the solve span time "
          f"({solve:.3f} s; the certificates rows lie outside it):", file=sys.stderr)
    for key, m in metrics.items():
        if m["unit"] == "s" and key.endswith("_s") and not key.startswith("trace."):
            print(f"  {key:32s} {m['value']:9.4f} s  {m['value'] / solve:7.1%}", file=sys.stderr)
    print("trace: slowest instances (untraced pass):", file=sys.stderr)
    for row in slowest:
        print(f"  #{row['instance']:<4d} {row['stratum']:28s} orders {row['image_orders']} "
              f"{row['solve_ms']:9.2f} ms", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "prodsep" / "__init__.py").is_file():
        print(f"benchmark: no prodsep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    try:
        ps, pool, setup_times, oracle_times = set_up(workload, args.seed)
        setup_peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.trace:
            attempted, metrics = traced_run(ps, workload, pool, args.seed, oracle_times)
        else:
            attempted, metrics = timed_run(ps, workload, pool, args.seconds, setup_times)
            print(f"timed: peak RSS {setup_peak_kib / 1024:.1f} MB after set-up, "
                  f"{metrics['peak_rss_mb']['value']:.1f} MB after the timed run", file=sys.stderr)
    except workloads.WrongAnswer as exc:
        print(f"benchmark: wrong answer: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing decides where names land in dicts and sets, and with
        # it the memory access pattern. Left random, it moved the times of one
        # seed by up to 12% from process to process; fixed, by about 3%. The
        # process replaces itself, so no second process runs.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
