"""extham benchmark: end-to-end figures per workload, per-layer figures when traced.

Usage (from the root of a checkout):

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

The package is imported from the checkout's ``src`` directory; without it
the benchmark exits 2 and prints no result. The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See bench/README.md for the workloads, metrics and reference figures.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
# fresh processes that each set up the workload; setup_s is their median
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120


def import_package():
    """Import extham from this checkout's src; seconds the import took."""
    sys.path.insert(0, SRC)
    sys.path.insert(1, BENCH_DIR)
    t = time.perf_counter()
    import extham.cli  # noqa: F401

    elapsed = time.perf_counter() - t
    import extham

    origin = os.path.realpath(extham.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"extham imported from {origin}, not from {SRC}")
    return elapsed


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def setup_probe(workload, seed):
    """Child process: set the workload up, then report the monotonic clock."""
    from workloads import WORKLOADS

    w = WORKLOADS[workload](seed)
    try:
        w.warm_up()
    finally:
        w.close()
    print(repr(time.monotonic()))


def measure_setup(workload, seed):
    """Seconds from the start of a fresh process until it is ready to time."""
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1]) - t0


class Tally:
    """Operations attempted and failed, and whether every output checked out."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.errors = []

    def fail(self, op_name, reason):
        self.failed += 1
        self.failures[op_name] = reason

    @property
    def correct(self):
        return not self.errors


def run_round(workload, tally):
    """One pass over the workload's operations; (items, timed seconds)."""
    from checks import CheckError

    items = 0
    timed = 0.0
    for op in workload.ops:
        tally.attempted += 1
        t = time.perf_counter()
        try:
            res = op.run()
        except Exception as exc:  # a crash in the package is a failed operation
            timed += time.perf_counter() - t
            tally.fail(op.name, f"{type(exc).__name__}: {exc}")
            continue
        timed += time.perf_counter() - t
        items += op.items
        try:
            if not op.check(res):
                tally.fail(op.name, "verdict false")
        except CheckError as exc:
            tally.errors.append(f"{op.name}: {exc}")
    try:
        workload.round_check()
    except CheckError as exc:
        tally.errors.append(f"{workload.name} round: {exc}")
    return items, timed


def final_check(workload, tally):
    from checks import CheckError

    try:
        workload.final_check()
    except CheckError as exc:
        tally.errors.append(f"{workload.name} final: {exc}")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(name, seed, seconds, tally):
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    rounds = max(1, round(seconds / cls.nominal_round_s))
    # the set-up probes are spread over the run, between rounds, so that
    # their median samples the same stretch of time as the rounds
    probe_before = [int(i * rounds / SETUP_PROBES) for i in range(SETUP_PROBES)]
    setups = []
    w = cls(seed)
    try:
        w.warm_up()
        rates = []
        for r in range(rounds):
            setups.extend(measure_setup(name, seed) for _ in range(probe_before.count(r)))
            items, timed = run_round(w, tally)
            rates.append(items / timed)
        final_check(w, tally)
    finally:
        w.close()
    log(f"{name}: setup probes {', '.join(f'{s:.3f}' for s in setups)} s")
    log(f"{name}: {rounds} rounds of {len(w.ops)} operations, items/s per round "
        f"{', '.join(f'{r:.1f}' for r in rates)}")
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "items_per_s": metric(statistics.median(rates), "1/s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


def run_traced(name, seed, import_s, tally):
    """One untraced and one traced round of every workload; per-layer figures.

    Each per-layer figure is measured on the workload that exercises its
    layer (bench/README.md); attempted and failed count the named
    workload's operations only, so their ratio matches an untraced run.
    """
    from tracing import Tracer, dual_op_ns
    from workloads import OUT_DIR, WORKLOADS

    out = {
        "duals.op_ns.depth1": metric(dual_op_ns(1), "ns"),
        "duals.op_ns.depth4": metric(dual_op_ns(4), "ns"),
        "cli.import_s": metric(import_s, "s"),
    }
    tallies = {wname: tally if wname == name else Tally() for wname in WORKLOADS}
    untraced = {}
    for wname, cls in WORKLOADS.items():
        w = cls(seed)
        try:
            w.warm_up()
            _, untraced[wname] = run_round(w, tallies[wname])
            final_check(w, tallies[wname])
        finally:
            w.close()

    tracer = Tracer()
    tracer.install()
    traced, items = {}, {}
    try:
        for wname, cls in WORKLOADS.items():
            tracer.set_section(wname)
            w = cls(seed, tracer)
            try:
                items[wname], traced[wname] = run_round(w, tallies[wname])
            finally:
                w.close()
    finally:
        tracer.uninstall()
    for other in tallies.values():
        if other is not tally:
            tally.errors.extend(other.errors)

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{name}-s{seed}.csv.gz")
    log(f"trace: {tracer.write(path)} spans written to {path}")

    out.update(layer_metrics(tracer, items))
    for wname in WORKLOADS:
        out[f"trace.overhead_pct.{wname}"] = metric(
            100.0 * (traced[wname] / untraced[wname] - 1.0), "%")
    return out


def layer_metrics(t, items):
    """Per-layer figures from the traced rounds; see bench/README.md."""
    from workloads import GN_CASES, K_CASES, KBAR_CASES

    S, O, F = "sweep", "oracle", "flow"

    def per_call(section, name, scale, self_time=False):
        calls = t.calls(section, name)
        total = t.self_time(section, name) if self_time else t.inclusive(section, name)
        return total / calls * scale if calls else 0.0

    m = {
        "duals.allocs_per_item": metric(t.count(O, "duals.alloc") / items[O], "count"),
        "phase.partials_calls_per_item": metric(t.count(S, "phase.partials_at") / items[S], "count"),
        "phase.gradient_us": metric(per_call(S, "phase.gradient", 1e6, self_time=True), "us"),
        "phase.bracket_us": metric(per_call(S, "phase.bracket", 1e6, self_time=True), "us"),
        "tagged_trig.gamma_calls_per_item": metric(t.count(S, "tagged_trig.gamma") / items[S], "count"),
        "extension.k_closed_us": metric(per_call(S, "extension.k_closed", 1e6), "us"),
        "extension.bracket_scale_us": metric(per_call(S, "extension.bracket_scale", 1e6), "us"),
        "extension.rank_us": metric(per_call(S, "extension.rank", 1e6), "us"),
        "extension.k_magnitude_us": metric(per_call(O, "extension.k_magnitude", 1e6), "us"),
        "extension.base_rule_calls_per_item": metric(
            t.count(O, "extension.base_rule") / items[O], "count"),
        "catalog.build_ms": metric(per_call(S, "catalog.build", 1e3), "ms"),
        "catalog.chart_us": metric(per_call(S, "catalog.chart", 1e6), "us"),
        "ccm.kprime_us": metric(per_call(S, "ccm.kprime", 1e6), "us"),
        "ladder.residuals_us": metric(per_call(S, "ladder.residuals", 1e6), "us"),
        "dynamics.step_us": metric(t.inclusive(F, "dynamics.integrate") / items[F] * 1e6, "us"),
        "dynamics.fp_iters_per_step": metric(
            t.calls_under(F, "phase.gradient", "dynamics.integrate") / items[F], "count"),
        "dynamics.drift_report_ms": metric(per_call(F, "dynamics.drift_report", 1e3), "ms"),
        "dynamics.csv_write_ms": metric(per_call(F, "dynamics.csv_write", 1e3), "ms"),
        "sampling.points_ms": metric(per_call(S, "sampling.points", 1e3), "ms"),
    }
    cli_calls = t.calls(S, "cli.main") + t.calls(F, "cli.main")
    cli_self = t.self_time(S, "cli.main") + t.self_time(F, "cli.main")
    m["cli.self_ms_per_op"] = metric(cli_self / cli_calls * 1e3, "ms")
    for mm, nn in K_CASES:
        m[f"extension.k_recursive_ms.{mm}-{nn}"] = metric(
            per_call(O, f"extension.k_recursive.{mm}-{nn}", 1e3), "ms")
    for nn in GN_CASES:
        m[f"extension.gn_recursive_us.{nn}"] = metric(
            per_call(O, f"extension.gn_recursive.{nn}", 1e6), "us")
    for mm, nn in KBAR_CASES:
        m[f"extension.kbar_recursive_ms.{mm}-{nn}"] = metric(
            per_call(O, f"extension.kbar_recursive.{mm}-{nn}", 1e3), "ms")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["sweep", "oracle", "flow"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="nominal timed seconds; sets the number of whole rounds")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")

    try:
        import_s = import_package()
    except ImportError as exc:
        log(f"error: cannot import the package: {exc}")
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    tally = Tally()
    if args.trace:
        metrics = run_traced(args.workload, args.seed, import_s, tally)
    else:
        metrics = run_untraced(args.workload, args.seed, args.seconds, tally)
    for op_name, reason in tally.failures.items():
        log(f"failed: {op_name}: {reason}")
    for err in tally.errors[:20]:
        log(f"INCORRECT: {err}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    line = json.dumps(result)
    from workloads import OUT_DIR

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
