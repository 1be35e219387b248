#!/usr/bin/env python3
"""knotpoly benchmark: one closed-loop client, one thread, one process.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 25 --trace 0

Generates the workload's op list from the seed and runs it in full
passes, timing every op from outside the library.  The first pass runs in
a forked child that checks every output against the oracles in
``oracles.py``; then passes run here until ``--seconds`` have elapsed, and
must give the same outputs.
With ``--trace 1`` it then runs one more pass with the library patched by
``spans.py`` and reports per-layer numbers instead of end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit status is 0 when every op was right, 1 when any failed and
2 when the benchmark cannot run (for instance without ``src/knotpoly``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("verify-sweep", "print-tables", "dense-arith")

# Timings are normalised to a fixed machine speed.  Other tenants swing a
# shared machine's speed by a quarter or more within seconds, far more than the
# bounds allow.  A fixed pure-Python reference runs before every op and
# after the last; each op's time is scaled by REFERENCE_S over the median
# of the eight reference times around it (four before, four after), to the
# power REFERENCE_EXPONENT.  The exponent is below 1 because the small,
# cache-resident reference slows down more under load than the ops do:
# over 20 passes of the three workloads, 0.8 gave the steadiest op times
# on verify-sweep and print-tables and no worse ones on dense-arith.  The
# raw times are kept in the run record.
REFERENCE_S = 2e-3
REFERENCE_WINDOW = 4
REFERENCE_EXPONENT = 0.8
# setup_s is normalised too, by a bare interpreter launch made right after
# each set-up launch: the two share every source of start-up noise, which
# the reference above, run in this process, does not.
SETUP_LAUNCHES = 20
BARE_LAUNCH_S = 0.05
BARE_CODE = "print('ready', flush=True)"
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import knotpoly, knotpoly.cli; knotpoly.cli.build_parser(); print('ready', flush=True)"
)

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_metrics():
    """(name, unit) of every metric a traced run reports, in order."""
    out = []
    for kernel in ("kernels.mul_terms", "kernels.bi_mul_terms"):
        out += [(f"{kernel}.calls", "count"), (f"{kernel}.self_s", "s"),
                (f"{kernel}.term_products", "count"), (f"{kernel}.fill", "ratio"),
                (f"{kernel}.operand_bits", "bit"), (f"{kernel}.max_coeff_bits", "bit")]
    layers = ["kernels.addsub", "laurent.ring", "bivar.ring", "laurent.render",
              "bivar.render", "laurent.compose", "bivar.substitute", "laurent.eval_complex",
              "bivar.eval_complex", "laurent.sqrt_perfect", "bivar.sqrt", "invariants",
              "chebyshev", "qnumbers"]
    for layer in layers:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
        if layer.endswith(".ring"):
            out.append((f"{layer}.int_operand_calls", "count"))
    out += [("cli.self_s", "s"), ("cli.out_bytes", "B"),
            ("trace.overhead_ops_per_s", "1/s")]
    return out


def reference_seconds():
    """Time of a fixed workload of dict, big-int and string operations."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(96):
        for j in range(96):
            k = i + j
            acc[k] = acc.get(k, 0) + (i * j << 40)
    ",".join(str(v) for v in acc.values())
    return time.perf_counter() - t0


def normalise(times, refs):
    """Scale ``times[i]`` by REFERENCE_S over the median of the reference
    runs around it, to the power REFERENCE_EXPONENT; ``refs[i]`` ran just
    before ``times[i]``, and ``refs`` has one more entry."""
    w = REFERENCE_WINDOW
    return [None if t is None else
            t * (REFERENCE_S / statistics.median(refs[max(0, i - w + 1):i + w + 1]))
            ** REFERENCE_EXPONENT
            for i, t in enumerate(times)]


def _launch_seconds(code):
    """Time for a fresh ``python3 -I`` running ``code`` to print ready."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-I", "-c", code, str(SRC)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"launch failed with exit {proc.returncode}")
    return elapsed


def setup_seconds():
    """Time for a fresh interpreter to import knotpoly, build the CLI parser
    and report ready.  One launch first fills the bytecode cache.  Each of
    SETUP_LAUNCHES launches is then followed by a bare launch; the median
    ratio of the two, times BARE_LAUNCH_S, is the set-up time on a machine
    where a bare launch takes BARE_LAUNCH_S.  Returns it and the raw median."""
    _launch_seconds(SETUP_CODE)
    times, ratios = [], []
    for _ in range(SETUP_LAUNCHES):
        elapsed = _launch_seconds(SETUP_CODE)
        times.append(elapsed)
        ratios.append(elapsed / _launch_seconds(BARE_CODE))
    return statistics.median(ratios) * BARE_LAUNCH_S, statistics.median(times)


class RunState:
    """Latencies, failures and the verified digest of every op."""

    def __init__(self, n):
        self.times = [[] for _ in range(n)]
        self.raw_times = [[] for _ in range(n)]
        self.digests = [None] * n
        self.attempted = 0
        self.failures = []
        self.out_bytes = 0

    def judge(self, i, op, out, checking):
        """In the checking pass an output is checked by its oracle; later
        outputs must match the checked one exactly."""
        digest = op.digest(out)
        if checking:
            why = op.check(out)
            if why is None:
                self.digests[i] = digest
            return why
        if self.digests[i] is None:
            return "no checked output to compare with"
        return None if digest == self.digests[i] else "output changed between passes"


def _timed(call, tracer, op_span):
    idx = tracer.enter(op_span) if tracer else None
    t0 = time.perf_counter()
    try:
        return call(), time.perf_counter() - t0, None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return None, time.perf_counter() - t0, f"raised {exc!r}"
    finally:
        if tracer:
            tracer.leave(idx)


def run_pass(ops, state, tracer=None, checking=False):
    """Run every op once, in order, each after a run of the reference.
    Returns each op's normalised seconds, or None where it failed; untraced
    times also go into ``state``."""
    op_span = tracer.name_id("op") if tracer else None
    times, refs = [], []
    for i, op in enumerate(ops):
        gc.collect()
        refs.append(reference_seconds())
        out, elapsed, why = _timed(op.checked_call if checking else op.call, tracer, op_span)
        why = why or state.judge(i, op, out, checking)
        state.attempted += 1
        if why:
            state.failures.append(f"{op.key[:120]}: {why}")
            times.append(None)
            continue
        times.append(elapsed)
        if tracer:
            state.out_bytes += op.out_bytes(out)
    refs.append(reference_seconds())
    normalised = normalise(times, refs)
    if not tracer:
        for i, (raw, norm) in enumerate(zip(times, normalised)):
            if raw is not None:
                state.raw_times[i].append(raw)
                state.times[i].append(norm)
    return normalised


def checking_pass(ops, state):
    """The first pass, run in a forked child that also checks every output
    against its oracle.  The closed forms and parsed copies the oracles
    build therefore never count towards this process's peak memory, which
    is left to the library.  The child's times count as the first pass."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            run_pass(ops, state, checking=True)
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(vars(state), pipe)
        except BaseException:
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        report = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"checking pass failed with wait status {status}")
    vars(state).update(json.loads(report))


def ops_per_s(latencies):
    """Ops completed per second of op time, from per-op latencies."""
    return len(latencies) / sum(latencies)


def end_to_end(times, setup, peak_rss_mb):
    # An op's latency is its median over the passes, which filters bursts
    # of load from other processes; p50 and p90 are taken over the ops.
    medians = [statistics.median(t) for t in times if t]
    pct = statistics.quantiles(medians, n=100, method="inclusive")
    return {
        "ops_per_s": ops_per_s(medians),
        "op_p50_ms": pct[49] * 1e3,
        "op_p90_ms": pct[89] * 1e3,
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, state, overhead):
    import spans

    layers = {}
    for name, (calls, self_ns) in tracer.self_times().items():
        entry = layers.setdefault(spans.layer_of(name), [0, 0])
        entry[0] += calls
        entry[1] += self_ns
    counters = tracer.counters
    metrics = {}
    for name, unit in per_layer_metrics():
        layer, _, field = name.rpartition(".")
        if name == "cli.out_bytes":
            value = state.out_bytes
        elif name == "trace.overhead_ops_per_s":
            value = overhead
        elif field == "calls":
            value = layers.get(layer, [0, 0])[0]
        elif field == "self_s":
            value = layers.get(layer, [0, 0])[1] / 1e9
        elif field == "fill":
            products = counters[layer + ".term_products"]
            value = counters[layer + ".out_terms"] / products if products else 0.0
        else:
            value = counters[name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def kernel_disagreements(ops):
    """Ops whose kernel inputs give different results on the compiled and
    the pure backend; None when the compiled one is not built."""
    try:
        from knotpoly._kernels import _speedups
    except ImportError:
        return None
    from knotpoly._kernels import pure

    return [op.key for op in ops
            if any(getattr(pure, name)(*args) != getattr(_speedups, name)(*args)
                   for name, args in op.kernel_inputs())]


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "knotpoly" / "__init__.py").is_file():
        print(f"error: no knotpoly sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import knotpoly
    import workloads

    setup, raw_setup = setup_seconds()
    ops, ident = workloads.generate(args.workload, args.seed)
    bad = kernel_disagreements(ops)
    if bad:
        print("error: compiled and pure kernels disagree on: " + "; ".join(bad),
              file=sys.stderr)
        return 1
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": len(ops), "op_list_sha256": ident,
        "commit": _commit(), "python": platform.python_version(),
        "kernel_backend": knotpoly.kernel_backend(),
        "compiled_kernels_checked": bad is not None,
        "platform": platform.platform(), "nproc": len(os.sched_getaffinity(0)),
    }

    state = RunState(len(ops))
    checking_pass(ops, state)
    passes = 1
    # --seconds of passes here, where the peak memory is measured, after
    # the checking pass, whose oracles take as long as a pass or two
    t_start = time.perf_counter()
    while passes < 2 or time.perf_counter() - t_start < args.seconds:
        run_pass(ops, state)
        passes += 1
    context["passes"] = passes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = end_to_end(state.times, setup, peak_rss_mb)
    raw_metrics = end_to_end(state.raw_times, raw_setup, peak_rss_mb)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        patches = spans.install(tracer)
        try:
            traced = [t for t in run_pass(ops, state, tracer) if t is not None]
        finally:
            spans.uninstall(patches)
        overhead = ops_per_s(traced) - metrics["ops_per_s"]
        metrics = per_layer(tracer, state, overhead)
    else:
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    failed = len(state.failures)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"context": context, "metrics": metrics, "raw_end_to_end": raw_metrics,
              "failures": state.failures}
    if tracer:
        record["span_totals_ns"] = tracer.self_times()
        tracer.write(OUT / f"{args.workload}.spans")   # tens of MB: latest run only
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    for key in ("workload", "seed", "ops", "passes", "op_list_sha256", "commit",
                "kernel_backend", "python", "nproc", "platform"):
        print(f"# {key}: {context[key]}")
    if not tracer:
        print(f"# latency samples: {len(ops)} per-op medians over {passes} passes")
        print("# raw, before normalising to the reference speed: " + ", ".join(
            f"{k} {v:.6g}" for k, v in raw_metrics.items()))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"{'error_rate':40s} {failed / state.attempted:14.6g} ratio "
          f"({failed} of {state.attempted} ops failed)")
    for line in state.failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": state.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
