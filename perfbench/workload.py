"""One workload in one fresh process: set-up, a fixed number of ops, a report.

Run by run.py as
    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]
from the repository root with src on PYTHONPATH.  The last stdout line is
a JSON report; oracle mismatches are listed on stderr.
"""

import argparse
import json
import os
import random
import resource
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pace  # noqa: E402
import wl_cli  # noqa: E402
import wl_lambda  # noqa: E402
import wl_rank  # noqa: E402
import wl_sym  # noqa: E402

WORKLOADS = {m.NAME: m for m in (wl_lambda, wl_sym, wl_rank, wl_cli)}


class Untraced:
    """Stands in for the Tracer when tracing is off."""

    op = -1
    paused = False


def rounds_for(module, seconds):
    """Whole rounds of the module's fixed op list: the count depends only on
    --seconds and the module's nominal round length, never on the machine."""
    return max(1, round(seconds / module.ROUND_SECONDS))


def run_ops(ops, tracer, tally, pacer):
    """Time each op's run(), then check its outputs untimed and untraced.

    The pacer keeps each measured time with the op's verdict until it can
    scale it to the reference pace (pace.py)."""
    for op in ops:
        tally["attempted"] += 1
        tracer.op = tally["attempted"] - 1
        err = None
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception:  # an op that raises is a failed op, not a crash
            err = traceback.format_exc(limit=3)
        dt = perf_counter() - t0
        tracer.paused = True
        if err is None:
            try:
                ok, detail = op.check(out)
            except Exception:
                ok, detail = False, "oracle raised: " + traceback.format_exc(limit=3)
        else:
            ok, detail = False, "raised: " + err
        if not ok:
            tally["failed"] += 1
            if op.known_fault is None:
                tally["correct"] = False
                tally["unexpected"].append("%s: %s" % (op.kind, detail))
            else:
                tally["known"][op.known_fault] = tally["known"].get(op.known_fault, 0) + 1
        pacer.add(dt, (dt, ok))  # a kernel sample here is neither timed nor traced
        tracer.paused = False


def new_tally():
    return {"attempted": 0, "failed": 0, "correct": True,
            "unexpected": [], "known": {}}


def summarize(tally, timed):
    """Throughput and latencies at the reference pace, and at the host's.

    `timed` holds (scaled dt, (dt, ok)) for every op; failed ops count in
    the timed total but not among the latencies."""
    out = {
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "correct": tally["correct"],
        "known_faults": tally["known"],
    }
    for prefix, pick in (("", lambda s, dt: s), ("raw_", lambda s, dt: dt)):
        total = sum(pick(s, dt) for s, (dt, ok) in timed)
        lat = sorted(pick(s, dt) for s, (dt, ok) in timed if ok)
        out[prefix + "throughput_ops_s"] = len(lat) / total if total > 0 else 0.0
        out[prefix + "op_p50_ms"] = statistics.median(lat) * 1000.0 if lat else 0.0
        out[prefix + "op_p90_ms"] = statistics.quantiles(lat, n=10)[-1] * 1000.0 if len(lat) >= 2 else 0.0
    return out


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    module = WORKLOADS[args.workload]

    clock = pace.Stopwatch(module.PACED)
    import extmukai

    tracer = Untraced()
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    state = module.setup(extmukai, trace=bool(args.trace), lap=clock.lap)
    clock.lap()
    setup_s, raw_setup_s = clock.scaled, clock.raw
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    tally = new_tally()
    tracer.paused = True
    ok, detail = module.check_setup(state)
    tracer.paused = False
    if not ok:
        tally["correct"] = False
        tally["unexpected"].append("setup: %s" % detail)

    rng = random.Random(args.seed)
    rounds = rounds_for(module, args.seconds)
    pacer = pace.Pacer(module.PACED)
    for _ in range(rounds):
        tracer.paused = True  # building inputs is not part of any layer
        ops = module.make_round(state, rng)
        tracer.paused = False
        run_ops(ops, tracer, tally, pacer)

    report = summarize(tally, pacer.close())
    report["rounds"] = rounds
    report["setup_s"] = setup_s
    report["raw_setup_s"] = raw_setup_s
    # cli-cold runs its ops in child processes, except in the traced run
    children = module.PEAK_RSS_OF_CHILDREN and not args.trace
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    report["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    if args.trace:
        report["layers"] = tracer.layer_metrics()
        tracer.write(os.path.join(HERE, "out", "trace-%s.spans" % args.workload))
    for line in tally["unexpected"]:
        print("MISMATCH " + line, file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
