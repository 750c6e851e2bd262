"""The extmukai benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

run from the repository root.  Workloads: lambda-membership,
sym-identities, rank-moduli, cli-cold (see README.md).

The workload runs in a fresh single-threaded Python process (workload.py)
with src on PYTHONPATH.  A run is a fixed number of whole rounds of ops,
round(S / nominal round length), so it measures the same work on every
commit.  With --trace 0 the last stdout line carries the end-to-end metrics,
the times of a paced workload scaled to the reference pace of pace.py;
setup_s is the median over SETUP_REPEATS fresh processes, the measured one
included.  With --trace 1 the same ops run with span wrappers installed and
the last line carries the per-layer metrics; the spans are written to
perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lambda-membership", "sym-identities", "rank-moduli", "cli-cold")
SETUP_REPEATS = {"lambda-membership": 3, "sym-identities": 9, "rank-moduli": 9, "cli-cold": 9}
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, env, timeout=CHILD_TIMEOUT_S):
    """Run a Python child to its end; return its last stdout line as JSON."""
    try:
        p = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                           cwd=ROOT, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (" ".join(argv), timeout))
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("%s exited %d" % (" ".join(argv), p.returncode))
    return json.loads(lines[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def declared_metrics(trace):
    """The metric names BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "extmukai", "__init__.py")):
        fail("src/extmukai not found under %s; run from a checkout of the repository" % ROOT)

    env = child_env()
    # the build: byte-compile once so that no timed import compiles
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src")],
                           capture_output=True, text=True, cwd=ROOT, env=env,
                           timeout=CHILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("byte-compiling src failed:\n" + build.stdout + build.stderr)

    wl = [os.path.join(HERE, "workload.py"), "--workload", args.workload,
          "--seed", str(args.seed), "--seconds", str(args.seconds)]
    rep = run_child(wl + ["--trace", str(args.trace)], env)

    if args.trace:
        metrics = rep["layers"]
        code = "import time; t = time.perf_counter(); import extmukai.cli; " \
               "print(time.perf_counter() - t)"
        imports = [float(run_child(["-c", code], env)) for _ in range(IMPORT_REPEATS)]
        metrics["cli.import_ms"] = metric(statistics.median(imports) * 1000.0, "ms")
        summary = {k: rep[k] for k in ("throughput_ops_s", "op_p50_ms", "op_p90_ms",
                                        "raw_throughput_ops_s", "raw_op_p50_ms", "raw_op_p90_ms",
                                        "peak_rss_mb", "setup_s", "raw_setup_s",
                                        "attempted", "failed")}
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with open(os.path.join(HERE, "out", "trace-%s.json" % args.workload), "w") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "traced_end_to_end": summary,
                       "layers": metrics}, fh, indent=1, sort_keys=True)
    else:
        setups = [rep]
        for _ in range(SETUP_REPEATS[args.workload] - 1):
            setups.append(run_child(wl + ["--setup-only"], env))
        rep["raw_setup_s"] = statistics.median(r["raw_setup_s"] for r in setups)
        setups = [r["setup_s"] for r in setups]
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "throughput_ops_s": metric(rep["throughput_ops_s"], "1/s"),
            "op_p50_ms": metric(rep["op_p50_ms"], "ms"),
            "peak_rss_mb": metric(rep["peak_rss_mb"], "MB"),
        }
    if set(metrics) != declared_metrics(args.trace):
        fail("reported metrics differ from BENCHMARK.json: %s"
             % sorted(set(metrics) ^ declared_metrics(args.trace)))
    print("perfbench: %s seed %d: %d rounds, %d ops, %d failed %r, p90 %.3f ms; measured at "
          "the host's pace: %.4g ops/s, p50 %.4g ms, p90 %.4g ms, set-up %.4g s" % (
              args.workload, args.seed, rep["rounds"], rep["attempted"], rep["failed"],
              rep["known_faults"], rep["op_p90_ms"], rep["raw_throughput_ops_s"],
              rep["raw_op_p50_ms"], rep["raw_op_p90_ms"], rep["raw_setup_s"]), file=sys.stderr)
    print(json.dumps({"correct": rep["correct"], "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
