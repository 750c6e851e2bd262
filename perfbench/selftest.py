"""Self-test of the benchmark's checking: a wrong expected value must be
counted as a failed op and make the run incorrect.

    python3 perfbench/selftest.py

Each case runs one real op of a workload through the same loop the
benchmark uses, once with its oracle as shipped (the op must pass) and once
with one expected value deliberately made wrong (the op must be counted as
failed, with correct = false).  Exits 0 when every case behaves.
"""

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import extmukai  # noqa: E402
import wl_cli  # noqa: E402
import wl_rank  # noqa: E402
import wl_sym  # noqa: E402
from pace import Pacer  # noqa: E402
from workload import Untraced, new_tally, run_ops  # noqa: E402


def one_op(make):
    tally = new_tally()
    run_ops([make()], Untraced(), tally, Pacer(False))
    return tally


def case(name, make, module, attr, wrong):
    good = one_op(make)
    saved = getattr(module, attr)
    setattr(module, attr, wrong(saved))
    try:
        bad = one_op(make)
    finally:
        setattr(module, attr, saved)
    ok = (good["failed"] == 0 and good["correct"]
          and bad["failed"] == 1 and not bad["correct"])
    print("%-40s shipped oracle: failed %d; wrong expectation: failed %d, correct %s -> %s"
          % (name, good["failed"], bad["failed"], bad["correct"], "ok" if ok else "BROKEN"))
    return ok


def main():
    sym = wl_sym.setup(extmukai)
    rank = wl_rank.setup(extmukai)
    cli = wl_cli.setup(extmukai, trace=True)  # cli.main in-process
    results = [
        case("sym-identities: chi off by one",
             lambda: wl_sym.make_op(sym, random.Random(1)),
             wl_sym, "chi_k3n", lambda f: lambda q, n: f(q, n) + 1),
        case("rank-moduli: one rank left out",
             lambda: wl_rank._window_op(extmukai, 1, 1, random.Random(1)),
             wl_rank, "realisable", lambda f: lambda *a: set(sorted(f(*a))[1:])),
        case("cli-cold: a catalog key missing",
             lambda: [op for op in wl_cli.light_ops(cli, random.Random(1))
                      if op.kind == "catalog-list"][0],
             wl_cli, "CATALOG_KEYS", lambda keys: keys - {"shift"}),
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
