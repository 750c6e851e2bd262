"""Span tracing of extmukai from the outside.

`Tracer.install` wraps the public functions listed in LAYER_FUNCTIONS: a
class method is replaced on its class, and a module function is replaced in
every extmukai module namespace that holds it (the modules import each other
by name).  Each call records one span: name, start, end, parent span and the
id of the op that made it.  Spans are kept in flat arrays and written out at
the end of the run.  Self time is a span's duration minus the durations of
its direct child spans.
"""

import importlib
import json
import os
import sys
from array import array
from time import perf_counter

# (metric prefix, module, attribute path)
LAYER_FUNCTIONS = (
    ("linalg.Mat.mul", "extmukai.linalg", "Mat.__mul__"),
    ("linalg.Mat.apply", "extmukai.linalg", "Mat.apply"),
    ("linalg.Mat.inverse", "extmukai.linalg", "Mat.inverse"),
    ("linalg.Mat.det", "extmukai.linalg", "Mat.det"),
    ("linalg.Mat.rref", "extmukai.linalg", "Mat.rref"),
    ("linalg.smith_normal_form", "extmukai.linalg", "smith_normal_form"),
    ("linalg.hnf_row_basis", "extmukai.linalg", "hnf_row_basis"),
    ("isometry.QuadSpace.pairing", "extmukai.isometry", "QuadSpace.pairing"),
    ("isometry.Isometry.compose", "extmukai.isometry", "Isometry.compose"),
    ("isometry.Isometry.inverse", "extmukai.isometry", "Isometry.inverse"),
    ("isometry.preserves_lattice", "extmukai.isometry", "preserves_lattice"),
    ("isometry.spinor_norm", "extmukai.isometry", "spinor_norm"),
    ("isometry.disc_action", "extmukai.isometry", "disc_action"),
    ("isometry.eichler_transport", "extmukai.isometry", "eichler_transport"),
    ("lattice.QuadLattice.coords_of_ambient", "extmukai.lattice", "QuadLattice.coords_of_ambient"),
    ("lattice.QuadLattice.pairing", "extmukai.lattice", "QuadLattice.pairing"),
    ("lattice.QuadLattice.from_basis", "extmukai.lattice", "QuadLattice.from_basis"),
    ("lattice.discriminant_group", "extmukai.lattice", "discriminant_group"),
    ("spaces.b_field", "extmukai.spaces", "b_field"),
    ("spaces.k3n_lattices", "extmukai.spaces", "k3n_lattices"),
    ("spaces.kx_rank_core", "extmukai.spaces", "kx_rank_core"),
    ("spaces.rank_predicate_kx_orbit", "extmukai.spaces", "rank_predicate_kx_orbit"),
    ("spaces.rank_predicate_o_orbit", "extmukai.spaces", "rank_predicate_o_orbit"),
    ("catalog.action", "extmukai.catalog", "action"),
    ("verbitsky.pairing_bn", "extmukai.verbitsky", "pairing_bn"),
    ("verbitsky.lefschetz_e", "extmukai.verbitsky", "lefschetz_e"),
    ("verbitsky.laplacian", "extmukai.verbitsky", "laplacian"),
    ("verbitsky.pair_with_sh", "extmukai.verbitsky", "pair_with_sh"),
    ("verbitsky.euler_char_line_bundle", "extmukai.verbitsky", "euler_char_line_bundle"),
    ("verbitsky.project_t", "extmukai.verbitsky", "project_t"),
    ("moduli.fineness", "extmukai.moduli", "fineness"),
    ("moduli.ns_of_moduli", "extmukai.moduli", "ns_of_moduli"),
    ("moduli.disc_lemma_check", "extmukai.moduli", "disc_lemma_check"),
    ("moduli.partner_invariants", "extmukai.moduli", "partner_invariants"),
    ("cli.main", "extmukai.cli", "main"),
    ("serialize.canonical_json", "extmukai.serialize", "canonical_json"),
    ("verification.run_suite", "extmukai.verification", "run_suite"),
)

# Calls whose first argument was already seen (same object) by that function.
REPEAT_COUNTED = {
    "spaces.k3n_lattices": "spaces.k3n_lattices.repeat_calls",
    "lattice.discriminant_group": "lattice.discriminant_group.repeat_calls",
}
RAISE_COUNTED = {"spaces.rank_predicate_o_orbit": "spaces.rank_predicate_o_orbit.raised"}


class Tracer:
    def __init__(self):
        self.names = [name for name, _m, _a in LAYER_FUNCTIONS]
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_of = array("l")
        self.stack = []
        self.op = -1  # -1 marks set-up
        self.paused = False
        self.counters = {m: 0 for m in list(REPEAT_COUNTED.values()) + list(RAISE_COUNTED.values())}
        self._seen = {name: {} for name in REPEAT_COUNTED}

    # -- installation ----------------------------------------------------------

    def install(self):
        for nid, (name, modname, attr) in enumerate(LAYER_FUNCTIONS):
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    setattr(cls, meth, staticmethod(self._wrap(nid, name, raw.__func__)))
                else:
                    setattr(cls, meth, self._wrap(nid, name, raw))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(nid, name, orig)
            for m in list(sys.modules.values()):
                mname = getattr(m, "__name__", "")
                if mname != "extmukai" and not mname.startswith("extmukai."):
                    continue
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)

    def _wrap(self, nid, name, fn):
        repeat_key = REPEAT_COUNTED.get(name)
        raise_key = RAISE_COUNTED.get(name)
        seen = self._seen.get(name)
        stack = self.stack
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, ops = self.parent, self.op_of
        counters = self.counters

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if repeat_key is not None and args:
                obj = args[0]
                if seen.get(id(obj)) is obj:
                    counters[repeat_key] += 1
                else:
                    seen[id(obj)] = obj  # the reference keeps the id unique
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if raise_key is not None:
                    counters[raise_key] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return wrapper

    # -- results ---------------------------------------------------------------

    def layer_metrics(self):
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_id[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child[i]
        out = {}
        for k, name in enumerate(self.names):
            out[name + ".calls"] = {"value": calls[k], "unit": "count"}
            out[name + ".self_ms"] = {"value": self_s[k] * 1000.0, "unit": "ms"}
        for key, val in self.counters.items():
            out[key] = {"value": val, "unit": "count"}
        return out

    def write(self, path):
        """One JSON header line, then one line per span:
        name_id start_s end_s parent_index op_id."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "spans": len(self.start)}) + "\n")
            for i in range(len(self.start)):
                fh.write("%d %.9f %.9f %d %d\n" % (
                    self.name_id[i], self.start[i], self.end[i], self.parent[i], self.op_of[i]))
