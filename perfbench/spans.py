"""Spans around the calls into each `kll` layer, for the traced run only.

`install` replaces each listed function or method, wherever its callers
look it up (module globals, other modules' `from .x import y` names and
class attributes such as `FieldElement.__rmul__`), by a wrapper that
records a span: name, start, end, parent span and job.  Spans live in
flat arrays and are aggregated and written out when the run ends.
"""

import functools
import json
import sys
import time
from array import array
from collections import Counter

# layer -> functions wrapped in it; "Class.method" for methods.  Beyond
# the ones the per-layer metrics name, these are the public functions
# the jobs reach, so that little job time is left unattributed.
LAYERS = {
    "trivalent": ["generate_connected_trivalent", "canonical_form",
                  "short_cycle", "b1_two_subgraph"],
    "taugraphs": ["cheeger_exact", "cheeger_spectral_bounds",
                  "char_poly_laplacian", "lambda2_enclosure"],
    "counting": ["sl2_group_table", "subgroup_census", "rank_bound_check",
                 "essential_subgroups"],
    "finquot": ["sl2_elements", "psl2_elements", "closure",
                "product_surjectivity", "normalizer_quotient_order",
                "ProductGroup.closure", "ProductGroup.all_elements"],
    "fpgroups": ["low_index_subgroups", "reidemeister_schreier", "d_p",
                 "gs_chained_threshold"],
    "orbifold": ["homology_lower_bound", "stratify"],
    "numfield": ["FieldElement.__mul__", "FieldElement.char_poly",
                 "FieldElement.is_integral", "FieldElement.inverse",
                 "signature", "split_prime", "poly_discriminant",
                 "certify_irreducible", "local_quadratic_subextension"],
    "polys": ["mul", "sturm_count", "factor_modp", "resultant"],
    "quatalg": ["hilbert_symbol_qp", "tau_n_norm",
                "dihedral_ramification_analysis"],
    "traceorders": ["build_order", "verify_trace_identities",
                    "jorgensen_involution"],
    "dyadic": ["log2_enclosure"],
    "towers": ["tower_lower_bound"],
}


class Tracer:
    def __init__(self):
        self.names = ["job"]
        self.name_of = array("i")
        self.parent = array("i")
        self.job_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job = -1
        self.errors = Counter()
        self.counts = Counter()

    # -- installation -----------------------------------------------------

    def install(self):
        import kll.cli  # noqa: F401  (loads every layer module)
        modules = [m for name, m in sys.modules.items()
                   if name == "kll" or name.startswith("kll.")]
        hooks = self._result_hooks()
        for layer, names in LAYERS.items():
            mod = sys.modules["kll." + layer]
            for qual in names:
                owner, attr = mod, qual
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(mod, cls_name)
                original = vars(owner)[attr]
                wrapper = self._wrap(original, f"{layer}.{qual}", layer,
                                     hooks.get(f"{layer}.{qual}"))
                _replace_everywhere(modules, original, wrapper)

    def _result_hooks(self):
        counts = self.counts

        def b1_report(rep):
            counts["trivalent.b1_exhaustive"] += rep.strategy == "exhaustive"

        def generated(out):
            counts["trivalent.classes"] += sum(len(v) for v in out.values())

        def census(c):
            counts["counting.subgroups_found"] += c.count

        def closed(s):
            counts["finquot.elements_closed"] += len(s)

        def enumerated(subs):
            counts["fpgroups.subgroups_enumerated"] += len(subs)

        return {"trivalent.b1_two_subgraph": b1_report,
                "trivalent.generate_connected_trivalent": generated,
                "counting.subgroup_census": census,
                "finquot.closure": closed,
                "fpgroups.low_index_subgroups": enumerated}

    def _wrap(self, fn, name, layer, on_result):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, job_of = self.name_of, self.parent, self.job_of
        start, end, stack, errors = self.start, self.end, self.stack, self.errors
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            job_of.append(tracer.job)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- jobs -------------------------------------------------------------

    def begin_job(self, job_id):
        self.job = job_id
        idx = len(self.name_of)
        self.name_of.append(0)
        self.parent.append(-1)
        self.job_of.append(job_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())

    def end_job(self):
        self.end[self.stack.pop()] = time.perf_counter()
        self.job = -1

    # -- output -----------------------------------------------------------

    def summary(self):
        """Per span name: calls, total and self seconds."""
        n = len(self.name_of)
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls = Counter()
        total = Counter()
        self_s = Counter()
        for i in range(n):
            name = self.names[self.name_of[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - covered[i]
        return {"spans": n,
                "by_name": {k: {"calls": calls[k], "total_s": total[k],
                                "self_s": self_s[k]} for k in calls},
                "errors": dict(self.errors), "counts": dict(self.counts)}

    def write(self, path):
        """Header line of JSON, then the five columns as native arrays."""
        columns = [("name", self.name_of), ("parent", self.parent),
                   ("job", self.job_of), ("start", self.start), ("end", self.end)]
        header = {"names": self.names, "spans": len(self.name_of),
                  "columns": [[c, a.typecode, a.itemsize] for c, a in columns]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, a in columns:
                a.tofile(fh)


def _replace_everywhere(modules, original, wrapper):
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
            elif isinstance(value, type) and value.__module__.startswith("kll"):
                for attr, member in list(vars(value).items()):
                    if member is original:
                        setattr(value, attr, wrapper)
