"""Verdict checks, run after the timed region in the parent process.

Each check compares one job's output with a reference that shares no
code with `kll`: the oracles in tests/oracles.py, closed forms, or the
benchmark's own arithmetic in refs.py.  A check returns a list of
reasons; an empty list means the verdict is right.
"""

import json
import math
from fractions import Fraction

import refs
from oracles import (brute_factor_modp, count_index_le2_subgroups,
                     d_p_from_smith, exhaustive_hilbert_split)

# OEIS A005967: connected cubic multigraphs (loops allowed) on V vertices.
A005967 = {"2": 2, "4": 5, "6": 17, "8": 71, "10": 388}

# The census table.  Minimal proper index of SL(2, q) for a prime q
# is q for q in {5, 7, 11} and q + 1 otherwise (Galois; PSL(2, q) acts
# on q points exactly for q <= 11).
CENSUS_EXPECTED = {
    5: {"minimal_index": 5},
    7: {"minimal_index": 7},
    # rank: (Z/2)^4 sits inside SL(2, Z/8) (witness found by
    # refs.elementary_abelian_2_rank_witness), so sup d(H) >= 4 > 3.
    8: {"rank_at_least": 4},
    9: {},
    # 766 subgroups: the exhaustive `complete` census method on SL(2, 11);
    # its 22 subgroups of order 120 are the 2.A5 that give index 11.
    11: {"subgroups": 766, "minimal_index": 11},
    # 1140 subgroups: stated in README.md for SL(2, Z/13).
    13: {"subgroups": 1140, "minimal_index": 14},
}

# Failures that are known, documented defects of the program.  They are
# counted as failures like any other; they only do not make the run
# itself incorrect.
KNOWN_DEFECTS = {
    ("census", 11): "ROADMAP open item 2: the cyclic-extension census only "
                    "reaches soluble subgroups and misses the 22 2.A5 "
                    "subgroups of SL(2, 11)",
}


def check(job, record):
    if "error" in record:
        return [record["error"]]
    if "rc" in record and record["rc"] != 0:
        return [f"exit code {record['rc']}: {record['stderr'].strip()}"]
    if "argv" in job:
        out = json.loads(record["stdout"])
        return CLI_CHECKS[job["argv"][0]](job["input"], out)
    return CALL_CHECKS[job["call"]](job["args"], record["result"])


def known_defect(job):
    key = (job["kind"], job.get("input", {}).get("modulus"))
    return KNOWN_DEFECTS.get(key)


def _expect(reasons, label, got, want):
    if got != want:
        reasons.append(f"{label}: got {got}, expected {want}")


# ---------------------------------------------------------------------------
# graphs

def _check_cubic_lemmas(reasons, v, edges, length, cyc_holds, sub_edges, sub_holds):
    b1 = len(edges) - v + 1
    g = refs.girth(v, edges)
    _expect(reasons, "girth", length, g)
    _expect(reasons, "short_cycle.holds", cyc_holds, 9 * 2 ** g <= 4 * (v + 2) ** 2)
    _expect(reasons, "b1_two_subgraph.holds", sub_holds,
            2 ** sub_edges <= 2 ** 12 * (b1 - 1) ** 6)
    if sub_edges < g + 1:
        reasons.append(f"b1=2 subgraph with {sub_edges} edges beats girth {g} + 1")
    if not (cyc_holds and sub_holds):
        reasons.append("lemma bound fails")


def check_gen(args, result):
    reasons = []
    _expect(reasons, "class counts", result["counts"], A005967)
    for v, edges, length, cyc_holds, indices, num_edges, sub_holds, _ in result["graphs"]:
        edges = [tuple(e) for e in edges]
        if not refs.is_connected_cubic(v, edges):
            reasons.append(f"V={v}: not a connected cubic graph")
            continue
        _check_cubic_lemmas(reasons, v, edges, length, cyc_holds, num_edges, sub_holds)
        b1, connected = refs.subgraph_b1(edges, indices)
        if b1 != 2 or not connected or len(indices) != num_edges:
            reasons.append(f"V={v}: subgraph b1={b1} connected={connected}")
    return reasons


def check_graph(inp, out):
    reasons = []
    v, edges = inp["V"], [tuple(e) for e in inp["edges"]]
    _expect(reasons, "b1", out["b1"], len(edges) - v + 1)
    cyc, sub = out["short_cycle"], out["b1_two_subgraph"]
    _check_cubic_lemmas(reasons, v, edges, cyc["length"], cyc["holds"],
                        sub["edges"], sub["holds"])
    for name, part in (("short_cycle", cyc), ("b1_two_subgraph", sub)):
        if Fraction(part["bound"]["lo"]) > Fraction(part["bound"]["hi"]):
            reasons.append(f"{name}: empty enclosure")
    return reasons


def check_cheeger(inp, out):
    reasons = []
    h = Fraction(out["h"]) if "h" in out else None
    lo = Fraction(out["spectral_bounds"]["lo"])
    hi = Fraction(out["spectral_bounds"]["hi"])
    if "cycle" in inp:
        # the n-cycle: cut it into two arcs, h = 2 / floor(n/2)
        _expect(reasons, "h", h, Fraction(2, inp["cycle"] // 2))
    elif h is None or not 0 < h <= 3:
        reasons.append(f"h = {h} outside (0, 3]")
    if h is not None and not lo <= h <= hi:
        reasons.append(f"h = {h} outside spectral bounds [{lo}, {hi}]")
    return reasons


# ---------------------------------------------------------------------------
# groups

def check_count(inp, out):
    reasons = []
    m = inp["modulus"]
    want = CENSUS_EXPECTED[m]
    _expect(reasons, "group order", out["group_order"], refs.sl2_order(m))
    if "subgroups" in want:
        _expect(reasons, "subgroups", out["subgroups"], want["subgroups"])
    if "minimal_index" in want:
        _expect(reasons, "minimal index", out["essential"]["minimal_index"],
                want["minimal_index"])
    rank = out["rank"]
    _expect(reasons, "rank.holds", rank["holds"], rank["value"] <= rank["bound"])
    if "rank_at_least" in want:
        r = want["rank_at_least"]
        if refs.elementary_abelian_2_rank_witness(m, r) is None:
            reasons.append(f"no (Z/2)^{r} witness found")
        elif rank["value"] < r:
            reasons.append(f"rank {rank['value']} below the (Z/2)^{r} witness")
    if not out["index2"]["consistent"]:
        reasons.append("index-2 count disagrees with 2^d2 - 1")
    return reasons


def check_closure(args, result):
    """Set-up drew the pair so that it generates PSL(2, p), by a BFS in
    refs.closure_size."""
    reasons = []
    _expect(reasons, "closure order", result["order"], refs.psl2_order(args["p"]))
    return reasons


def _flat(rows):
    return (rows[0][0], rows[0][1], rows[1][0], rows[1][1])


def check_quotient(inp, out):
    reasons = []
    primes = inp["primes"]
    gens = [tuple(_flat(m) for m in g) for g in inp["generators"]]
    full = math.prod(refs.psl2_order(p) for p in primes)
    _expect(reasons, "product order", out["product_order"], full)
    _expect(reasons, "closure order", out["closure_order"],
            len(refs.closure_size(gens, primes)))
    # Goursat: PSL(2, p) for distinct p >= 5 are non-isomorphic simple
    # groups, so a subgroup is everything iff it projects onto each one.
    onto = all(len(refs.closure_size([(g[i],) for g in gens], [p])) == refs.psl2_order(p)
               for i, p in enumerate(primes))
    _expect(reasons, "surjective", out["surjective"], onto)
    if "klein_four" in inp:
        a = tuple(_flat(m) for m in inp["klein_four"]["a"])
        b = tuple(_flat(m) for m in inp["klein_four"]["b"])
        n_order, h_order = refs.normalizer_order(primes, a, b)
        got = out["normalizer"]
        want = {"subgroup_order": h_order, "witness_order": 4 ** len(primes),
                "quotient_order": n_order // h_order,
                "bound": 4 ** (len(primes) - 1),
                "holds": n_order // h_order >= 4 ** (len(primes) - 1),
                "exact": True}
        _expect(reasons, "normalizer", got, want)
    return reasons


def check_cosets(args, result):
    reasons = []
    pres = args["presentation"]
    gens = pres["gens"]
    rels = [refs.parse_word(r, gens) for r in pres["rels"]]
    counts = {int(k): v for k, v in result["by_index"].items()}
    _expect(reasons, "index <= 2 subgroups", counts.get(1, 0) + counts.get(2, 0),
            count_index_le2_subgroups(len(gens), rels))
    if len(gens) % 2 == 0 and pres["rels"] == [_surface_relator(len(gens) // 2)]:
        want = refs.surface_subgroup_counts(len(gens) // 2, args["max_index"])
        _expect(reasons, "subgroups by index",
                [counts.get(n, 0) for n in range(1, args["max_index"] + 1)], want)
    for s in result["sample"]:
        _expect(reasons, "Schreier rank", s["rank"], 1 + s["index"] * (len(gens) - 1))
        rows = refs.abelianized(s["rank"], s["relators"])
        for p in (2, 3):
            _expect(reasons, f"d_{p}", s[f"d_{p}"], d_p_from_smith(rows, s["rank"], p))
    return reasons


def _surface_relator(genus):
    letters = "abcdefghijklmnopqrstuvwxyz"
    out = ""
    for i in range(genus):
        x, y = letters[2 * i], letters[2 * i + 1]
        out += x + y + x.upper() + y.upper()
    return out


def check_orbifold(args, result):
    reasons = []
    inst, p = args["instance"], args["p"]
    gens = inst["manifold"]["gens"]
    rels = [refs.parse_word(e["meridian"], gens) * e["order"]
            for e in inst["locus"]["edges"]]
    _expect(reasons, "d_p", result["d_p"],
            d_p_from_smith(refs.abelianized(len(gens), rels), len(gens), p))
    if not result["holds"] or result["d_p"] < result["bound"]:
        reasons.append(f"homology bound fails: d_p {result['d_p']} < {result['bound']}")
    return reasons


# ---------------------------------------------------------------------------
# fields

def check_order(inp, out):
    reasons = []
    ring = refs.QuotientRing(inp["poly"])
    a, b = ([[ring.el(e) for e in row] for row in inp[k]] for k in ("a", "b"))
    ab, ba = refs.mat2_mul(ring, a, b), refs.mat2_mul(ring, b, a)
    comm = [[ring.sub(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]
    commute = all(not any(e) for row in comm for e in row)
    _expect(reasons, "trace identities", out["trace_identities"], True)
    _expect(reasons, "order closed", out["order"]["closed"], not commute)
    if not commute:
        ta, tb, tab = (refs.mat2_trace(ring, m) for m in (a, b, ab))
        # Fricke: tr[a, b] = tr(a)^2 + tr(b)^2 + tr(ab)^2 - tr(a)tr(b)tr(ab) - 2
        fricke = ring.sub(ring.add(ring.add(ring.mul(ta, ta), ring.mul(tb, tb)),
                                   ring.mul(tab, tab)),
                          ring.mul(ring.mul(ta, tb), tab))
        disc = ring.sub(fricke, ring.const(4))
        got = [Fraction(c) for c in out["order"]["discriminant_generator"]]
        _expect(reasons, "discriminant generator", ring.el(got), disc)
    exists = any(refs.mat2_det(ring, comm))
    _expect(reasons, "involution exists", out["involution"]["exists"], exists)
    if exists:
        got = [[ring.el([Fraction(c) for c in e]) for e in row]
               for row in out["involution"]["matrix"]]
        _expect(reasons, "involution ab - ba", got, comm)
    return reasons


def check_field(inp, out):
    reasons = []
    f, p = inp["poly"], inp["p"]
    deg = len(f) - 1
    r1 = inp["real_roots"]
    _expect(reasons, "degree", out["degree"], deg)
    _expect(reasons, "signature", out["signature"], [r1, (deg - r1) // 2])
    disc = Fraction(out["poly_discriminant"])
    if (disc < 0) != ((deg - r1) // 2 % 2 == 1) or disc % p == 0:
        reasons.append(f"discriminant {disc}: wrong sign or divisible by {p}")
    _expect(reasons, "irreducibility certified", out["irreducibility"]["certified"], True)
    got = sorted((tuple(pr["local_factor"]), pr["e"], pr["f"], pr["norm"])
                 for pr in out["primes"][str(p)])
    want = sorted((tuple(g), 1, len(g) - 1, p ** (len(g) - 1))
                  for g in brute_factor_modp(f, p))
    _expect(reasons, f"primes above {p}", got, want)
    return reasons


def check_algebra(inp, out):
    reasons = []
    if "dihedral" in inp:
        norm = refs.tau_norm(inp["dihedral"])
        _expect(reasons, "tau_n norm", out["tau_norm"], str(norm))
        _expect(reasons, "unit", out["dihedral"]["unit"], abs(norm) == 1)
        return reasons
    a, b, p = inp["a"], inp["b"], inp["p"]
    places = out["symbol"]["places"]
    _expect(reasons, "real place", places["real"],
            "Ramified" if a < 0 and b < 0 else "Split")
    _expect(reasons, f"place {p}", places[str(p)],
            "Split" if exhaustive_hilbert_split(a, b, p) else "Ramified")
    return reasons


def _minimal_next(n):
    """Least t >= 0 with t >= 2n - 4 - 4 log2((n + 2)/3), i.e. with
    81 * 2^(2n - 4 - t) <= (n + 2)^4."""
    kmax = ((n + 2) ** 4 // 81).bit_length() - 1
    return max(0, 2 * n - 4 - kmax)


def check_tower(inp, out):
    reasons = []
    levels = out["lower_bound"]["levels"]
    n, inf_q, all_hold = inp["n1"], None, True
    for i, level in enumerate(levels, start=1):
        bound = Fraction(2 ** i) * (1 + Fraction(24, i))
        want = {"i": i, "n": n, "bound": str(bound), "holds": n >= bound}
        _expect(reasons, f"level {i}", level, want)
        q = Fraction(n, 2 ** i)
        inf_q = q if inf_q is None else min(inf_q, q)
        all_hold = all_hold and n >= bound
        n = _minimal_next(n)
    _expect(reasons, "depth", len(levels), inp["depth"])
    _expect(reasons, "inf quotient", out["lower_bound"]["inf_quotient"], str(inf_q))
    _expect(reasons, "all hold", out["lower_bound"]["all_hold"], all_hold)
    return reasons


def check_gs(args, result):
    """The margin is at least 0.5 away from 0 for every d in 60..120, so a
    double-precision evaluation decides its sign with room to spare."""
    d = args["d"]
    margin = (d - 6 * math.log2(d - 1) - 12) ** 2 / 4 - 3 * d + 2
    reasons = []
    _expect(reasons, "holds", result["holds"], margin > 0)
    _expect(reasons, "decided", result["decided"], True)
    lo, hi = Fraction(result["margin"]["lo"]), Fraction(result["margin"]["hi"])
    if not lo - Fraction(1, 10 ** 6) <= Fraction(margin) <= hi + Fraction(1, 10 ** 6):
        reasons.append(f"margin {margin} outside [{float(lo)}, {float(hi)}]")
    return reasons


CLI_CHECKS = {"graph": check_graph, "cheeger": check_cheeger, "count": check_count,
              "quotient": check_quotient, "order": check_order, "field": check_field,
              "algebra": check_algebra, "tower": check_tower}
CALL_CHECKS = {"gen": check_gen, "closure": check_closure, "cosets": check_cosets,
               "orbifold": check_orbifold, "gs": check_gs}
