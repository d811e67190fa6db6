"""Command-line front end.  Every subcommand reads/writes JSON with all
numeric values as exact rational strings ("2/3"); interval data appears
only in explicitly labeled {"lo": ..., "hi": ...} fields.  Output is
byte-identical across runs: keys are sorted and no floats are emitted.
A validation or budget error is one JSON line on stderr; `kll verify`
also writes one JSON line there per example, with its wall time.

Exit codes: 0 success, 2 precondition/validation error, 3 budget
exceeded.
"""

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from . import numfield, polys, quatalg, traceorders, fpgroups, orbifold
from . import trivalent, towers, finquot, taugraphs, counting


def _rat(x):
    return str(Fraction(x))


def _enc(lo, hi):
    return {"lo": _rat(lo), "hi": _rat(hi)}


def _emit(obj, path=None):
    text = json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "))
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _parse_field(poly_str):
    coeffs = json.loads(poly_str)
    if not (type(coeffs) is list and all(type(c) is int for c in coeffs)):
        raise ValueError(f"bad polynomial {poly_str}: expected a list of "
                         "JSON integers")
    return numfield.NumberField(tuple(coeffs))


# ---------------------------------------------------------------------------
# Input formats: each validator below is the one statement of its format.
# A value is rejected with its JSON pointer before any domain constructor
# sees it; types match exactly, so a JSON true is no integer and 0.5 no
# rational.  Keys a format does not name are ignored.

def _bad(pointer, expected):
    return ValueError(f"bad value at {pointer}: expected {expected}")


def _check(ok, pointer, expected):
    if not ok:
        raise _bad(pointer, expected)


def _require(obj, key, pointer, kind=None):
    """Fetch obj[key], reporting missing/mistyped fields by JSON pointer."""
    if type(obj) is not dict or key not in obj:
        raise ValueError(f"missing field at {pointer}/{key}")
    val = obj[key]
    _check(kind is None or type(val) is kind, f"{pointer}/{key}",
           kind and kind.__name__)
    return val


def _validate_graph(obj):
    """{"V": n >= 1, "edges": [[u, v], ...]} with 0 <= u, v < n.  Each
    edge is one plain test; only the first bad value builds a message."""
    v = _require(obj, "V", "", int)
    _check(v >= 1, "/V", "a positive integer")
    for i, e in enumerate(_require(obj, "edges", "", list)):
        if type(e) is not list or len(e) != 2:
            raise _bad(f"/edges/{i}", "[u, v]")
        a, b = e
        if not (type(a) is int and type(b) is int and 0 <= a < v and 0 <= b < v):
            j = int(type(a) is int and 0 <= a < v)  # the first bad endpoint
            raise _bad(f"/edges/{i}/{j}", f"an integer in [0, {v})")


def _validate_orbifold(obj):
    """{"manifold": {"gens": [...], "rels": [...]}, "locus": {"vertices":
    [...], "edges": [{"id", "ends", "order", "meridian", "core"?}]}}.

    Generators are distinct lowercase letters; every relator, meridian
    and core is a word in them and their capitals (inverses); each edge
    joins two listed vertices and has order >= 2.
    """
    manifold = _require(obj, "manifold", "", dict)
    gens = _require(manifold, "gens", "/manifold", list)
    _check(gens, "/manifold/gens", "at least one generator")
    for i, g in enumerate(gens):
        _check(type(g) is str and len(g) == 1 and "a" <= g <= "z"
               and g not in gens[:i], f"/manifold/gens/{i}",
               "a lowercase letter not listed before")
    letters = set(gens) | {g.upper() for g in gens}

    def word(w, pointer):
        _check(type(w) is str and set(w) <= letters, pointer,
               f"a word in {''.join(gens)} and their inverses")

    for i, r in enumerate(_require(manifold, "rels", "/manifold", list)):
        word(r, f"/manifold/rels/{i}")
    locus = _require(obj, "locus", "", dict)
    vertices = locus.get("vertices", [])
    _check(type(vertices) is list and all(type(u) is str for u in vertices),
           "/locus/vertices", "a list of vertex names")
    for i, ed in enumerate(_require(locus, "edges", "/locus", list)):
        ptr = f"/locus/edges/{i}"
        _require(ed, "id", ptr, str)
        ends = _require(ed, "ends", ptr, list)
        _check(len(ends) == 2, f"{ptr}/ends", "two vertex names")
        _check(_require(ed, "order", ptr, int) >= 2, f"{ptr}/order",
               "an integer >= 2")
        word(_require(ed, "meridian", ptr), f"{ptr}/meridian")
        if "core" in ed:
            word(ed["core"], f"{ptr}/core")
        for j, u in enumerate(ends):
            _check(u in vertices, f"{ptr}/ends/{j}",
                   "a name in /locus/vertices")


def _validate_2x2(m, pointer, entry_ok, expected):
    """[[a, b], [c, d]] whose entries each pass entry_ok."""
    _check(type(m) is list and len(m) == 2 and all(
        type(row) is list and len(row) == 2 for row in m),
        pointer, "[[a, b], [c, d]]")
    for i, row in enumerate(m):
        for j, x in enumerate(row):
            _check(entry_ok(x), f"{pointer}/{i}/{j}", expected)


def _is_rational(x):
    """A JSON integer, or a string naming an exact rational like "2/3"."""
    if type(x) is str:
        try:
            Fraction(x)
        except (ValueError, ZeroDivisionError):
            return False
        return True
    return type(x) is int


def _validate_matrices(obj, degree):
    """{"a": M, "b": M}: 2x2 matrices over the field of the given degree,
    each entry a rational or a list of at most `degree` rational
    coefficients in the power basis."""
    for key in ("a", "b"):
        _validate_2x2(
            _require(obj, key, "", list), f"/{key}",
            lambda x: _is_rational(x) or type(x) is list and len(x) <= degree
            and all(map(_is_rational, x)),
            f"a rational, or a list of at most {degree} of them")


def _validate_matrix_tuple(tup, pointer, primes):
    """One 2x2 integer matrix of determinant 1 mod p per prime p."""
    _check(type(tup) is list and len(tup) == len(primes), pointer,
           "one matrix per prime")
    for j, (m, p) in enumerate(zip(tup, primes)):
        _validate_2x2(m, f"{pointer}/{j}", lambda x: type(x) is int,
                      "an integer")
        (a, b), (c, d) = m
        _check((a * d - b * c) % p == 1, f"{pointer}/{j}",
               f"determinant 1 mod {p}")


def _validate_quotient_job(obj):
    """{"primes": [p, ...], "generators": [tuple, ...], "klein_four"?:
    {"a": tuple, "b": tuple}}, a tuple holding one matrix per prime."""
    primes = _require(obj, "primes", "", list)
    _check(primes, "/primes", "at least one prime")
    for i, p in enumerate(primes):
        _check(type(p) is int and polys.is_prime(p), f"/primes/{i}",
               "a prime integer")
    for i, tup in enumerate(_require(obj, "generators", "", list)):
        _validate_matrix_tuple(tup, f"/generators/{i}", primes)
    if "klein_four" in obj:
        kf = _require(obj, "klein_four", "", dict)
        for key in ("a", "b"):
            _validate_matrix_tuple(_require(kf, key, "/klein_four"),
                                   f"/klein_four/{key}", primes)


# ---------------------------------------------------------------------------
# Subcommand handlers

def cmd_field(args):
    field = _parse_field(args.poly)
    r1, r2 = numfield.signature(field)
    verdict, method = field.irreducibility
    report = {
        "poly": list(field.min_poly),
        "degree": field.degree,
        "signature": [r1, r2],
        "poly_discriminant": str(numfield.poly_discriminant(field)),
        "irreducibility": {"certified": verdict is True, "method": method},
        "primes": {},
    }
    for p in args.prime or []:
        entry = []
        for pr in numfield.split_prime(field, p):
            entry.append({
                "e": pr.ramification_index,
                "f": pr.residue_degree,
                "norm": pr.norm,
                "local_factor": list(pr.local_factor),
                "quadratic_subextension": numfield.local_quadratic_subextension(pr),
            })
        report["primes"][str(p)] = entry
    _emit(report, args.output)
    return 0


def cmd_algebra(args):
    report = {}
    if args.dihedral is not None:
        dihedral = quatalg.dihedral_ramification_analysis(args.dihedral)
        report["dihedral"] = dihedral.to_json()
        report["tau_norm"] = str(dihedral.norm)
    if args.symbol:
        a, b = (Fraction(s) for s in args.symbol)
        places = {}
        places["real"] = quatalg.hilbert_symbol_qp(a, b, quatalg.INFINITE_PLACE)
        for p in args.prime or [2]:
            places[str(p)] = quatalg.hilbert_symbol_qp(a, b, p)
        report["symbol"] = {"a": _rat(a), "b": _rat(b), "places": places}
    if args.clozel_poly:
        field = _parse_field(args.clozel_poly)
        rams = []
        for p in args.ram_prime or []:
            rams.extend(numfield.split_prime(field, p))
        res = quatalg.clozel_hypothesis(field, rams)
        report["clozel"] = {
            "status": res.status,
            "witness": None if res.witness is None else {
                "p": res.witness.rational_prime,
                "e": res.witness.ramification_index,
                "f": res.witness.residue_degree,
            },
        }
    if not report:
        raise ValueError("nothing to do: pass --dihedral, --symbol or --clozel-poly")
    _emit(report, args.output)
    return 0


def _parse_matrix(field, obj):
    rows = []
    for row in obj:
        rows.append([field.element([Fraction(c) for c in entry])
                     if isinstance(entry, list) else Fraction(entry)
                     for entry in row])
    return traceorders.Mat2.from_rows(field, rows)


def cmd_order(args):
    field = _parse_field(args.poly)
    if not args.input and not args.matrices:
        raise ValueError("pass --input or --matrices")
    spec = _load_json(args.input) if args.input else json.loads(args.matrices)
    _validate_matrices(spec, field.degree)
    a, b = _parse_matrix(field, spec["a"]), _parse_matrix(field, spec["b"])
    try:
        disc = traceorders.build_order(a, b).discriminant
        order = {"closed": True,
                 "discriminant_generator": [_rat(c) for c in disc.coeffs]}
    except (traceorders.CommutingGenerators,
            traceorders.NonIntegralTraces) as exc:
        order = {"closed": False, "reason": str(exc)}
    try:
        tau = traceorders.jorgensen_involution(a, b)
        involution = {"exists": True, "matrix": tau.to_json()}
    except (traceorders.CommonFixedPoint, traceorders.RelationFailure) as exc:
        involution = {"exists": False, "reason": str(exc)}
    # build_order raises before any verdict unless the identities hold
    _emit({"trace_identities": True, "order": order, "involution": involution},
          args.output)
    return 0


def cmd_orbifold(args):
    obj = _load_json(args.input)
    _validate_orbifold(obj)
    data = orbifold.OrbifoldData.from_json(obj)
    p = args.prime
    strat = orbifold.stratify(data.locus, p)
    bound, actual, holds = orbifold.homology_lower_bound(data, p)
    report = {
        "prime": p,
        "stratification": {
            "components": len(strat.components),
            "zero": len(strat.zero),
            "negative": len(strat.negative),
            "positive_arcs": len(strat.positive),
            "b1": strat.b1,
        },
        "homology_bound": {"bound": bound, "d_p": actual, "holds": holds},
    }
    if not data.locus.is_empty():
        deficit, dbound, dholds = orbifold.presentation_deficit(data)
        report["deficit"] = {"value": deficit, "bound": dbound, "holds": dholds}
    if args.phi:
        phi = [int(x) for x in args.phi.split(",")]
        res = orbifold.theorem55_hypothesis(data, phi, p)
        report["fibering_hypothesis"] = {"status": res.status}
    else:
        phi = orbifold.find_theorem55_phi(data, p)
        report["fibering_hypothesis"] = {
            "status": "Satisfied" if phi else "NotFound",
            "phi": phi,
        }
    _emit(report, args.output)
    return 0


def cmd_graph(args):
    obj = _load_json(args.input)
    _validate_graph(obj)
    g = trivalent.TrivalentGraph.from_json(obj)
    cyc = trivalent.short_cycle(g)  # ValueError unless g is connected
    sub = trivalent.b1_two_subgraph(g)
    report = {
        "V": g.num_vertices,
        "b1": g.b1(),
        "short_cycle": {
            "length": cyc.length,
            "bound": _enc(cyc.bound_lo, cyc.bound_hi),
            "holds": cyc.holds,
            "cycle_vertices": cyc.cycle_vertices,
        },
        "b1_two_subgraph": {
            "edges": sub.num_edges,
            "bound": _enc(sub.bound_lo, sub.bound_hi),
            "holds": sub.holds,
            "strategy": sub.strategy,
            "edge_indices": sub.edge_indices,
        },
    }
    _emit(report, args.output)
    return 0


def cmd_tower(args):
    report = {}
    if args.check is not None:  # "" is an empty sequence, refused below
        seq = [int(x) for x in args.check.split(",")] if args.check else []
        steps = towers.recurrence_check(seq)
        report["recurrence"] = [
            {"level": s.level, "n": s.n, "next": s.n_next, "holds": s.holds,
             "small_n_warning": s.small_n_warning}
            for s in steps
        ]
    if args.n1 is not None:
        res = towers.tower_lower_bound(args.n1, args.depth)
        report["lower_bound"] = {
            "levels": [
                {"i": lv.level, "n": lv.minimal_n,
                 "bound": _rat(Fraction(lv.bound_num, lv.bound_den)),
                 "holds": lv.holds}
                for lv in res.levels
            ],
            "all_hold": res.all_hold(),
            "inf_quotient": _rat(res.inf_quotient),
        }
    if not report:
        raise ValueError("pass --n1/--depth or --check")
    _emit(report, args.output)
    return 0


def cmd_quotient(args):
    spec = _load_json(args.input)
    _validate_quotient_job(spec)
    primes = spec["primes"]
    gens = [_flatten(tup) for tup in spec["generators"]]
    report = {"primes": primes}
    grp = finquot.ProductGroup(primes)
    order = (grp.order() if finquot.hall_onto(primes, gens, args.budget)
             else len(grp.closure(gens, args.budget)))
    report["closure_order"] = order
    report["product_order"] = grp.order()
    report["surjective"] = order == grp.order()
    if "klein_four" in spec:
        kf = spec["klein_four"]
        rep = finquot.normalizer_quotient_order(
            primes, _flatten(kf["a"]), _flatten(kf["b"]))
        report["normalizer"] = asdict(rep)
    _emit(report, args.output)
    return 0


def _flatten(tup):
    """One [[a, b], [c, d]] per prime -> one (a, b, c, d) per prime."""
    return tuple((m[0][0], m[0][1], m[1][0], m[1][1]) for m in tup)


def cmd_cheeger(args):
    if args.cycle is not None:
        g = taugraphs.CosetGraph.cycle(args.cycle)
    elif not args.input:
        raise ValueError("pass --cycle or --input")
    else:
        obj = _load_json(args.input)
        _validate_graph(obj)
        g = taugraphs.CosetGraph(obj["V"], tuple(tuple(e) for e in obj["edges"]))
    report = {"V": g.num_vertices}
    bounds = None
    try:
        h = taugraphs.cheeger_exact(g, args.budget)
        report["h"] = _rat(h)
        report["h_set"] = list(h.minimiser)
    except fpgroups.BudgetExceeded as exc:
        bounds = taugraphs.cheeger_spectral_bounds(g)
        report["h_bounds"] = _enc(*bounds)
        report["exact_budget"] = {"budget": exc.budget, "limit": exc.limit,
                                  "reached": exc.reached}
    if args.spectral:
        bounds = bounds or taugraphs.cheeger_spectral_bounds(g)
        report["spectral_bounds"] = _enc(*bounds)
    _emit(report, args.output)
    return 0


def cmd_count(args):
    m = args.modulus
    if m >= 5 and polys.is_prime(m):
        census = counting.dickson_census(m, args.budget)
        d2 = 0  # PSL(2, p) is perfect
    else:
        census = counting.sl2_census(m, args.budget)
        # -I = S^2 is a square, so a PSL table has the same d2 as SL
        d2 = census.table.d2_quotient_rank()
    index2 = census.of_index(2)
    rank = counting.rank_bound_check(census)
    ess = counting.essential_subgroups(m, census)
    report = {
        "modulus": m,
        "group_order": census.order,
        "subgroups": census.count,
        "rank": {"value": rank.rank, "bound": rank.bound, "holds": rank.holds},
        "essential": {
            "count": ess.count,
            "minimal_index": ess.minimal_index,
            "prime_field": ess.prime_field,
            "expected_minimal": ess.expected_minimal,
            "exceptional": ess.exceptional,
        },
        "index2": {"count": index2, "expected": 2 ** d2 - 1,
                   "consistent": index2 == 2 ** d2 - 1},
    }
    _emit(report, args.output)
    return 0


# ---------------------------------------------------------------------------
# Fixed example corpus: each worked example stated once, as a named check
# returning (passed, detail).  `kll verify` runs them all; the acceptance
# suite asserts them by name.

QUINTIC = (1, 0, -2, -1, 0, 1)
SEXTIC = (1, -1, -2, 2, -1, -1, 1)


def _signature(poly, expected):
    def check():
        sig = numfield.signature(numfield.NumberField(poly))
        return sig == expected, {"signature": list(sig)}
    return check


def _quintic_norm_121_prime():
    primes = numfield.split_prime(numfield.NumberField(QUINTIC), 11)
    f2 = [p for p in primes if p.residue_degree == 2]
    return (len(f2) == 1 and f2[0].norm == 121,
            {"primes": [[p.ramification_index, p.residue_degree]
                        for p in primes]})


def _quintic_hypothesis_violated():
    k5 = numfield.NumberField(QUINTIC)
    f2 = [p for p in numfield.split_prime(k5, 11) if p.residue_degree == 2]
    clz = quatalg.clozel_hypothesis(k5, f2)
    # the witness is the norm-121 prime itself
    return (clz.status == quatalg.VIOLATED and [clz.witness] == f2
            and clz.witness.norm == 121,
            {"status": clz.status})


def _sextic_discriminant():
    disc = numfield.poly_discriminant(numfield.NumberField(SEXTIC))
    quot = Fraction(disc, -104483)
    square = quot.denominator == 1 and quot.numerator >= 0 and \
        polys.is_perfect_square(quot.numerator)
    return square, {"poly_disc": str(disc), "quotient_by_-104483": str(quot)}


def _tau_4():
    tau4 = quatalg.tau_n(4).rational_value()
    return tau4 == -4, {"tau_4": str(tau4)}


def _tau_norm_table():
    """|N(tau_n)| is a power of p for n = p^t (exactly p when n is odd)
    and 1 for n = 12, 15, 20; n = 6 and 10 are reported discrepancies
    against the stated norm dichotomy, |N| = 3 and 5."""
    norms = {n: abs(quatalg.tau_n_norm(n))
             for n in (3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 20)}
    prime = {n: quatalg._prime_power(n)[0] for n in (3, 4, 5, 7, 8, 9)}
    discrepancies = {n: norms[n] for n in (6, 10) if norms[n] != 1}
    passed = (all(set(polys._prime_factors_int(norms[n])) == {p}
                  for n, p in prime.items())
              and all(norms[n] == prime[n] for n in (3, 5, 7, 9))
              and all(norms[n] == 1 for n in (12, 15, 20))
              and discrepancies == {6: 3, 10: 5})
    return passed, {
        "norms": {str(n): str(norms[n])
                  for n in (3, 4, 5, 7, 8, 9, 12, 15, 20)},
        "norm_dichotomy_discrepancies": {str(n): str(v)
                                         for n, v in discrepancies.items()}}


def _gs_threshold():
    at81, at80 = map(fpgroups.gs_chained_threshold, (81, 80))
    passed = (at81.holds and at81.decided and at81.margin_lo > 0
              and not at80.holds and at80.decided and at80.margin_hi <= 0)
    return passed, {"margin_81": _enc(at81.margin_lo, at81.margin_hi),
                    "margin_80": _enc(at80.margin_lo, at80.margin_hi)}


def _cyclic_tower_largeness():
    """The three largeness conditions on the cyclic covers G_i of index
    i = 1..6 (H_i = G, J_i = G_i, d(J_i/K_i) = d_2(G_i)): consistent
    for F_2, whose d_2 grows as i + 1, and failing the rank condition
    for Z^2, whose d_2 stays 2.  The index-6 covers pass and fail the
    Golod-Shafarevich inequality alike, and intersecting the F_2 tower
    with the index-2 kernel of a, b -> 1 keeps d_2 / index positive."""
    f2 = fpgroups.Presentation.free(2)
    z2 = fpgroups.Presentation.from_strings(["x", "y"], ["xyXY"])
    depth = 6
    reports, gs = {}, {}
    for name, pres in (("F2", f2), ("Z2", z2)):
        levels = fpgroups.cyclic_tower(pres, [1, 0], depth)
        reports[name] = fpgroups.largeness_conditions(
            [fpgroups.LargenessDatum(index_h=1, index_j=lv.index,
                                     d_quotient=lv.dims[2]) for lv in levels])
        top = fpgroups.reidemeister_schreier(
            fpgroups.cyclic_quotient_table(pres, [1, 0], depth))
        gs[name] = fpgroups.golod_shafarevich_check(
            levels[-1].dims[2], len(top.relators), top.rank())
    kernel = fpgroups.cyclic_quotient_table(f2, [1, 1], 2)
    inter = [fpgroups.intersection_table(
        fpgroups.cyclic_quotient_table(f2, [1, 0], i), kernel)
        for i in range(1, depth + 1)]
    inter_min = min(Fraction(fpgroups.d_p(fpgroups.reidemeister_schreier(t), 2),
                             t.index) for t in inter)
    passed = (reports["F2"].conditions_consistent()
              and not reports["Z2"].rank_condition_ok
              and gs["F2"].holds and not gs["Z2"].holds and inter_min > 0)
    return passed, {
        "consistent": {k: r.conditions_consistent() for k, r in reports.items()},
        "last_quotient": {k: _rat(r.last_quotient) for k, r in reports.items()},
        "gs_margin": {k: _rat(r.margin) for k, r in gs.items()},
        "intersection_min_quotient": _rat(inter_min)}


def _commuting_involutions():
    """Commuting involutions h1 = diag(1,-1,-1,-1), h2 = diag(-1,1,-1,-1)
    on H_1(M; Q) = Q^4: the +1 eigenspace of h1 h2 has dimension 2, so
    the matching quotient orbifold has b_1 >= 2."""
    h1 = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    h2 = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    dims, holds = orbifold.involution_eigenspace_analysis(h1, h2)
    return holds and dims == (1, 1, 2), {"plus_one_dims": list(dims)}


def _klein_four_relations():
    """Over Q, a = diag(2, 1/2) and the rotation alpha are inverted and
    fixed by tau1 = [[0, 1], [-1, 0]] and fixed and inverted by
    tau2 = diag(1, -1), which generate Z/2 x Z/2 in PGL(2); tau1 in
    both roles is refused."""
    q = numfield.NumberField((0, 1))
    a = traceorders.Mat2.from_rows(q, [[2, 0], [0, Fraction(1, 2)]])
    alpha = traceorders.Mat2.from_rows(q, [[Fraction(3, 5), Fraction(4, 5)],
                                           [Fraction(-4, 5), Fraction(3, 5)]])
    tau1 = traceorders.Mat2.from_rows(q, [[0, 1], [-1, 0]])
    tau2 = traceorders.Mat2.from_rows(q, [[1, 0], [0, -1]])
    klein = traceorders.klein_four_relations(a, alpha, tau1, tau2)
    try:
        traceorders.klein_four_relations(a, alpha, tau1, tau1)
        refused = False
    except traceorders.RelationFailure:
        refused = True
    return klein and refused, {"klein_four": klein, "tau1_twice_refused": refused}


def _tower_bound():
    tower = towers.tower_lower_bound(50, 30)
    passed = tower.all_hold() and all(
        towers.auxiliary_inequality_holds(i) for i in range(1, 65))
    return passed, {"inf_quotient": _rat(tower.inf_quotient)}


def _hall_product():
    s5, s7, t = (0, 4, 1, 0), (0, 6, 1, 0), (1, 1, 0, 1)
    onto = finquot.product_surjectivity([5, 7], [(s5, s7), (t, t)])
    diag = finquot.product_surjectivity([5, 5], [(s5, s5), (t, t)])
    return onto and not diag, {"onto_5x7": onto, "diagonal_5x5_proper": not diag}


def _free_product_kernel():
    """Z/2 * Z/2 * Z/2 * Z/2: its index-2 kernel is free of rank 3."""
    star = fpgroups.Presentation.from_strings(
        ["a", "b", "c", "d"], ["aa", "bb", "cc", "dd"])
    tbl = fpgroups.SubgroupTable(star, ((1, 0),) * 4)
    ker = fpgroups.reidemeister_schreier(tbl).simplified()
    return (ker.rank() == 3 and not ker.relators,
            {"rank": ker.rank(), "relators": len(ker.relators)})


def _sl2_11_census():
    """Minimal proper index q = 11, the exceptional case, from 2.A5:
    Dickson's classes, as `kll count --modulus 11` reads them."""
    census = counting.dickson_census(11)
    ess = counting.essential_subgroups(11, census)
    return (census.count == 766 and ess.minimal_index == 11,
            {"subgroups": census.count, "minimal_index": ess.minimal_index})


EXAMPLES = (
    ("quintic-signature", _signature(QUINTIC, (3, 1))),
    ("quintic-norm-121-prime", _quintic_norm_121_prime),
    ("quintic-hypothesis-violated", _quintic_hypothesis_violated),
    ("sextic-signature", _signature(SEXTIC, (4, 1))),
    ("sextic-discriminant", _sextic_discriminant),
    ("tau-4", _tau_4),
    ("tau-norm-table", _tau_norm_table),
    ("gs-threshold-81-80", _gs_threshold),
    ("cyclic-tower-largeness-f2-z2", _cyclic_tower_largeness),
    ("commuting-involutions-b1", _commuting_involutions),
    ("klein-four-relations", _klein_four_relations),
    ("tower-bound-n1-50", _tower_bound),
    ("hall-product-5x7", _hall_product),
    ("free-product-kernel-rank-3", _free_product_kernel),
    ("sl2-11-census", _sl2_11_census),
)


def verify_paper_examples():
    """The worked examples reproduced end to end; one record each.  Each
    example's wall time goes to stderr as one JSON line, seconds as a
    decimal string, so the records themselves stay deterministic."""
    results = []
    for name, check in EXAMPLES:
        start = time.perf_counter()
        passed, detail = check()
        seconds = time.perf_counter() - start
        print(json.dumps({"name": name, "seconds": f"{seconds:.6f}"}),
              file=sys.stderr)
        results.append({"name": name, "pass": bool(passed), "detail": detail})
    return results


def cmd_verify(args):
    results = verify_paper_examples()
    report = {"examples": results, "all_pass": all(r["pass"] for r in results)}
    _emit(report, args.output)
    return 0 if report["all_pass"] else 1


# ---------------------------------------------------------------------------

def budget(text):
    """A `--budget` cap: an integer N >= 0, else an argparse error."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"a budget must be >= 0, not {n}")
    return n


@functools.cache
def build_parser():
    """The `kll` parser, built on first use and shared by every `main`
    call: `parse_args` starts each call from a fresh namespace and copies
    list defaults, so no state carries from one call to the next."""
    ap = argparse.ArgumentParser(
        prog="kll",
        description=("Exact checks: number-field splitting, quaternion "
                     "ramification, trace orders, orbifold homology bounds, "
                     "trivalent-graph lemmas, cover towers, finite quotients, "
                     "Cheeger constants, subgroup counting"))
    ap.add_argument("--budget", type=budget, default=None,
                    help="cap the group order of the count census (for a "
                         "prime modulus p >= 5, the orders of its witness "
                         "closures), the closure orders of quotient and the "
                         "connected sets cheeger enumerates for an exact h")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="number field arithmetic")
    p.add_argument("--poly", required=True,
                   help="integer coefficients, constant term first, e.g. "
                        "[1,0,-2,-1,0,1]")
    p.add_argument("--prime", type=int, action="append")
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("algebra", help="Hilbert symbols and ramification")
    p.add_argument("--symbol", nargs=2, metavar=("A", "B"))
    p.add_argument("--prime", type=int, action="append")
    p.add_argument("--dihedral", type=int)
    p.add_argument("--clozel-poly")
    p.add_argument("--ram-prime", type=int, action="append")
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("order", help="trace identities and orders")
    p.add_argument("--poly", required=True)
    p.add_argument("--input", help="JSON file with matrices a, b")
    p.add_argument("--matrices", help="inline JSON with matrices a, b")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("orbifold", help="singular locus bounds")
    p.add_argument("--input", required=True)
    p.add_argument("--prime", type=int, default=2)
    p.add_argument("--phi")
    p.set_defaults(func=cmd_orbifold)

    p = sub.add_parser("graph", help="trivalent graph lemmas")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("tower", help="cover tower recurrence and bounds")
    p.add_argument("--n1", type=int)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--check", help="comma-separated n_i sequence")
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser("quotient", help="finite quotient surjectivity")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("cheeger", help="Cheeger constants")
    p.add_argument("--cycle", type=int)
    p.add_argument("--input")
    p.add_argument("--spectral", action="store_true")
    p.set_defaults(func=cmd_cheeger)

    p = sub.add_parser("count", help="SL(2, Z/m) subgroup census")
    p.add_argument("--modulus", type=int, required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="run the fixed example corpus")
    p.set_defaults(func=cmd_verify)

    for p in sub.choices.values():
        p.add_argument("--output")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except fpgroups.BudgetExceeded as exc:
        print(json.dumps({"error": "budget", "budget": exc.budget,
                          "limit": exc.limit, "reached": exc.reached,
                          "detail": str(exc)}), file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, ZeroDivisionError, OSError,
            json.JSONDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
