"""Command-line front end.  Every subcommand reads/writes JSON with all
numeric values as exact rational strings ("2/3"); interval data appears
only in explicitly labeled {"lo": ..., "hi": ...} fields.  Output is
byte-identical across runs: keys are sorted and no floats are emitted.

Exit codes: 0 success, 2 precondition/validation error, 3 budget
exceeded.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from . import numfield, quatalg, traceorders, fpgroups, orbifold
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


def _parse_field(poly_str):
    coeffs = json.loads(poly_str)
    return numfield.NumberField(tuple(int(c) for c in coeffs))


def _require(obj, key, pointer, kind=None):
    """Fetch obj[key], reporting missing/mistyped fields by JSON pointer."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"missing field at {pointer}/{key}")
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise ValueError(f"wrong type at {pointer}/{key}: "
                         f"expected {kind.__name__}")
    return val


def _validate_orbifold(obj):
    manifold = _require(obj, "manifold", "", dict)
    _require(manifold, "gens", "/manifold", list)
    _require(manifold, "rels", "/manifold", list)
    locus = _require(obj, "locus", "", dict)
    edges = _require(locus, "edges", "/locus", list)
    for i, ed in enumerate(edges):
        ptr = f"/locus/edges/{i}"
        _require(ed, "id", ptr, str)
        _require(ed, "ends", ptr, list)
        _require(ed, "order", ptr, int)
        _require(ed, "meridian", ptr, str)


def _validate_graph(obj):
    v = _require(obj, "V", "", int)
    edges = _require(obj, "edges", "", list)
    for i, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2):
            raise ValueError(f"wrong shape at /edges/{i}: expected [u, v]")
        for j, u in enumerate(e):
            if type(u) is not int or not 0 <= u < v:  # JSON true is no vertex
                raise ValueError(f"bad vertex at /edges/{i}/{j}: expected "
                                 f"an integer in [0, {v})")


def _validate_quotient_job(obj):
    _require(obj, "primes", "", list)
    gens = _require(obj, "generators", "", list)
    for i, tup in enumerate(gens):
        if not isinstance(tup, list) or len(tup) != len(obj["primes"]):
            raise ValueError(f"wrong shape at /generators/{i}: need one "
                             "matrix per prime")


# ---------------------------------------------------------------------------
# Subcommand handlers

def cmd_field(args):
    field = _parse_field(args.poly)
    r1, r2 = numfield.signature(field)
    verdict, method = numfield.certify_irreducible(list(field.min_poly))
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
        report["dihedral"] = quatalg.dihedral_ramification_analysis(
            args.dihedral).to_json()
        report["tau_norm"] = str(quatalg.tau_n_norm(args.dihedral))
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
        rows.append([field.element([Fraction(str(c)) for c in entry])
                     if isinstance(entry, list) else Fraction(str(entry))
                     for entry in row])
    return traceorders.Mat2.from_rows(field, rows)


def cmd_order(args):
    field = _parse_field(args.poly)
    if not args.input and not args.matrices:
        raise ValueError("pass --input or --matrices")
    spec = json.loads(open(args.input).read()) if args.input else json.loads(args.matrices)
    a = _parse_matrix(field, spec["a"])
    b = _parse_matrix(field, spec["b"])
    report = {"trace_identities": traceorders.verify_trace_identities(a, b)}
    try:
        order = traceorders.build_order(a, b)
        disc = order.discriminant_generator()
        report["order"] = {
            "closed": True,
            "discriminant_generator": [_rat(c) for c in disc.coeffs],
        }
    except (traceorders.CommutingGenerators,
            traceorders.NonIntegralTraces) as exc:
        report["order"] = {"closed": False, "reason": str(exc)}
    try:
        tau = traceorders.jorgensen_involution(a, b)
        report["involution"] = {
            "exists": True,
            "matrix": tau.to_json(),
        }
    except (traceorders.CommonFixedPoint, traceorders.RelationFailure) as exc:
        report["involution"] = {"exists": False, "reason": str(exc)}
    _emit(report, args.output)
    return 0


def cmd_orbifold(args):
    obj = json.loads(open(args.input).read())
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
    obj = json.loads(open(args.input).read())
    _validate_graph(obj)
    g = trivalent.TrivalentGraph.from_json(obj)
    cyc = trivalent.short_cycle(g)
    sub = trivalent.b1_two_subgraph(g)
    report = {
        "V": g.num_vertices,
        "b1": g.b1(),
        "short_cycle": {
            "length": cyc.length,
            "bound": _enc(cyc.bound_lo, cyc.bound_hi),
            "holds": cyc.holds,
        },
        "b1_two_subgraph": {
            "edges": sub.num_edges,
            "bound": _enc(sub.bound_lo, sub.bound_hi),
            "holds": sub.holds,
            "strategy": sub.strategy,
        },
    }
    _emit(report, args.output)
    return 0


def cmd_tower(args):
    report = {}
    if args.check:
        seq = [int(x) for x in args.check.split(",")]
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
    spec = json.loads(open(args.input).read())
    _validate_quotient_job(spec)
    primes = spec["primes"]
    gens = [tuple(tuple(_flatten(m)) for m in gen_tuple)
            for gen_tuple in spec["generators"]]
    report = {"primes": primes}
    grp = finquot.ProductGroup(primes, projective=True)
    sub = grp.closure(gens)
    report["closure_order"] = len(sub)
    report["product_order"] = grp.order()
    report["surjective"] = len(sub) == grp.order()
    if "klein_four" in spec:
        kf = spec["klein_four"]
        a = tuple(tuple(_flatten(m)) for m in kf["a"])
        b = tuple(tuple(_flatten(m)) for m in kf["b"])
        rep = finquot.normalizer_quotient_order(primes, a, b)
        report["normalizer"] = {
            "subgroup_order": rep.subgroup_order,
            "witness_order": rep.witness_order,
            "quotient_order": rep.quotient_order,
            "bound": rep.bound,
            "holds": rep.holds,
            "exact": rep.exact,
        }
    _emit(report, args.output)
    return 0


def _flatten(m):
    return (m[0][0], m[0][1], m[1][0], m[1][1])


def cmd_cheeger(args):
    if args.cycle:
        g = taugraphs.CosetGraph.cycle(args.cycle)
    elif not args.input:
        raise ValueError("pass --cycle or --input")
    else:
        obj = json.loads(open(args.input).read())
        _validate_graph(obj)
        g = taugraphs.CosetGraph(obj["V"], tuple(tuple(e) for e in obj["edges"]))
    report = {"V": g.num_vertices}
    try:
        report["h"] = _rat(taugraphs.cheeger_exact(g))
    except taugraphs.TooLargeForExact:
        lo, hi = taugraphs.cheeger_spectral_bounds(g)
        report["h_bounds"] = _enc(lo, hi)
    if args.spectral:
        lo, hi = taugraphs.cheeger_spectral_bounds(g)
        report["spectral_bounds"] = _enc(lo, hi)
    _emit(report, args.output)
    return 0


def cmd_count(args):
    m = args.modulus
    table = counting.sl2_group_table(m)
    census = counting.subgroup_census(table)
    rank = counting.rank_bound_check(census)
    ess = counting.essential_subgroups(m, census)
    d2 = table.d2_quotient_rank()
    index2 = len(census.subgroups_of_index(2))
    report = {
        "modulus": m,
        "group_order": table.n,
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
# Fixed example corpus

def verify_paper_examples():
    """The worked examples reproduced end to end; one record each."""
    results = []

    def record(name, passed, detail):
        results.append({"name": name, "pass": bool(passed), "detail": detail})

    # quintic: signature, unique norm-121 prime, hypothesis violation
    k5 = numfield.NumberField((1, 0, -2, -1, 0, 1))
    sig = numfield.signature(k5)
    primes11 = numfield.split_prime(k5, 11)
    f2 = [p for p in primes11 if p.residue_degree == 2]
    clz = quatalg.clozel_hypothesis(k5, f2)
    record("quintic-signature", sig == (3, 1), {"signature": list(sig)})
    record("quintic-norm-121-prime", len(f2) == 1 and f2[0].norm == 121,
           {"primes": [[p.ramification_index, p.residue_degree] for p in primes11]})
    record("quintic-hypothesis-violated",
           clz.status == quatalg.VIOLATED and clz.witness.norm == 121,
           {"status": clz.status})

    # pretzel sextic: signature and discriminant
    k6 = numfield.NumberField((1, -1, -2, 2, -1, -1, 1))
    sig6 = numfield.signature(k6)
    disc = numfield.poly_discriminant(k6)
    quot = Fraction(disc, -104483)
    square_ok = quot.denominator == 1 and quot.numerator >= 0 and \
        numfield.polys.is_perfect_square(quot.numerator)
    record("sextic-signature", sig6 == (4, 1), {"signature": list(sig6)})
    record("sextic-discriminant", square_ok,
           {"poly_disc": str(disc), "quotient_by_-104483": str(quot)})

    # tau_n table
    tau4 = quatalg.tau_n(4).rational_value()
    record("tau-4", tau4 == -4, {"tau_4": str(tau4)})
    norm_table = {}
    tau_ok = True
    for n in (3, 4, 5, 7, 8, 9):
        nm = abs(quatalg.tau_n_norm(n))
        norm_table[str(n)] = str(nm)
        p = quatalg._prime_power(n)[0]
        while nm % p == 0:
            nm //= p
        tau_ok = tau_ok and nm == 1
    for n in (12, 15, 20):
        nm = abs(quatalg.tau_n_norm(n))
        norm_table[str(n)] = str(nm)
        tau_ok = tau_ok and nm == 1
    discrepancies = {str(n): str(abs(quatalg.tau_n_norm(n))) for n in (6, 10)
                     if abs(quatalg.tau_n_norm(n)) != 1}
    record("tau-norm-table", tau_ok,
           {"norms": norm_table, "norm_dichotomy_discrepancies": discrepancies})

    # Golod-Shafarevich chained threshold
    at81 = fpgroups.gs_chained_threshold(81)
    at80 = fpgroups.gs_chained_threshold(80)
    record("gs-threshold-81-80",
           at81.holds and at81.decided and (not at80.holds) and at80.decided,
           {"margin_81": _enc(at81.margin_lo, at81.margin_hi),
            "margin_80": _enc(at80.margin_lo, at80.margin_hi)})

    # tower recurrence bound
    tower = towers.tower_lower_bound(50, 10)
    record("tower-bound-n1-50", tower.all_hold(),
           {"inf_quotient": _rat(tower.inf_quotient)})

    # Hall surjectivity
    s5, t5 = (0, 4, 1, 0), (1, 1, 0, 1)
    s7, t7 = (0, 6, 1, 0), (1, 1, 0, 1)
    onto = finquot.product_surjectivity([5, 7], [(s5, s7), (t5, t7)])
    diag = finquot.product_surjectivity([5, 5], [(s5, s5), (t5, t5)])
    record("hall-product-5x7", onto and not diag,
           {"onto_5x7": onto, "diagonal_5x5_proper": not diag})

    # free product of four Z/2: index-2 kernel free of rank 3
    star = fpgroups.Presentation.from_strings(
        ["a", "b", "c", "d"], ["aa", "bb", "cc", "dd"])
    tbl = fpgroups.SubgroupTable(star, ((1, 0),) * 4)
    ker = fpgroups.reidemeister_schreier(tbl).simplified()
    record("free-product-kernel-rank-3",
           ker.rank() == 3 and not ker.relators,
           {"rank": ker.rank(), "relators": len(ker.relators)})

    # SL(2, 11): minimal proper index q, the exceptional case, from 2.A5
    census = counting.subgroup_census(counting.sl2_group_table(11))
    ess = counting.essential_subgroups(11, census)
    record("sl2-11-census", census.count == 766 and ess.minimal_index == 11,
           {"subgroups": census.count, "minimal_index": ess.minimal_index})

    return results


def cmd_verify(args):
    results = verify_paper_examples()
    report = {"examples": results, "all_pass": all(r["pass"] for r in results)}
    _emit(report, args.output)
    return 0 if report["all_pass"] else 1


# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="kll",
        description=("Exact checks: number-field splitting, quaternion "
                     "ramification, trace orders, orbifold homology bounds, "
                     "trivalent-graph lemmas, cover towers, finite quotients, "
                     "Cheeger constants, subgroup counting"))
    ap.add_argument("--budget", type=int, default=None,
                    help="override enumeration budgets (also: KLL_BUDGET)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="number field arithmetic")
    p.add_argument("--poly", required=True,
                   help="integer coefficients, constant term first, e.g. "
                        "[1,0,-2,-1,0,1]")
    p.add_argument("--prime", type=int, action="append")
    p.add_argument("--output")
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("algebra", help="Hilbert symbols and ramification")
    p.add_argument("--symbol", nargs=2, metavar=("A", "B"))
    p.add_argument("--prime", type=int, action="append")
    p.add_argument("--dihedral", type=int)
    p.add_argument("--clozel-poly")
    p.add_argument("--ram-prime", type=int, action="append")
    p.add_argument("--output")
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("order", help="trace identities and orders")
    p.add_argument("--poly", required=True)
    p.add_argument("--input", help="JSON file with matrices a, b")
    p.add_argument("--matrices", help="inline JSON with matrices a, b")
    p.add_argument("--output")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("orbifold", help="singular locus bounds")
    p.add_argument("--input", required=True)
    p.add_argument("--prime", type=int, default=2)
    p.add_argument("--phi")
    p.add_argument("--output")
    p.set_defaults(func=cmd_orbifold)

    p = sub.add_parser("graph", help="trivalent graph lemmas")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("tower", help="cover tower recurrence and bounds")
    p.add_argument("--n1", type=int)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--check", help="comma-separated n_i sequence")
    p.add_argument("--output")
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser("quotient", help="finite quotient surjectivity")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("cheeger", help="Cheeger constants")
    p.add_argument("--cycle", type=int)
    p.add_argument("--input")
    p.add_argument("--spectral", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_cheeger)

    p = sub.add_parser("count", help="SL(2, Z/m) subgroup census")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="run the fixed example corpus")
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.budget is not None:
        # the caller's value comes back in the finally below
        saved = os.environ.pop("KLL_BUDGET", None)
        os.environ["KLL_BUDGET"] = str(args.budget)
    try:
        return args.func(args)
    except fpgroups.BudgetExceeded as exc:
        print(json.dumps({"error": "budget", "detail": str(exc)}), file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, ZeroDivisionError, OSError,
            json.JSONDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 2
    finally:
        if args.budget is not None:
            if saved is None:
                os.environ.pop("KLL_BUDGET", None)
            else:
                os.environ["KLL_BUDGET"] = saved


if __name__ == "__main__":
    sys.exit(main())
