"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime and asserting the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from fractions import Fraction

from kll.cli import EXAMPLES
from kll.numfield import NumberField
from kll.traceorders import (Mat2, verify_trace_identities, build_order,
                             jorgensen_involution)
from kll.fpgroups import Presentation
from kll.orbifold import OrbifoldData, orbifold_presentation, homology_lower_bound
from kll.trivalent import (generate_connected_trivalent, short_cycle,
                           b1_two_subgraph, _subgraph_b1)
from kll.finquot import normalizer_quotient_order
from kll.taugraphs import (CosetGraph, cheeger_exact, cheeger_spectral_bounds,
                           tau_family_report)
from kll.counting import (sl2_group_table, subgroup_census, rank_bound_check,
                          essential_subgroups)

from oracles import d_p_from_smith
from test_orbifold import _random_realizable_instance, theta_locus


def _report(num, name, started, budget):
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {num}: PASS {name} ({elapsed:.2f}s < {budget}s)")


def _assert_examples(*names):
    """Run the named `kll verify` examples; each must pass."""
    for name in names:
        passed, detail = dict(EXAMPLES)[name]()
        assert passed, f"{name}: {detail}"


def test_criterion_01_quintic():
    t0 = time.time()
    _assert_examples("quintic-signature", "quintic-norm-121-prime",
                     "quintic-hypothesis-violated")
    _report(1, "quintic field example", t0, 1.0)


def test_criterion_02_pretzel_sextic():
    t0 = time.time()
    _assert_examples("sextic-signature", "sextic-discriminant")
    _report(2, "pretzel sextic signature and discriminant", t0, 1.0)


def test_criterion_03_tau_table():
    t0 = time.time()
    _assert_examples("tau-4", "tau-norm-table")
    _report(3, "tau_n norm table with n=6,10 discrepancies", t0, 5.0)


def test_criterion_04_gs_threshold():
    t0 = time.time()
    _assert_examples("gs-threshold-81-80")
    _report(4, "Golod-Shafarevich margin positive at 81, not at 80", t0, 1.0)


def test_criterion_05_tower_bound():
    t0 = time.time()
    _assert_examples("tower-bound-n1-50")
    _report(5, "tower recurrence bound to depth 30 + auxiliary inequality",
            t0, 1.0)


def test_criterion_06_trivalent_exhaustive():
    t0 = time.time()
    gen = generate_connected_trivalent(12)
    counts = {k: len(v) for k, v in gen.items()}
    assert counts == {2: 2, 4: 5, 6: 17, 8: 71, 10: 388, 12: 2592}
    checked = 0
    for graphs in gen.values():
        for g in graphs:
            assert short_cycle(g).holds
            rep = b1_two_subgraph(g)
            assert rep.holds
            assert _subgraph_b1(rep.edge_indices, g) == 2
            checked += 1
    assert checked == 3075
    _report(6, f"girth and b1=2 subgraph bounds on all {checked} "
            "trivalent multigraphs V<=12", t0, 600.0)


def test_criterion_07_hall_surjectivity():
    t0 = time.time()
    _assert_examples("hall-product-5x7")
    _report(7, "product surjectivity 10080 onto, diagonal proper", t0, 30.0)


def test_criterion_08_normalizer_bound():
    t0 = time.time()
    a = ((0, 4, 1, 0), (0, 6, 1, 0))
    b = ((2, 0, 0, 3), (2, 3, 3, 5))
    rep = normalizer_quotient_order([5, 7], a, b)
    assert rep.exact
    assert rep.witness_order == 2 ** 4
    assert rep.quotient_order >= 4
    assert rep.holds
    _report(8, "Klein-four normalizer bound in PSL(2,5) x PSL(2,7)", t0, 60.0)


def test_criterion_09_homology_bound_suite():
    t0 = time.time()
    F2 = Presentation.free(2)
    corpus = [
        OrbifoldData(F2, theta_locus(), {"e0": "a", "e1": "b", "e2": "AB"}),
        OrbifoldData(F2, theta_locus((2, 2, 3)), {"e0": "a", "e1": "b", "e2": "AB"}),
        OrbifoldData(F2, theta_locus((2, 3, 3)), {"e0": "a", "e1": "b", "e2": "AB"}),
    ]
    rng = random.Random(1009)
    instances = corpus + [_random_realizable_instance(rng) for _ in range(200)]
    for data in instances:
        for p in (2, 3):
            bound, actual, holds = homology_lower_bound(data, p)
            assert holds
            pres = orbifold_presentation(data)
            assert actual == d_p_from_smith(
                pres.abelianized_matrix(), pres.rank(), p)
    _report(9, f"homology lower bound on {len(instances)} instances, "
            "elimination vs Smith oracle", t0, 120.0)


def test_criterion_10_cheeger_suite():
    t0 = time.time()
    for n in range(3, 25):
        assert cheeger_exact(CosetGraph.cycle(n)) == Fraction(2, n // 2)
    corpus = [CosetGraph.cycle(n) for n in range(3, 21)]
    corpus += [CosetGraph.complete(4), CosetGraph.complete(6)]
    k4_doubled = CosetGraph(4, CosetGraph.complete(4).edges * 2)
    corpus.append(k4_doubled)
    for g in corpus:
        h = cheeger_exact(g)
        lo, hi = cheeger_spectral_bounds(g)
        assert lo <= h <= hi
    fam = tau_family_report([CosetGraph.cycle(n) for n in range(4, 25, 2)])
    assert fam.verdict == "h -> 0 trend"
    _report(10, "cycle formula, spectral sandwich, h->0 family trend",
            t0, 300.0)


def test_criterion_11_counting_suite():
    t0 = time.time()
    censuses = {}
    for m in (2, 3, 4, 5):
        censuses[m] = subgroup_census(sl2_group_table(m))
    assert censuses[2].count == 6
    for m in (3, 4, 5):
        assert rank_bound_check(censuses[m]).holds
    # smallest in-budget non-exceptional q is 13: minimal proper index q+1
    c13 = subgroup_census(sl2_group_table(13))
    rep13 = essential_subgroups(13, c13)
    assert rep13.minimal_index == 14 and not rep13.exceptional
    for q in (5, 7):
        cq = censuses.get(q) or subgroup_census(sl2_group_table(q))
        repq = essential_subgroups(q, cq)
        assert repq.exceptional
        assert repq.minimal_index == q  # below q+1, the classical exceptions
    for m, census in censuses.items():
        idx2 = len(census.subgroups_of_index(2))
        assert idx2 == 2 ** census.table.d2_quotient_rank() - 1
    _assert_examples("free-product-kernel-rank-3")
    _report(11, "censuses, rank bounds, essential indices, free kernel",
            t0, 600.0)


def test_criterion_12_trace_order_suite():
    t0 = time.time()
    fields = [NumberField((0, 1)), NumberField((2, 0, 1))]
    rng = random.Random(2027)

    def rand_unimodular(field):
        m = Mat2.identity(field)
        for _ in range(4):
            coeffs = [rng.randint(-2, 2) for _ in range(field.degree)]
            x = field.element(coeffs)
            if rng.random() < 0.5:
                m = m * Mat2.from_rows(field, [[1, x], [0, 1]])
            else:
                m = m * Mat2.from_rows(field, [[1, 0], [x, 1]])
        return m

    for field in fields:
        done = 0
        while done < 50:
            a = rand_unimodular(field)
            b = rand_unimodular(field)
            assert verify_trace_identities(a, b)
            if (a * b - b * a).is_zero():
                continue
            order = build_order(a, b)
            for coords in order.structure_constants.values():
                assert all(c.is_integral() for c in coords)
            tau = a * b - b * a
            if not tau.det().is_zero():
                tau = jorgensen_involution(a, b)
                assert tau.trace().is_zero()
                assert (tau * tau).is_scalar()
            done += 1
    _report(12, "trace identities, order closure, involution certificates "
            "on 100 random pairs", t0, 120.0)
