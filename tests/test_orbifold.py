import random

import pytest

from kll.fpgroups import NotSurjective, Presentation, RelatorNotKilled
from kll.orbifold import (LocusEdge, SingularLocus, OrbifoldData, stratify,
                          orbifold_presentation, homology_lower_bound,
                          presentation_deficit, theorem55_hypothesis,
                          find_theorem55_phi, involution_eigenspace_analysis,
                          EmptyLocus, NotInvolution, NotCommuting, SATISFIED,
                          NOT_SATISFIED)

from oracles import d_p_from_smith


def theta_locus(orders=(2, 2, 2)):
    return SingularLocus(("u", "v"), tuple(
        LocusEdge(f"e{i}", ("u", "v"), o) for i, o in enumerate(orders)))


def circle_locus(order=2, eid="c"):
    return SingularLocus(("w",), (LocusEdge(eid, ("w", "w"), order),))


def test_locus_validation():
    with pytest.raises(ValueError):
        # degree-1 vertex
        SingularLocus(("u", "v"), (LocusEdge("e", ("u", "v"), 2),))
    with pytest.raises(ValueError):
        LocusEdge("e", ("u", "v"), 1)  # order < 2


def test_stratify_theta_all_orders_2():
    strat = stratify(theta_locus(), 2)
    assert strat.b1 == 2
    assert len(strat.negative) == 1
    assert strat.negative[0].chi == -1
    assert not strat.zero and not strat.positive


def test_stratify_circle_order3_at_2_empty():
    assert stratify(circle_locus(order=3), 2).is_empty()


def test_stratify_arc_component():
    # orders (2,3,3): only one edge survives mod 2, an arc with chi = +1,
    # in neither the zero nor the negative part
    strat = stratify(theta_locus((2, 3, 3)), 2)
    assert len(strat.components) == 1
    assert strat.components[0].chi == 1
    assert strat.positive and not strat.zero and not strat.negative
    assert strat.b1 == 0


def test_stratify_theta_2_2_3_gives_circle():
    # the two order-2 edges of a theta graph close into a circle: chi = 0
    strat = stratify(theta_locus((2, 2, 3)), 2)
    assert len(strat.components) == 1
    assert strat.components[0].chi == 0
    assert strat.zero and not strat.positive
    assert strat.b1 == 1


def test_orbifold_presentation_circle():
    F2 = Presentation.free(2)
    data = OrbifoldData(F2, circle_locus(order=2), {"c": "a"}, cores={"c": "b"})
    pres = orbifold_presentation(data)
    assert pres.relators == ((1, 1),)


@pytest.mark.parametrize("words", [
    {"cores": {"c": (5,)}}, {"cores": {"c": (1, 0)}}, {"cores": {"c": "ac"}},
    {"meridians": {"c": (-3,)}}], ids=["core-5", "core-0", "core-c",
                                       "meridian-minus-3"])
def test_words_name_manifold_generators(words):
    # one check for meridians and cores: every letter is a generator of
    # the two-generator manifold (a core (5,) used to reach
    # find_theorem55_phi and die there with an IndexError)
    args = {"meridians": {"c": "a"}, "cores": {"c": "b"}} | words
    with pytest.raises(ValueError, match="uses unknown generators|is not a "
                                         "generator"):
        OrbifoldData(Presentation.free(2), circle_locus(order=2), **args)


def test_orbifold_presentation_empty_locus():
    F2 = Presentation.free(2)
    empty = SingularLocus((), ())
    data = OrbifoldData(F2, empty, {})
    assert orbifold_presentation(data) == F2


def test_homology_lower_bound_theta():
    # manifold group free of rank 2 (unknotted theta complement),
    # meridians chosen as the cycle-space duals
    F2 = Presentation.free(2)
    data = OrbifoldData(F2, theta_locus(), {"e0": "a", "e1": "b", "e2": "AB"})
    bound, actual, holds = homology_lower_bound(data, 2)
    assert bound == 2
    assert actual == 2
    assert holds


def test_homology_lower_bound_empty_stratum():
    F2 = Presentation.free(2)
    data = OrbifoldData(F2, circle_locus(order=3), {"c": "a"})
    bound, actual, holds = homology_lower_bound(data, 2)
    assert bound == 0 and holds


def _random_realizable_instance(rng):
    """Unknotted-graph model: manifold group free on the cycle space,
    meridian of edge e = product of the cycle generators whose
    fundamental cycle uses e.  Exact at the homology level, which is
    all that d_p sees."""
    kind = rng.choice(["theta", "circle", "two-circles", "theta+circle"])
    loci = []
    meridian_vectors = {}
    if kind in ("theta", "theta+circle"):
        orders = tuple(rng.choice([2, 3, 4, 6]) for _ in range(3))
        loci.append(("theta", orders))
    if kind in ("circle", "theta+circle"):
        loci.append(("circle", (rng.choice([2, 3, 4]),)))
    if kind == "two-circles":
        loci.append(("circle", (rng.choice([2, 3, 4]),)))
        loci.append(("circle", (rng.choice([2, 3, 4]),)))

    vertices = []
    edges = []
    meridians = {}
    gen_count = 0
    gen_names = []
    eid = 0
    for shape, orders in loci:
        if shape == "theta":
            u, v = f"u{eid}", f"v{eid}"
            vertices += [u, v]
            # cycle basis: e0-e1 and e1-e2; duals: e0 -> x, e1 -> x y^-1?
            # use standard unknotted theta: meridians a, b, (ab)^-1
            g1 = chr(ord("a") + gen_count)
            g2 = chr(ord("a") + gen_count + 1)
            gen_count += 2
            gen_names += [g1, g2]
            names = [f"e{eid}", f"e{eid + 1}", f"e{eid + 2}"]
            for name, o in zip(names, orders):
                edges.append(LocusEdge(name, (u, v), o))
            meridians[names[0]] = g1
            meridians[names[1]] = g2
            meridians[names[2]] = g1.upper() + g2.upper()
            eid += 3
        else:
            w = f"w{eid}"
            vertices.append(w)
            g1 = chr(ord("a") + gen_count)
            gen_count += 1
            gen_names.append(g1)
            name = f"e{eid}"
            edges.append(LocusEdge(name, (w, w), orders[0]))
            meridians[name] = g1
            eid += 1
    manifold = Presentation(tuple(gen_names), ())
    locus = SingularLocus(tuple(vertices), tuple(edges))
    return OrbifoldData(manifold, locus, meridians)


def test_homology_lower_bound_randomized_instances():
    rng = random.Random(97)
    for _ in range(200):
        data = _random_realizable_instance(rng)
        for p in (2, 3):
            bound, actual, holds = homology_lower_bound(data, p)
            assert holds, (data, p)
            # independent d_p via the Smith-form oracle
            pres = orbifold_presentation(data)
            oracle = d_p_from_smith(pres.abelianized_matrix(), pres.rank(), p)
            assert actual == oracle


def test_presentation_deficit_single_circle():
    # manifold deficit -1 (one generator, no relators) plus one meridian
    F1 = Presentation.free(1)
    data = OrbifoldData(F1, circle_locus(order=2), {"c": "a"})
    deficit, bound, holds = presentation_deficit(data)
    assert (deficit, bound, holds) == (0, 0, True)


def test_presentation_deficit_theta_counts_three_meridians():
    F2 = Presentation.free(2)
    data = OrbifoldData(F2, theta_locus(), {"e0": "a", "e1": "b", "e2": "AB"})
    deficit, bound, holds = presentation_deficit(data)
    # -3 chi(theta) = 3 meridian relators, manifold deficit -2
    assert deficit == 3 - 2
    assert bound == 2 * 2 - 2
    assert holds


def test_presentation_deficit_two_circles():
    F2 = Presentation.free(2)
    two = SingularLocus(("w1", "w2"), (LocusEdge("c1", ("w1", "w1"), 2),
                                       LocusEdge("c2", ("w2", "w2"), 2)))
    data = OrbifoldData(F2, two, {"c1": "a", "c2": "b"})
    deficit, bound, holds = presentation_deficit(data)
    assert bound == 2 * 2 - 2
    assert deficit == 2 - 2
    assert holds


def test_presentation_deficit_empty_locus():
    data = OrbifoldData(Presentation.free(1), SingularLocus((), ()), {})
    with pytest.raises(EmptyLocus):
        presentation_deficit(data)


def test_theorem55_satisfied_and_not():
    # three generators: meridian a (torsion), core b, spare c
    F3 = Presentation.free(3)
    data = OrbifoldData(F3, circle_locus(order=2), {"c": "a"}, cores={"c": "b"})
    res = theorem55_hypothesis(data, [0, 0, 1], 2)
    assert res.status == SATISFIED
    res = theorem55_hypothesis(data, [0, 1, 0], 2)
    assert res.status == NOT_SATISFIED
    with pytest.raises(RelatorNotKilled):
        theorem55_hypothesis(data, [1, 0, 0], 2)


@pytest.mark.parametrize("phi, error", [
    ([0, 1], ValueError), ([0, 0, 1, 5], ValueError),
    ([0, 0, 0], NotSurjective), ([0, 0, 2], NotSurjective)],
    ids=["short", "long", "zero", "not-onto"])
def test_theorem55_rejects_bad_phi(phi, error):
    # one exponent per generator, onto Z, as find_theorem55_phi requires
    F3 = Presentation.free(3)
    data = OrbifoldData(F3, circle_locus(order=2), {"c": "a"}, cores={"c": "b"})
    with pytest.raises(error):
        theorem55_hypothesis(data, phi, 2)


def test_theorem55_phi_search():
    F3 = Presentation.free(3)
    data = OrbifoldData(F3, circle_locus(order=2), {"c": "a"}, cores={"c": "b"})
    phi = find_theorem55_phi(data, 2)
    assert phi is not None
    assert theorem55_hypothesis(data, phi, 2).status == SATISFIED
    # b1 too small: meridian and core exhaust the homology
    F2 = Presentation.free(2)
    small = OrbifoldData(F2, circle_locus(order=2), {"c": "a"}, cores={"c": "b"})
    assert find_theorem55_phi(small, 2) is None


def test_eigenspace_analysis_diagonal():
    h1 = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    h2 = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    dims, holds = involution_eigenspace_analysis(h1, h2)
    assert dims == (1, 1, 2)
    assert holds


def test_eigenspace_analysis_identity():
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    dims, holds = involution_eigenspace_analysis(ident, ident)
    assert dims == (4, 4, 4)
    assert holds


def test_eigenspace_analysis_random_sign_patterns():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.choice([4, 5])
        s1 = [rng.choice([1, -1]) for _ in range(n)]
        s2 = [rng.choice([1, -1]) for _ in range(n)]
        h1 = [[s1[i] if i == j else 0 for j in range(n)] for i in range(n)]
        h2 = [[s2[i] if i == j else 0 for j in range(n)] for i in range(n)]
        dims, holds = involution_eigenspace_analysis(h1, h2)
        assert holds
        assert dims[0] == sum(1 for s in s1 if s == 1)
        assert dims[1] == sum(1 for s in s2 if s == 1)
        assert dims[2] == sum(1 for a, b in zip(s1, s2) if a * b == 1)


def test_eigenspace_analysis_conjugated_pair():
    # conjugate a diagonal pair by an integer unimodular matrix
    base = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    base2 = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    u = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1]]
    uinv = [[1, -1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, -1, 0, 1]]

    def conj(m):
        def mm(a, b):
            return [[sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)]
                    for i in range(4)]
        return mm(mm(u, m), uinv)

    dims, holds = involution_eigenspace_analysis(conj(base), conj(base2))
    assert dims == (1, 1, 2)
    assert holds


def test_eigenspace_analysis_errors():
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    shear = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(NotInvolution):
        involution_eigenspace_analysis(shear, ident)
    h1 = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    h2 = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    with pytest.raises(NotCommuting):
        involution_eigenspace_analysis(h1, h2)


def test_orbifold_json_roundtrip():
    obj = {
        "manifold": {"gens": ["a", "b"], "rels": []},
        "locus": {
            "vertices": ["u", "v"],
            "edges": [
                {"id": "e0", "ends": ["u", "v"], "order": 2, "meridian": "a"},
                {"id": "e1", "ends": ["u", "v"], "order": 2, "meridian": "b"},
                {"id": "e2", "ends": ["u", "v"], "order": 2, "meridian": "AB"},
            ],
        },
    }
    data = OrbifoldData.from_json(obj)
    assert len(data.locus.edges) == 3
    assert homology_lower_bound(data, 2)[2]
