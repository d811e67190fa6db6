import random
from fractions import Fraction

import pytest

from kll import linalg
from kll.linalg import rref
from kll.numfield import FieldElement, NumberField
from kll.traceorders import (Mat2, verify_trace_identities, build_order,
                             jorgensen_involution, klein_four_relations,
                             proportional,
                             NonUnimodular, CommutingGenerators,
                             NonIntegralTraces, CommonFixedPoint,
                             RelationFailure)

Q = NumberField((0, 1))
QSQRT2M = NumberField((2, 0, 1))   # Q(sqrt(-2))
CUBIC = NumberField((-1, -1, 0, 1))  # x^3 - x - 1


def _solve_in_basis(basis, m):
    """Coordinates of m in the k-span of the basis (4x4 system over k)."""
    cols = [bm.flat() for bm in basis]
    aug = [[col[i] for col in cols] + [x] for i, x in enumerate(m.flat())]
    mat, pivots = rref(aug, 4)
    if len(pivots) < 4:
        return None
    return [row[4] for row in mat]


def _rand_unimodular(field, rng, length=4):
    """Product of elementary matrices; determinant 1, integral entries."""
    m = Mat2.identity(field)
    for _ in range(length):
        x = field.element([rng.randint(-2, 2), rng.randint(-1, 1)][:field.degree])
        if rng.random() < 0.5:
            e = Mat2.from_rows(field, [[1, x], [0, 1]])
        else:
            e = Mat2.from_rows(field, [[1, 0], [x, 1]])
        m = m * e
    return m


def test_identities_shear_pair():
    a = Mat2.from_rows(Q, [[1, 1], [0, 1]])
    b = Mat2.from_rows(Q, [[1, 0], [1, 1]])
    assert verify_trace_identities(a, b)


def test_identities_identity_degenerate():
    a = Mat2.identity(Q)
    b = Mat2.from_rows(Q, [[2, 1], [3, 2]])
    assert verify_trace_identities(a, b)


def test_identities_random_over_q_and_qsqrt2():
    rng = random.Random(61)
    for field in (Q, QSQRT2M):
        for _ in range(50):
            a = _rand_unimodular(field, rng)
            b = _rand_unimodular(field, rng)
            assert verify_trace_identities(a, b)


def test_identities_reject_nonunimodular():
    a = Mat2.from_rows(Q, [[2, 0], [0, 1]])
    b = Mat2.identity(Q)
    with pytest.raises(NonUnimodular):
        verify_trace_identities(a, b)


def test_identities_make_no_field_inversion(monkeypatch):
    # a^-1 and b^-1 are adjugates: no FieldElement.inverse, over any field
    def no_inverse(self):
        raise AssertionError("verify_trace_identities inverted a field element")

    monkeypatch.setattr(FieldElement, "inverse", no_inverse)
    rng = random.Random(89)
    for field in (Q, QSQRT2M, CUBIC):
        for _ in range(5):
            a = _rand_unimodular(field, rng)
            b = _rand_unimodular(field, rng)
            assert verify_trace_identities(a, b)


def test_build_order_shear_pair():
    a = Mat2.from_rows(Q, [[1, 1], [0, 1]])
    b = Mat2.from_rows(Q, [[1, 0], [1, 1]])
    order = build_order(a, b)
    for coords in order.structure_constants.values():
        for c in coords:
            assert c.is_integral()
    # b^-1 a^-1 has integral coordinates in the basis
    coords = _solve_in_basis(order.basis, b.inverse() * a.inverse())
    assert coords is not None and all(c.is_integral() for c in coords)
    assert order.discriminant.rational_value() == 1  # tr[a,b] = 3


def test_build_order_rejects_commuting():
    a = Mat2.from_rows(Q, [[1, 1], [0, 1]])
    with pytest.raises(CommutingGenerators):
        build_order(a, a)


def test_build_order_rejects_nonintegral_traces():
    a = Mat2.from_rows(Q, [[Fraction(1, 2), 1], [Fraction(-1, 2), 1]])
    assert (a.det() - Q.one()).is_zero()
    assert a.trace().coeffs[0] == Fraction(3, 2)
    b = Mat2.from_rows(Q, [[1, 0], [1, 1]])
    with pytest.raises(NonIntegralTraces):
        build_order(a, b)


def test_build_order_random_closure_integral():
    rng = random.Random(67)
    for field in (Q, QSQRT2M):
        built = 0
        while built < 25:
            a = _rand_unimodular(field, rng)
            b = _rand_unimodular(field, rng)
            if (a * b - b * a).is_zero():
                continue
            order = build_order(a, b)
            for coords in order.structure_constants.values():
                assert all(c.is_integral() for c in coords)
            built += 1


def _noncommuting_pairs(rng, count):
    for field in (Q, QSQRT2M, CUBIC):
        built = 0
        while built < count:
            a = _rand_unimodular(field, rng)
            b = _rand_unimodular(field, rng)
            if (a * b - b * a).is_zero():
                continue
            built += 1
            yield a, b


def test_structure_constants_match_linear_solve():
    # the Cayley-Hamilton table against solving basis_i basis_j = sum c_k basis_k
    for a, b in _noncommuting_pairs(random.Random(73), 10):
        order = build_order(a, b)
        for (i, j), coords in order.structure_constants.items():
            want = _solve_in_basis(order.basis, order.basis[i] * order.basis[j])
            assert coords == want, (i, j)


def test_fricke_discriminant_matches_commutator_trace():
    for a, b in _noncommuting_pairs(random.Random(79), 10):
        comm = a * b * a.inverse() * b.inverse()
        assert build_order(a, b).discriminant == comm.trace() - 2


def test_order_discriminant_rejects_nonunimodular():
    a = Mat2.from_rows(Q, [[2, 0], [0, 1]])
    with pytest.raises(NonUnimodular):
        build_order(a, Mat2.identity(Q))


def test_build_order_rejects_common_fixed_point():
    # non-commuting upper-triangular pair over Q(sqrt 2): tr[a, b] = 2
    k = NumberField((-2, 0, 1))
    u = k.element([1, 1])  # 1 + sqrt 2, a unit
    a = Mat2.from_rows(k, [[u, 0], [0, u.inverse()]])
    b = Mat2.from_rows(k, [[1, 1], [0, 1]])
    with pytest.raises(CommutingGenerators, match="basis does not span"):
        build_order(a, b)


def test_build_order_uses_identities_not_solves(monkeypatch):
    calls = []
    original = FieldElement.is_integral

    def counted(self):
        calls.append(self)
        return original(self)

    def no_solve(*args):
        raise AssertionError("build_order solved a linear system")

    monkeypatch.setattr(FieldElement, "is_integral", counted)
    monkeypatch.setattr(linalg, "rref", no_solve)
    for a, b in _noncommuting_pairs(random.Random(83), 3):
        calls.clear()
        build_order(a, b)
        assert len(calls) == 3


def test_discriminant_vanishes_iff_commuting():
    a = Mat2.from_rows(Q, [[2, 1], [1, 1]])
    b = Mat2.from_rows(Q, [[1, 1], [1, 2]])
    d = (a * b * a.inverse() * b.inverse()).trace() - Q.element([2])
    assert not d.is_zero()
    # commuting pair: powers of a
    c = a * a
    d2 = (a * c * a.inverse() * c.inverse()).trace() - Q.element([2])
    assert d2.is_zero()


def test_jorgensen_shear_pair():
    a = Mat2.from_rows(Q, [[1, 1], [0, 1]])
    b = Mat2.from_rows(Q, [[1, 0], [1, 1]])
    tau = jorgensen_involution(a, b)
    assert tau == Mat2.from_rows(Q, [[1, 0], [0, -1]])
    assert tau.trace().is_zero()


def test_jorgensen_rejects_commuting():
    a = Mat2.from_rows(Q, [[1, 1], [0, 1]])
    with pytest.raises(CommonFixedPoint):
        jorgensen_involution(a, a * a)


def test_jorgensen_random_certificates():
    rng = random.Random(71)
    for field in (Q, QSQRT2M):
        built = 0
        while built < 25:
            a = _rand_unimodular(field, rng)
            b = _rand_unimodular(field, rng)
            tau = a * b - b * a
            if tau.det().is_zero():
                continue
            tau = jorgensen_involution(a, b)  # raises if any property fails
            assert tau.trace().is_zero()
            assert (tau * tau).is_scalar()
            built += 1


def test_klein_four_synthetic_configuration():
    # a diagonal, alpha = rotation-form matrix fixed by tau1 and inverted
    # by tau2; tau1 antidiagonal, tau2 = diag(1, -1)
    a = Mat2.from_rows(Q, [[2, 0], [0, Fraction(1, 2)]])
    alpha = Mat2.from_rows(Q, [[Fraction(3, 5), Fraction(4, 5)],
                               [Fraction(-4, 5), Fraction(3, 5)]])
    tau1 = Mat2.from_rows(Q, [[0, 1], [-1, 0]])
    tau2 = Mat2.from_rows(Q, [[1, 0], [0, -1]])
    assert klein_four_relations(a, alpha, tau1, tau2)


def test_klein_four_equal_involutions_rejected():
    a = Mat2.from_rows(Q, [[2, 0], [0, Fraction(1, 2)]])
    alpha = Mat2.from_rows(Q, [[Fraction(3, 5), Fraction(4, 5)],
                               [Fraction(-4, 5), Fraction(3, 5)]])
    tau1 = Mat2.from_rows(Q, [[0, 1], [-1, 0]])
    # tau1 = tau2 satisfies none of the mixed relations
    with pytest.raises(RelationFailure):
        klein_four_relations(a, alpha, tau1, tau1)


def test_klein_four_nonscalar_square_rejected():
    a = Mat2.from_rows(Q, [[2, 0], [0, Fraction(1, 2)]])
    alpha = Mat2.from_rows(Q, [[1, 1], [0, 1]])
    bad = Mat2.from_rows(Q, [[1, 1], [0, 1]])
    tau2 = Mat2.from_rows(Q, [[1, 0], [0, -1]])
    with pytest.raises(RelationFailure):
        klein_four_relations(a, alpha, bad, tau2)


def test_proportional_is_projective_equality():
    m = Mat2.from_rows(Q, [[1, 2], [3, 4]])
    assert proportional(m, Mat2.combination(Q, [Q.element([-7])], [m]))
    assert not proportional(m, Mat2.identity(Q))
