import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from kll import linalg, traceorders
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
    with pytest.raises(NonIntegralTraces, match=re.escape(
            "trace [3/2] is not an algebraic integer")):
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
    zero = Mat2.from_rows(Q, [[0, 0], [0, 0]])
    assert proportional(zero, zero)
    assert not proportional(zero, m) and not proportional(m, zero)


def test_entries_are_combination_plus_products():
    rng = random.Random(101)
    for field in (Q, QSQRT2M, CUBIC):
        w, x, y, z = (_rand_unimodular(field, rng) for _ in range(4))
        c, d = (field.element([rng.randint(-3, 3), 1][:field.degree])
                for _ in range(2))
        one = field.one()
        want = Mat2.combination(field, [c, d, one, one], [w, x, y * z, z * w])
        got = traceorders._entries(field, [(c, w), (d, x)], [(y, z), (z, w)])
        assert list(got) == want.flat()


def _flip(x):
    """A wrong value in the same field: 1 for 0 and 0 otherwise, so a
    faulty dot fails a nonzero test as surely as an equality."""
    return x.field.one() if x.is_zero() else x.field.zero()


def _faulty_runs(monkeypatch, call):
    """(outcome, dots that decided a relation fails, one outcome per
    dot): `call()` once as it is, then once per `dot` traceorders makes
    in it with that dot's result flipped.  An outcome is the value
    returned or the exception raised.  A dot decides that a relation
    fails when it is made in a `proportional` that returns False or in
    an `_entries` check left at a nonzero entry."""
    real_dot, real_entries, real_proportional = (
        traceorders.dot, traceorders._entries, traceorders.proportional)
    state = {"n": 0, "flip": None}
    failing = set()

    def dot(k, pairs):
        state["n"] += 1
        x = real_dot(k, pairs)
        return _flip(x) if state["n"] == state["flip"] else x

    def entries(*args):
        start, done = state["n"], []
        try:
            yield from real_entries(*args)
            done.append(True)
        finally:
            if not done:
                failing.update(range(start + 1, state["n"] + 1))

    def proportional(m1, m2):
        start = state["n"]
        holds = real_proportional(m1, m2)
        if not holds:
            failing.update(range(start + 1, state["n"] + 1))
        return holds

    def run():
        state["n"] = 0
        try:
            return call()
        except (ValueError, ArithmeticError) as exc:
            return exc

    with monkeypatch.context() as patch:
        patch.setattr(traceorders, "dot", dot)
        patch.setattr(traceorders, "_entries", entries)
        patch.setattr(traceorders, "proportional", proportional)
        clean = run()
        made, decided_fails = state["n"], set(failing)
        outcomes = []
        for k in range(1, made + 1):
            state["flip"] = k
            outcomes.append(run())
    return clean, decided_fails, outcomes


def _assert_faults_show(monkeypatch, call):
    """Every flipped dot makes `call` raise or return False, unless it
    only decided that a relation fails (a and b do not commute, tau1
    and tau2 are not proportional) and the outcome is unchanged."""
    clean, decided_fails, outcomes = _faulty_runs(monkeypatch, call)
    assert not isinstance(clean, Exception) and clean is not False
    shown = 0
    for k, outcome in enumerate(outcomes, 1):
        if isinstance(outcome, Exception) or outcome is False:
            shown += 1
        else:
            assert k in decided_fails and outcome == clean, k
    assert shown >= len(outcomes) - len(decided_fails) > 0
    return decided_fails


def _order_pairs():
    """Pairs over Q, Q(sqrt -2) and the cubic field with an order and an
    involution."""
    rng, pairs = random.Random(97), []
    for a, b in _noncommuting_pairs(rng, 4):
        try:
            build_order(a, b)
            jorgensen_involution(a, b)
        except (CommutingGenerators, CommonFixedPoint):
            continue
        pairs.append((a, b))
    return pairs


def test_faulty_dot_fails_trace_identities(monkeypatch):
    for a, b in _order_pairs():
        # no relation of the six fails, so every flipped dot shows
        assert not _assert_faults_show(
            monkeypatch, lambda: verify_trace_identities(a, b))


def test_faulty_dot_fails_build_order(monkeypatch):
    for a, b in _order_pairs():
        _assert_faults_show(monkeypatch, lambda: build_order(a, b))


def test_faulty_dot_fails_jorgensen(monkeypatch):
    for a, b in _order_pairs():
        _assert_faults_show(monkeypatch, lambda: jorgensen_involution(a, b))


def test_faulty_dot_fails_klein_four(monkeypatch):
    a = Mat2.from_rows(Q, [[2, 0], [0, Fraction(1, 2)]])
    alpha = Mat2.from_rows(Q, [[Fraction(3, 5), Fraction(4, 5)],
                               [Fraction(-4, 5), Fraction(3, 5)]])
    tau1 = Mat2.from_rows(Q, [[0, 1], [-1, 0]])
    tau2 = Mat2.from_rows(Q, [[1, 0], [0, -1]])
    _assert_faults_show(monkeypatch,
                        lambda: klein_four_relations(a, alpha, tau1, tau2))


ZERO_DIVISORS = NumberField((-1, 0, 1))  # x^2 - 1: 1 + x and 1 - x


def _zero_divisor_outcomes(count, seed):
    """What `jorgensen_involution` and `klein_four_relations` give on
    random matrices over Q[x]/(x^2 - 1), the klein tau1, tau2 of trace
    zero: tau as JSON, a verdict, or the exception's type and message."""
    rng = random.Random(seed)

    def element():
        return [rng.choice([-1, 0, 0, 1, 1, 2]), rng.choice([-1, 0, 0, 1])]

    def matrix():
        return Mat2.from_rows(ZERO_DIVISORS, [[element(), element()],
                                              [element(), element()]])

    def trace_zero():
        p, q, r = element(), element(), element()
        return Mat2.from_rows(ZERO_DIVISORS, [[p, q], [r, [-c for c in p]]])

    def outcome(f, *mats):
        try:
            got = f(*mats)
        except (ZeroDivisionError, ValueError) as exc:
            return [type(exc).__name__, str(exc)]
        return got.to_json() if isinstance(got, Mat2) else got

    out = []
    for _ in range(count):
        out.append(outcome(jorgensen_involution, matrix(), matrix()))
        out.append(outcome(klein_four_relations, matrix(), matrix(),
                           trace_zero(), trace_zero()))
    return out


def test_zero_divisor_exits_unchanged():
    # adjugates in place of Mat2.inverse raise where it raised: sha256 of
    # the outcomes as captured when both functions called Mat2.inverse
    out = _zero_divisor_outcomes(400, 5)
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == \
        "2d1f46554402a0597a6726bbe6160d4f82740bd6ebc4037e6f44c1192c409d04"
    kinds = {tuple(x) for x in out if isinstance(x, list) and x[0] in
             ("ZeroDivisionError", "CommonFixedPoint")}
    assert kinds == {("ZeroDivisionError", "inverse of zero or of a zero divisor"),
                     ("ZeroDivisionError", "singular matrix"),
                     ("CommonFixedPoint", "ab - ba is singular")}
    assert any(x is True or isinstance(x, list) and isinstance(x[0], list)
               for x in out)  # and some inputs pass
