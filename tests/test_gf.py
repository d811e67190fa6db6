import pytest

from kll.gf import GF, ModRing


def test_prime_field_ops():
    f = ModRing(7)
    assert f.q == 7
    assert f.add(3, 5) == 1
    assert f.mul(3, 5) == 1
    assert f.neg(2) == 5


def test_extension_field_f9():
    # F_9 = F_3[t]/(t^2 + 1)
    f = GF(3, [1, 0, 1])
    assert f.q == 9
    t = f.encode([0, 1])
    t2 = f.mul(t, t)
    assert t2 == f.encode([2])  # t^2 = -1
    # multiplicative order of t is 4
    assert f.mul(t2, t2) == f.one
    assert t2 != f.one
    # every nonzero element has an inverse
    for a in range(1, 9):
        assert any(f.mul(a, b) == f.one for b in range(1, 9))


def test_extension_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        GF(3, [2, 0, 1])  # t^2 - 1 = (t-1)(t+1)


def test_f4():
    f = GF(2, [1, 1, 1])  # t^2 + t + 1
    assert f.q == 4
    t = f.encode([0, 1])
    assert f.mul(t, t) == f.add(t, f.one)  # t^2 = t + 1
    assert f.mul(f.mul(t, t), t) == f.one
