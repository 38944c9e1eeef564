"""Quaternion algebra against an independent four-real-component oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.quaternion_reference import I, J, K, ONE, Quaternion


def hamilton_components(p, q):
    """Textbook Hamilton product on (a, b, c, d) tuples, ij = +k."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def close(q1: Quaternion, q2: Quaternion, tol=1e-14) -> bool:
    return abs(q1.z - q2.z) <= tol and abs(q1.w - q2.w) <= tol


finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
quaternions = st.builds(Quaternion.from_components, finite, finite, finite, finite)


def test_unit_table():
    assert I * I == -ONE
    assert J * J == -ONE
    assert K * K == -ONE
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert I * J * K == -ONE


def test_component_mapping_roundtrip():
    q = Quaternion.from_components(1.0, -2.0, 3.0, 4.5)
    assert q.as_components() == (1.0, -2.0, 3.0, 4.5)
    assert I.as_components() == (0.0, 1.0, 0.0, 0.0)
    assert J.as_components() == (0.0, 0.0, 1.0, 0.0)
    assert K.as_components() == (0.0, 0.0, 0.0, 1.0)


def test_one_plus_j_times_one_minus_j():
    # (1 + j)(1 - j) = 1 - j*j = 2
    prod = Quaternion(1.0, 1.0) * Quaternion(1.0, -1.0)
    assert prod == Quaternion(2.0, 0.0)


def test_conjugate_and_norm_values():
    assert I.conjugate() == -I
    assert J.conjugate() == -J
    assert Quaternion(3.0, 4.0).norm() == pytest.approx(5.0)  # 3 + 4j


def test_product_matches_component_oracle_and_associates():
    rng = np.random.default_rng(91)
    for _ in range(1000):
        t1, t2, t3 = (tuple(rng.uniform(-1.0, 1.0, size=4)) for _ in range(3))
        q1, q2, q3 = (Quaternion.from_components(*t) for t in (t1, t2, t3))
        # agreement with the 4-component oracle
        oracle = Quaternion.from_components(*hamilton_components(t1, t2))
        assert close(q1 * q2, oracle, tol=1e-15)
        # associativity
        assert close((q1 * q2) * q3, q1 * (q2 * q3), tol=1e-14)


@given(quaternions, quaternions)
@settings(max_examples=200, deadline=None)
def test_norm_multiplicative(q1, q2):
    assert (q1 * q2).norm() == pytest.approx(q1.norm() * q2.norm(), abs=1e-12)


@given(quaternions)
@settings(max_examples=200, deadline=None)
def test_conjugate_norm_identity(q):
    # conj(q) * q is the real scalar |q|**2
    prod = q.conjugate() * q
    assert prod.z.imag == pytest.approx(0.0, abs=1e-15)
    assert abs(prod.w) == pytest.approx(0.0, abs=1e-15)
    assert prod.z.real == pytest.approx(q.norm() ** 2, abs=1e-12)
    assert (q * q).norm() == pytest.approx(q.norm() ** 2, abs=1e-12)


@given(st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_symplectic_commutation(z):
    # j * z == conj(z) * j for every complex z
    assert close(J * Quaternion(z), Quaternion(z.conjugate()) * J, tol=1e-13)


@given(st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_left_multiplication_by_i_splits(z, w):
    # i * (z + j*w) = i*z + j*(-i*w): the rule behind the two-equation split
    out = I * Quaternion(z, w)
    assert close(out, Quaternion(1j * z, -1j * w), tol=1e-13)


def test_scalar_promotion_and_noncommutativity():
    q = Quaternion(0.5 + 0.25j, -1.0 + 2.0j)
    assert close(2 * q, Quaternion(1.0 + 0.5j, -2.0 + 4.0j))
    left = 1j * q  # complex scalar multiplies from the left
    right = q * 1j
    assert close(left, I * q)
    assert close(right, q * I)
    assert not close(left, right, tol=1e-3)  # generic q: i does not commute


def test_addition_and_negation():
    q = Quaternion(1.0 + 2.0j, 3.0 - 1.0j)
    assert q + (-q) == Quaternion(0.0, 0.0)
    assert q - q == Quaternion(0.0, 0.0)
    assert (q + q) == 2 * q


def test_promote_rejects_junk():
    with pytest.raises(TypeError):
        Quaternion(1.0, 0.0) * "nope"
