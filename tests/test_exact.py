"""The exact oracle of `_exact`: its arithmetic, and the engine against it on
the nested model at Pythagorean splitting ratios.

There alpha = (n^2 - 1) / (n^2 + 1) and beta = 2n / (n^2 + 1), or the two
swapped, so every chain ket and decoherence-functional entry is exact in
Q(sqrt 2), and "is this family consistent?" has an exact answer.  The
engine is run as a caller runs it, from the float nearest alpha^2.  Where
its verdict differs from the exact one, the case is a strict xfail that
ROADMAP item "Verdicts that know their resolution" must flip.
"""

import functools
from fractions import Fraction

import numpy as np
import pytest

import _exact as ex
from _exact import Q2

from qhistories.histories import chain_ket, consistency_check
from qhistories.mzi import BeamSplitterParams, NamedFamilyId, named_family

EPS = np.finfo(float).eps


def _pell(k: int) -> Q2:
    """(1 + sqrt 2)^k = P + Q sqrt 2, with P^2 - 2 Q^2 = (-1)^k."""
    u = ex.ONE
    for _ in range(k):
        u = u * Q2(1, 1)
    return u


class TestQ2Arithmetic:
    def test_products_against_hand_values(self):
        assert Q2(1, 1) * Q2(1, -1) == Q2(-1)
        assert Q2(1, 1) * Q2(1, 1) == Q2(3, 2)
        assert Q2(1, 2) * Q2(3, -1) == Q2(-1, 5)
        assert Q2(0, 1) * Q2(0, 1) == 2
        assert ex.R * ex.R == Fraction(1, 2)
        assert 2 * ex.R == Q2(0, 1)
        assert Q2(Fraction(1, 3), Fraction(-2, 5)) * 15 == Q2(5, -6)
        assert Q2(1, 1) + 1 == Q2(2, 1) and 1 - Q2(1, 1) == Q2(0, -1)

    def test_division_inverts_multiplication(self):
        assert ex.ONE / Q2(1, 1) == Q2(-1, 1)
        assert Q2(3, 2) / Q2(1, 1) == Q2(1, 1)
        x, y = Q2(Fraction(7, 3), -5), Q2(Fraction(-2, 9), Fraction(4, 7))
        assert (x / y) * y == x
        with pytest.raises(ZeroDivisionError):
            Q2(1, 1) / Q2(0)

    @pytest.mark.parametrize("k", [1, 2, 7, 20, 40, 41])
    def test_signs_next_to_p2_equal_2q2(self, k):
        # (1 - sqrt 2)^k = P - Q sqrt 2 has |P^2 - 2 Q^2| = 1 and modulus
        # (sqrt 2 - 1)^k, as small as 5e-16 here: its sign is exactly (-1)^k
        u = _pell(k)
        assert u.norm() == (-1) ** k
        tiny = Q2(u.p, -u.q)
        assert tiny.sign() == (-1) ** k and (-tiny).sign() == -((-1) ** k)
        assert abs(tiny) == (tiny if k % 2 == 0 else -tiny)
        # the float keeps its relative precision: tiny * u = (-1)^k
        assert abs(float(tiny) * float(u) - (-1) ** k) <= 4 * EPS

    def test_signs_of_the_plain_cases(self):
        assert [Q2(0).sign(), Q2(2).sign(), Q2(-2).sign(), Q2(0, 1).sign(), Q2(0, -1).sign()] \
            == [0, 1, -1, 1, -1]
        assert Q2(1, 1).sign() == 1 and Q2(-1, -1).sign() == -1
        assert Q2(3, -2).sign() == 1 and Q2(-3, 2).sign() == -1  # 3 - 2.83
        assert Q2(1, -1).sign() == -1 and Q2(-1, 1).sign() == 1  # 1 - 1.41
        assert Q2(3, -2) < Q2(0, Fraction(1, 8)) <= Q2(0, Fraction(1, 8)) < Q2(2, 1)

    def test_floats_of_plain_values(self):
        assert float(Q2(3, 2)) == 3 + 2 * 2**0.5
        assert float(Q2(Fraction(1, 2))) == 0.5
        assert float(ex.R) == 2**0.5 / 2

    def test_the_model_is_exact(self):
        # every step is orthogonal, alpha^2 + beta^2 = 1, and the backward
        # ray of F4 at t2 is a unit vector, all exactly
        for n in (2, 10**8):
            for swapped in (False, True):
                a, b = ex.pythagorean(n, swapped)
                assert a * a + b * b == 1 and a > 0 and b > 0
                steps = ex.nested_steps(a, b)
                for m in steps:
                    mtm = [[ex.dot(u, v) for v in zip(*m)] for u in zip(*m)]
                    assert mtm == [[ex.ONE if i == j else ex.ZERO for j in range(3)]
                                   for i in range(3)]
                back = ex.backward(steps, [ex.ONE, ex.ZERO, ex.ZERO], 2)
                assert ex.dot(back, back) == 1


#: n of the Pythagorean ratios, small to large.
NS = (2, 3, 10, 10**2, 10**3, 10**4, 10**5, 10**6, 10**7, 10**8)
ROLES = ("alpha-large", "alpha-small")
FAMILIES = ("F_A", "F_A_PRIME", "F_B", "F_ABC", "F_C", "EQ25_BACKWARD")

#: d = 3 channels, T = 4 steps.  Each F4-ending amplitude is a polynomial in
#: alpha^2 and beta^2 alone: the F row takes alpha A3 + beta E3, where A3
#: carries alpha and E3 carries beta.  The engine's alpha^2 and beta^2 (one
#: rounding of the caller's alpha^2, one of 1 - alpha^2 and one each of a
#: square root and a product) lie within 3 eps of the exact ones.  Its T
#: steps and events are d-term sums over entries of modulus at most 1 of a
#: vector of norm at most 1, each adding at most d eps, and EQ25_BACKWARD's
#: ray adds as much again once.  So each amplitude is within (6 + 2 d T) eps
#: of the exact one, inside 20 d T eps.
BOUND = 20 * 3 * 4 * EPS

#: The engine's wrong verdicts: at beta^2 <= 4e-12 the F4 weights
#: through B and C, of order beta^2, fall under the absolute 1e-10 cut, so
#: three inconsistent families read as consistent.
WRONG = {(n, "alpha-large", fid) for n in (10**6, 10**7, 10**8) for fid in ("F_B", "F_ABC", "F_C")}


@functools.cache
def _exact_family(n: int, role: str, fid: str):
    """The exact chain kets and D of family `fid`, and the float alpha^2."""
    a, b = ex.pythagorean(n, swapped=role == "alpha-small")
    steps = ex.nested_steps(a, b)
    kets = [ex.chain_ket(steps, [ex.ONE, ex.ZERO, ex.ZERO], h) for h in ex.f4_families(steps)[fid]]
    return kets, ex.decoherence(kets), float(a * a)


def _grid(wrong_marks=False):
    cases = []
    for n in NS:
        for role in ROLES:
            for fid in FAMILIES:
                marks = ()
                if wrong_marks and (n, role, fid) in WRONG:
                    marks = pytest.mark.xfail(strict=True, reason=(
                        'ROADMAP item "Verdicts that know their resolution": an '
                        "inconsistent family whose overlap is under the absolute cut"))
                cases.append(pytest.param(n, role, fid, marks=marks, id=f"{fid}-{role}-n{n}"))
    return cases


@pytest.mark.parametrize("n, role, fid", _grid())
def test_engine_amplitudes_are_the_exact_ones(n, role, fid):
    kets, d, alpha2 = _exact_family(n, role, fid)
    dyn, fam = named_family(NamedFamilyId[fid], BeamSplitterParams(alpha2))
    assert len(fam.histories) == len(kets)
    got = np.array([chain_ket(dyn, fam.initial, h).amplitudes for h in fam.histories])
    want = np.array([[float(x) for x in k] for k in kets])
    assert np.abs(got - want).max() <= BOUND
    # every history ends on F4, so D is the outer product of the F
    # amplitudes (ROADMAP item "Rank-one post-selection"), exactly
    a = [k[0] for k in kets]
    assert all(k[1] == k[2] == ex.ZERO for k in kets)
    assert d == [[x * y for y in a] for x in a]
    # the engine's largest overlap: a product of two amplitudes of modulus
    # at most 1, each within BOUND, rounded once
    off = [abs(x) for k, row in enumerate(d) for l, x in enumerate(row) if k < l]
    top = float(max(off, default=ex.ZERO))
    assert abs(consistency_check(dyn, fam).max_overlap - top) <= 3 * BOUND


@pytest.mark.parametrize("n, role, fid", _grid(wrong_marks=True))
def test_engine_verdicts_are_the_exact_ones(n, role, fid):
    _, d, alpha2 = _exact_family(n, role, fid)
    dyn, fam = named_family(NamedFamilyId[fid], BeamSplitterParams(alpha2))
    assert consistency_check(dyn, fam).consistent == ex.consistent(d)


def test_the_grid_decides_both_ways():
    # both verdicts occur exactly, at small and at large n alike
    for n in (2, 10**8):
        verdicts = {ex.consistent(_exact_family(n, role, fid)[1]) for role in ROLES for fid in FAMILIES}
        assert verdicts == {True, False}
