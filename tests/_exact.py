"""An exact oracle for the tests: numbers of Q(sqrt 2), and the nested
interferometer computed in them.

At a Pythagorean splitting ratio, alpha = (n^2 - 1) / (n^2 + 1) and
beta = 2n / (n^2 + 1) (or the two swapped) are rational, and the inner
splitters' 1/sqrt(2) is sqrt(2) / 2.  So every step entry, chain ket and
decoherence-functional entry of the nested model lies in Q(sqrt 2), and
`Q2` holds each exactly, as p + q sqrt(2) with p and q `Fraction`s.  Its
sign is exact too: sqrt(2) is irrational, so p + q sqrt(2) is zero only if
p = q = 0, and otherwise a mixed-sign pair takes the sign of the larger of
p^2 and 2 q^2.

The model is written out here from the paper's layout, not read from the
package, so that the tests never trust the code under test for their
expectations.  Only the stdlib is used.
"""

from __future__ import annotations

import math
from fractions import Fraction

_SQRT2 = math.sqrt(2.0)


class Q2:
    """The exact number p + q sqrt(2), with p and q rational."""

    __slots__ = ("p", "q")

    def __init__(self, p=0, q=0):
        self.p, self.q = Fraction(p), Fraction(q)

    @staticmethod
    def _of(x) -> Q2:
        return x if isinstance(x, Q2) else Q2(x)

    def __add__(self, other):
        o = Q2._of(other)
        return Q2(self.p + o.p, self.q + o.q)

    __radd__ = __add__

    def __neg__(self):
        return Q2(-self.p, -self.q)

    def __sub__(self, other):
        return self + -Q2._of(other)

    def __rsub__(self, other):
        return Q2._of(other) - self

    def __mul__(self, other):
        o = Q2._of(other)
        return Q2(self.p * o.p + 2 * self.q * o.q, self.p * o.q + self.q * o.p)

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """The field norm p^2 - 2 q^2: (p + q sqrt 2)(p - q sqrt 2)."""
        return self.p * self.p - 2 * self.q * self.q

    def __truediv__(self, other):
        o = Q2._of(other)
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by an exact zero of Q(sqrt 2)")
        return self * Q2(o.p / n, -o.q / n)

    def __eq__(self, other):
        o = Q2._of(other)
        return (self.p, self.q) == (o.p, o.q)

    def sign(self) -> int:
        """-1, 0 or 1, exactly."""
        sp, sq = (self.p > 0) - (self.p < 0), (self.q > 0) - (self.q < 0)
        if sp == sq or sq == 0:
            return sp
        if sp == 0:
            return sq
        return sp if self.norm() > 0 else sq

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __float__(self) -> float:
        """The nearest float to within a few ulps.  A mixed-sign pair is
        read as norm / (p - q sqrt 2), whose denominator does not cancel,
        so a tiny value keeps its relative precision."""
        if (self.p >= 0) == (self.q >= 0) or self.p == 0 or self.q == 0:
            return float(self.p) + float(self.q) * _SQRT2
        return float(self.norm()) / (float(self.p) - float(self.q) * _SQRT2)

    def __repr__(self):
        return f"Q2({self.p}, {self.q})"


ZERO, ONE = Q2(0), Q2(1)
#: 1 / sqrt(2), exactly.
R = Q2(0, Fraction(1, 2))

#: The channels of each slice of the nested interferometer, t0 to t4.
SLICES = ("SRQ", "ADQ", "ABC", "AEH", "FGH")


def pythagorean(n: int, swapped: bool = False) -> tuple[Fraction, Fraction]:
    """(alpha, beta) = ((n^2 - 1) / (n^2 + 1), 2n / (n^2 + 1)), or the two
    swapped: alpha^2 + beta^2 = 1 exactly."""
    big, small = Fraction(n * n - 1, n * n + 1), Fraction(2 * n, n * n + 1)
    return (small, big) if swapped else (big, small)


def nested_steps(alpha, beta) -> list[list[list[Q2]]]:
    """The four steps of the nested model, each a 3 x 3 matrix from the
    channels of slice t to those of slice t + 1, rows the targets: the
    source splitter, the inner loop's entry and exit splitters, and the
    last splitter."""
    a, b = Q2(alpha), Q2(beta)
    rows = [
        [[a, -b, 0], [b, a, 0], [0, 0, 1]],  # S,R,Q -> A,D,Q
        [[1, 0, 0], [0, R, R], [0, R, -R]],  # A,D,Q -> A,B,C
        [[1, 0, 0], [0, -R, R], [0, R, R]],  # A,B,C -> A,E,H
        [[a, b, 0], [b, -a, 0], [0, 0, 1]],  # A,E,H -> F,G,H
    ]
    return [[[Q2._of(x) for x in row] for row in step] for step in rows]


def matvec(m, v):
    return [sum((x * y for x, y in zip(row, v)), ZERO) for row in m]


def dot(u, v) -> Q2:
    """<u|v> of two real vectors."""
    return sum((x * y for x, y in zip(u, v)), ZERO)


def label_event(t: int, channels: str) -> list[list[Q2]]:
    """The projector onto `channels` of slice t."""
    basis = SLICES[t]
    return [[ONE if i == j and c in channels else ZERO for j in range(3)]
            for i, c in enumerate(basis)]


def ray(v) -> list[list[Q2]]:
    """|v><v| / <v|v> of a nonzero real vector."""
    n2 = dot(v, v)
    return [[x * y / n2 for y in v] for x in v]


def complement(p) -> list[list[Q2]]:
    return [[(ONE if i == j else ZERO) - x for j, x in enumerate(row)] for i, row in enumerate(p)]


def backward(steps, final, t: int):
    """The ket at time t that the steps carry into `final` at the last time:
    the transposed steps (all real) applied from the end."""
    v = final
    for step in reversed(steps[t:]):
        v = matvec([list(col) for col in zip(*step)], v)
    return v


def chain_ket(steps, initial, events: dict[int, list[list[Q2]]]):
    """The chain ket of the history with `events` (time -> projector), from
    `initial` at t0, carried to the last time."""
    v = initial
    for t, step in enumerate(steps, start=1):
        v = matvec(step, v)
        if t in events:
            v = matvec(events[t], v)
    return v


def decoherence(kets) -> list[list[Q2]]:
    """D_kl = <c_k|c_l> of real chain kets."""
    return [[dot(u, v) for v in kets] for u in kets]


def consistent(d) -> bool:
    """Whether every off-diagonal entry of D is exactly zero."""
    return all(x == ZERO for k, row in enumerate(d) for l, x in enumerate(row) if k != l)


def f4_families(steps) -> dict[str, list[dict[int, list[list[Q2]]]]]:
    """The named families whose every history ends on F4, by name: each
    history as its events (time -> projector)."""
    f4 = label_event(4, "F")

    def at_t2(*channel_sets):
        return [{2: label_event(2, chans), 4: f4} for chans in channel_sets]

    back = ray(backward(steps, [ONE, ZERO, ZERO], 2))
    return {
        "F_A": at_t2("A", "BC"),
        "F_A_PRIME": [
            {1: label_event(1, x), 2: label_event(2, m), 3: label_event(3, y), 4: f4}
            for m in ("A", "BC") for x in "ADQ" for y in "AEH"
        ],
        "F_B": at_t2("B", "AC"),
        "F_ABC": at_t2("A", "B", "C"),
        "F_C": at_t2("C", "AB"),
        "EQ25_BACKWARD": [{2: back, 4: f4}, {2: complement(back), 4: f4}],
    }
