"""Exact symbolic bookkeeping over the truncated Kerr interaction Hamiltonian.

The quartic interaction couples every index quadruple (m, n, p, q) in
[-K, K]^4 with m - n + p - q = 0 (angular-momentum conservation on the
mode ladder).  This module enumerates those couplings and classifies them
as self-phase (SPM), cross-phase (CPM) or four-wave-mixing (FWM) terms.
The commutators that check the enumeration (the monomials of [a_l, H] and
which Hamiltonian parts commute with the pair photon-number difference
n_{+l} - n_{-l}) are test oracles in tests/conftest.py.

Counting convention: the closed-form totals count *ordered* quadruples
(the pair-sum histogram identity sum_s c_s^2 with c_s = (2K+1) - |s|);
operator terms are stored canonically as sorted index multisets with the
ordered multiplicity kept as an integer count.  This is the unique
convention reproducing the K = 1 total of 19.

Everything here is exact integer arithmetic — no floating point and no
computer-algebra dependency, since only normally-ordered bosonic products
of fixed degree arise and every coefficient is a count.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

#: Hard cap for symbolic work; counts grow cubically in K.
K_MAX = 6


class Tag(enum.Enum):
    SPM = "spm"   # all four indices equal: n_j(n_j - 1) self-phase term
    CPM = "cpm"   # creators == annihilators with two distinct values
    FWM = "fwm"   # genuine four-wave mixing


@dataclass(frozen=True)
class Monomial:
    """Normal-ordered quartic term a+_{n} a+_{q} a_{m} a_{p} (canonical).

    `creators` and `annihilators` are sorted index tuples; `coefficient`
    is the ordered-quadruple multiplicity (in units of the common
    prefactor -hbar g0 / 2, which is irrelevant to every audit here).
    """

    creators: tuple[int, int]
    annihilators: tuple[int, int]
    coefficient: int

    @property
    def tag(self) -> Tag:
        values = set(self.creators) | set(self.annihilators)
        if len(values) == 1:
            return Tag.SPM
        if (Counter(self.creators) == Counter(self.annihilators)
                and len(values) == 2):
            return Tag.CPM
        return Tag.FWM

    def __str__(self) -> str:
        n, q = self.creators
        m, p = self.annihilators
        return (f"{self.coefficient} * a+_{n} a+_{q} a_{m} a_{p} "
                f"[{self.tag.value}]")


@dataclass(frozen=True)
class MonomialSet:
    K: int
    monomials: tuple[Monomial, ...]

    @property
    def ordered_count(self) -> int:
        """Total ordered-quadruple count (the paper-formula quantity)."""
        return sum(m.coefficient for m in self.monomials)

    def counts_by_tag(self) -> dict[Tag, int]:
        out = {tag: 0 for tag in Tag}
        for m in self.monomials:
            out[m.tag] += m.coefficient
        return out

    def dump(self) -> str:
        return "\n".join(str(m) for m in self.monomials) + "\n"


def expected_total(K: int) -> int:
    """Closed form [2(2K+1)^3 + (2K+1)] / 3 for the ordered count."""
    n = 2 * K + 1
    total, rem = divmod(2 * n**3 + n, 3)
    assert rem == 0
    return total


def _check_K(K: int) -> None:
    if not 0 <= K <= K_MAX:
        raise ValueError(f"K must be in 0..{K_MAX} for symbolic work")


def _quadruples(K: int) -> Iterator[tuple[int, int, int, int]]:
    """Ordered index quadruples (n, q, m, p) on -K..K with n + q = m + p."""
    span = range(-K, K + 1)
    for n in span:
        for q in span:
            for m in span:
                p = n + q - m
                if -K <= p <= K:
                    yield n, q, m, p


def enumerate_monomials(K: int) -> MonomialSet:
    """All momentum-conserving quartic couplings on modes -K..K."""
    _check_K(K)
    acc = Counter((tuple(sorted((n, q))), tuple(sorted((m, p))))
                  for n, q, m, p in _quadruples(K))
    monos = tuple(Monomial(c, a, coeff)
                  for (c, a), coeff in sorted(acc.items()))
    return MonomialSet(K, monos)
