"""Exact symbolic bookkeeping over the truncated Kerr interaction Hamiltonian.

The quartic interaction couples every index quadruple (m, n, p, q) in
[-K, K]^4 with m - n + p - q = 0 (angular-momentum conservation on the
mode ladder).  This module enumerates those couplings, classifies them as
self-phase (SPM), cross-phase (CPM) or four-wave-mixing (FWM) terms,
counts the monomials generated by commutators with single-mode operators,
and tests which Hamiltonian parts commute with the pair photon-number
difference n_{+l} - n_{-l}.

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


def expected_commutator_count(K: int, l: int) -> int:
    """Closed form 3K^2 + 3K - l^2 + 1 for len([a_l, H_Kerr])."""
    return 3 * K**2 + 3 * K - l**2 + 1


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


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------

# A generic normal-ordered term: (creator index tuple, annihilator index
# tuple), both sorted, mapping to an integer coefficient.
TermDict = dict[tuple[tuple[int, ...], tuple[int, ...]], int]


def annihilator_commutator(l: int, K: int) -> TermDict:
    """[a_l, H] over the ordered quadruple expansion of the quartic set.

    [a_l, a+_n a+_q a_m a_p] = d(l,n) a+_q a_m a_p + d(l,q) a+_n a_m a_p.
    Result terms keep the annihilator pair ordered — the convention under
    which the distinct-term count obeys the closed form.
    """
    out: TermDict = Counter()
    for n, q, m, p in _quadruples(K):
        if l == n:
            out[((q,), (m, p))] += 1
        if l == q:
            out[((n,), (m, p))] += 1
    return out


def commutator_mode_count(K: int, l: int) -> int:
    """Number of distinct monomials in [a_l, H_Kerr] (checked closed form)."""
    _check_K(K)
    if abs(l) > K:
        raise ValueError("mode index l must satisfy |l| <= K")
    count = len(annihilator_commutator(l, K))
    expected = expected_commutator_count(K, abs(l))
    if count != expected:
        raise AssertionError(
            f"symbolic commutator count {count} differs from the closed "
            f"form {expected} at K={K}, l={l}")
    return count


def number_difference_commutators(K: int, l: int) -> dict[str, bool]:
    """Whether [n_{+l} - n_{-l}, H_part] vanishes for each Hamiltonian part.

    For a normal-ordered monomial M, [n_j, M] = mu_j M where mu_j is the
    count of j among creators minus the count among annihilators, so the
    commutator with the pair difference is (mu_{+l} - mu_{-l}) M and the
    part vanishes iff that weight is zero for every monomial of the part.
    """
    return {part: not terms for part, terms
            in number_difference_commutator_terms(K, l).items()}


def number_difference_commutator_terms(K: int, l: int) -> dict[str, TermDict]:
    """The surviving monomials of [n_delta, H_part], per part (exact):
    each distinct monomial with weight mu_{+l} - mu_{-l} != 0, scaled by it."""
    _check_K(K)
    if not 1 <= l <= K:
        raise ValueError("pair index l must satisfy 1 <= l <= K")
    out: dict[str, TermDict] = {tag.value: {} for tag in Tag}
    for mono in enumerate_monomials(K).monomials:
        weight = (mono.creators.count(l) - mono.annihilators.count(l)
                  - mono.creators.count(-l) + mono.annihilators.count(-l))
        if weight:
            out[mono.tag.value][mono.creators, mono.annihilators] = (
                weight * mono.coefficient)
    return out
