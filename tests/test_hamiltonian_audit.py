from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kerrcomb import hamiltonian_audit as ha

from conftest import (TermDict, commutator_mode_count,
                      number_difference_commutator_terms,
                      number_difference_commutators)


class TestEnumeration:
    @pytest.mark.parametrize("K,total", [(0, 1), (1, 19), (2, 85)])
    def test_known_totals(self, K, total):
        assert ha.enumerate_monomials(K).ordered_count == total
        assert ha.expected_total(K) == total

    @pytest.mark.parametrize("K", range(7))
    def test_closed_form(self, K):
        mset = ha.enumerate_monomials(K)
        assert mset.ordered_count == ha.expected_total(K)
        # pair-sum histogram identity
        n = 2 * K + 1
        assert sum((n - abs(s)) ** 2 for s in range(-2 * K, 2 * K + 1)) \
            == mset.ordered_count

    @pytest.mark.parametrize("K", range(4))
    def test_momentum_conservation(self, K):
        for mono in ha.enumerate_monomials(K).monomials:
            assert sum(mono.creators) == sum(mono.annihilators)

    def test_k0_is_pump_spm(self):
        (mono,) = ha.enumerate_monomials(0).monomials
        assert mono.tag is ha.Tag.SPM
        assert mono.creators == mono.annihilators == (0, 0)

    def test_tagging(self):
        tags = {(m.creators, m.annihilators): m.tag
                for m in ha.enumerate_monomials(1).monomials}
        assert tags[((0, 0), (0, 0))] is ha.Tag.SPM
        assert tags[((-1, 1), (-1, 1))] is ha.Tag.CPM
        assert tags[((0, 0), (-1, 1))] is ha.Tag.FWM

    def test_k_cap(self):
        with pytest.raises(ValueError):
            ha.enumerate_monomials(7)


class TestAnnihilatorCommutator:
    @pytest.mark.parametrize("K,l,expected", [(1, 0, 7), (2, 2, 15), (0, 0, 1)])
    def test_known_counts(self, K, l, expected):
        assert commutator_mode_count(K, l) == expected

    @pytest.mark.parametrize("K", range(5))
    def test_closed_form_all_l(self, K):
        for l in range(-K, K + 1):
            assert commutator_mode_count(K, l) \
                == 3 * K**2 + 3 * K - l**2 + 1


class TestNumberDifference:
    @pytest.mark.parametrize("K", range(1, 6))
    def test_spm_cpm_always_commute(self, K):
        for l in range(1, K + 1):
            result = number_difference_commutators(K, l)
            assert result["spm"] and result["cpm"]

    def test_fwm_survives_at_k2_l1(self):
        assert number_difference_commutators(2, 1)["fwm"] is False
        terms = number_difference_commutator_terms(2, 1)
        # the 2 omega_{-1} -> omega_0 + omega_{-2} channel survives
        assert (((-2, 0), (-1, -1)) in terms["fwm"]
                or ((-1, -1), (-2, 0)) in terms["fwm"])

    @pytest.mark.parametrize("K,l", [(2, 0), (2, 3), (2, -1), (3, 4)])
    def test_pair_index_bounds(self, K, l):
        with pytest.raises(ValueError):
            number_difference_commutator_terms(K, l)
        with pytest.raises(ValueError):
            number_difference_commutators(K, l)

    def test_three_mode_conservation(self):
        assert number_difference_commutators(1, 1)["fwm"] is True

    @given(st.integers(1, 5))
    def test_linearity(self, K):
        # the full commutator is the sum of the per-part commutators
        for l in range(1, K + 1):
            terms = number_difference_commutator_terms(K, l)
            total: TermDict = {}
            for part in terms.values():
                for key, coeff in part.items():
                    total[key] = total.get(key, Fraction(0)) + coeff
            parts_zero = all(not part for part in terms.values())
            assert parts_zero == (not total)
