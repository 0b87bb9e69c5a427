from collections import Counter
import time

import numpy as np
import pytest

from ranknet import (
    DimensionError,
    DomainError,
    addition_complexity,
    ascending_factorization,
    binary_equivalent,
    comparator_coefficients,
    complexity_profile,
    index_vector_v,
    index_vector_w,
    is_prime,
    level_coefficients,
    maundy_a,
    partial_rank_count,
    prime_network,
    prime_power_levels,
    smallest_prime_factor,
    total_comparators,
    two_prime_levels,
)
from ranknet.analytics import profile_csv


class TestLevelCoefficients:
    def test_table_rows(self):
        assert level_coefficients(12) == {2: 9, 3: 1}
        assert level_coefficients(16) == {2: 15}
        assert level_coefficients(15) == {3: 5, 5: 1}

    def test_rejects_small(self):
        with pytest.raises(DimensionError):
            level_coefficients(1)


class TestComparatorCoefficients:
    def test_table_rows(self):
        assert comparator_coefficients(12) == {2: 54, 3: 4}
        assert comparator_coefficients(10) == {2: 25, 5: 2}
        assert comparator_coefficients(15) == {3: 25, 5: 3}

    def test_binary_conservation(self):
        for n in range(2, 200):
            total = sum(
                c * p * (p - 1) // 2 for p, c in comparator_coefficients(n).items()
            )
            assert total == n * (n - 1) // 2


class TestPartialRankCount:
    def test_examples(self):
        assert partial_rank_count(6) == 4
        assert partial_rank_count(12) == 10
        for p in [2, 3, 5, 7, 11, 13, 97]:
            assert partial_rank_count(p) == 1

    def test_equals_level_coefficient_sum(self):
        for n in range(2, 300):
            assert partial_rank_count(n) == sum(level_coefficients(n).values())


class TestAdditionComplexity:
    def test_examples(self):
        assert addition_complexity(2) == 0
        assert addition_complexity(12) == 9
        assert addition_complexity(16) == 14


class TestTotalComparators:
    def test_examples(self):
        assert total_comparators(1) == 0
        assert total_comparators(6) == 11
        assert total_comparators(8) == 28
        assert total_comparators(12) == 58

    def test_recurrence_oracle(self):
        # T(N) = d*T(N/d) + (N/d)^2 with T(p) = 1, d = smallest prime factor
        t = {1: 0}
        for n in range(2, 10001):
            d = smallest_prime_factor(n)
            if d == n:
                t[n] = 1
            else:
                t[n] = d * t[n // d] + (n // d) ** 2
            assert total_comparators(n) == t[n]


class TestMaundy:
    def test_examples(self):
        assert maundy_a(1) == 0
        assert maundy_a(4) == 3
        assert maundy_a(6) == 4
        for p in [2, 3, 5, 7, 11, 13]:
            assert maundy_a(p) == 1

    def test_matches_level_count(self):
        for n in range(2, 2001):
            assert maundy_a(n) == partial_rank_count(n)


class TestClosedForms:
    def test_prime_power_levels(self):
        assert prime_power_levels(2, 4) == 15
        assert prime_power_levels(3, 2) == 4
        for p in [2, 3, 5, 7]:
            assert prime_power_levels(p, 1) == 1
        for p, k in [(2, 6), (3, 4), (5, 3)]:
            assert prime_power_levels(p, k) == partial_rank_count(p**k)
        with pytest.raises(DomainError):
            prime_power_levels(4, 2)

    def test_two_prime_levels(self):
        assert two_prime_levels(2, 2, 3, 1) == {2: 9, 3: 1}
        assert two_prime_levels(2, 1, 3, 1) == {2: 3, 3: 1}
        assert two_prime_levels(2, 1, 5, 1) == {2: 5, 5: 1}
        for p1, k1, p2, k2 in [(2, 3, 3, 2), (3, 2, 5, 1), (2, 1, 7, 2)]:
            n = p1**k1 * p2**k2
            assert two_prime_levels(p1, k1, p2, k2) == level_coefficients(n)
        with pytest.raises(DomainError):
            two_prime_levels(3, 1, 2, 1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda k: prime_power_levels(5, k),
            lambda k: two_prime_levels(2, k, 3, 1),
            lambda k: two_prime_levels(2, 1, 3, k),
        ],
        ids=["prime_power_levels", "two_prime_levels k1", "two_prime_levels k2"],
    )
    def test_refuses_a_power_past_2_64(self, call):
        # p**k was computed for any exponent, so 2**70 never finished
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"exponent {2**70} "):
            call(2**70)
        assert time.perf_counter() - start < 1

    def test_takes_every_power_up_to_2_64(self):
        assert prime_power_levels(2, 64) == 2**64 - 1
        assert prime_power_levels(3, 40) == (3**40 - 1) // 2
        assert two_prime_levels(2, 64, 3, 40) == {2: 3**40 * (2**64 - 1), 3: (3**40 - 1) // 2}
        for p, k in [(2, 65), (3, 41), (2**61 - 1, 2)]:
            with pytest.raises(DomainError, match=f"exponent {k} "):
                prime_power_levels(p, k)
            with pytest.raises(DomainError, match=f"exponent {k} "):
                two_prime_levels(2, 1, p, k)


class TestBinaryEquivalent:
    def test_examples(self):
        assert binary_equivalent(1) == 0
        assert binary_equivalent(4) == 6
        assert binary_equivalent(8) == 28


class TestCrossModule:
    def test_network_counts_match_analytics(self):
        for n in range(2, 129):
            net = prime_network(n)
            assert len(net.levels) == partial_rank_count(n)
            by_arity = Counter(c.arity for c in net.comparators())
            assert dict(by_arity) == comparator_coefficients(n)
            level_arities = Counter(lev.comparators[0].arity for lev in net.levels)
            assert dict(level_arities) == level_coefficients(n)
            assert sum(by_arity.values()) == total_comparators(n)


class TestProfile:
    def test_profile_consistency(self):
        prof = complexity_profile(12)
        assert prof.partial_rank_count == sum(prof.level_coeffs.values())
        assert prof.total_comparators == sum(prof.comparator_coeffs.values())
        assert prof.binary_equivalent == 66

    def test_n_is_an_int(self):
        # a numpy integer was kept as given, where every counting function
        # returns Python ints
        prof = complexity_profile(np.int64(12))
        assert type(prof.n) is int
        assert prof == complexity_profile(12)

    def test_csv_dump(self):
        text = profile_csv(8, per_prime=True)
        lines = text.strip().splitlines()
        assert lines[0].startswith("N,levels_total,comps_total,addition_complexity")
        assert lines[1] == "2,1,1,0,1,0,0,0"
        assert lines[5] == "6,4,11,3,3,1,0,0"


def _leaves(x):
    if isinstance(x, dict):
        return [*x, *x.values()]
    return list(x) if isinstance(x, list) else [x]


INTEGER_FUNCTIONS = {
    "partial_rank_count": (partial_rank_count, 10),
    "total_comparators": (total_comparators, 58),
    "level_coefficients": (level_coefficients, {2: 9, 3: 1}),
    "comparator_coefficients": (comparator_coefficients, {2: 54, 3: 4}),
    "maundy_a": (maundy_a, 10),
    "binary_equivalent": (binary_equivalent, 66),
    "is_prime": (is_prime, False),
    "smallest_prime_factor": (smallest_prime_factor, 2),
    "ascending_factorization": (ascending_factorization, [2, 2, 3]),
    "prime_power_levels": (lambda k: prime_power_levels(2, k), 4095),
    "two_prime_levels": (lambda k: two_prime_levels(2, k, 3, k), {2: 3**12 * 4095, 3: 265720}),
}


@pytest.mark.parametrize("fn, at_12", INTEGER_FUNCTIONS.values(), ids=list(INTEGER_FUNCTIONS))
def test_takes_n_as_integer(fn, at_12):
    for n in (12.5, "12", 12.0):
        with pytest.raises(DimensionError):
            fn(n)
    # numpy integers give Python ints, also after the calls above: a float N
    # that reached maundy_a's cache would come back as a float result here
    result = fn(np.int64(12))
    assert result == at_12
    assert [type(v) for v in _leaves(result)] == [type(v) for v in _leaves(at_12)]


@pytest.mark.parametrize(
    "call",
    [
        lambda: maundy_a(True),
        lambda: binary_equivalent(True),
        lambda: total_comparators(True),
        lambda: prime_power_levels(2, True),
        lambda: index_vector_w(True, 3),
        lambda: index_vector_v(0, True, 2, 3),
    ],
    ids=["maundy_a", "binary_equivalent", "total_comparators", "prime_power_levels",
         "index_vector_w", "index_vector_v"],
)
def test_refuses_a_bool_as_integer(call):
    # each took True as 1: the counts returned 0 and 1, and the index
    # vectors [3, 4, 5] and [0, 4]
    with pytest.raises(DimensionError, match="got True"):
        call()
