import dataclasses
import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranknet import (
    Builder,
    Comparator,
    DimensionError,
    DomainError,
    Level,
    Network,
    ValidationError,
    ValidationReport,
    ascending_factorization,
    binary_network,
    build_network,
    divisor_network,
    index_vector_v,
    index_vector_w,
    network_from_json,
    network_to_dot,
    network_to_json,
    prime_network,
    smallest_prime_factor,
    validate_network,
)


def pair_counter(net):
    pairs = Counter()
    for comp in net.comparators():
        idx = comp.indices
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                pairs[(idx[a], idx[b])] += 1
    return pairs


class TestNumberTheory:
    def test_smallest_prime_factor(self):
        assert smallest_prime_factor(6) == 2
        assert smallest_prime_factor(9) == 3
        assert smallest_prime_factor(13) == 13
        assert smallest_prime_factor(49) == 7
        with pytest.raises(DimensionError):
            smallest_prime_factor(1)

    def test_ascending_factorization(self):
        assert ascending_factorization(12) == [2, 2, 3]
        assert ascending_factorization(16) == [2, 2, 2, 2]
        assert ascending_factorization(15) == [3, 5]
        with pytest.raises(DimensionError):
            ascending_factorization(0)


class TestIndexVectors:
    def test_v_examples(self):
        assert index_vector_v(0, 0, 2, 3) == [0, 3]
        assert index_vector_v(1, 2, 2, 3) == [1, 3]
        assert index_vector_v(2, 1, 2, 3) == [2, 3]

    def test_v_out_of_range(self):
        with pytest.raises(DomainError):
            index_vector_v(3, 0, 2, 3)
        with pytest.raises(DomainError):
            index_vector_v(0, -1, 2, 3)

    def test_v_strictly_increasing(self):
        for d, D in [(2, 3), (3, 5), (5, 7), (2, 8)]:
            for j in range(D):
                for k in range(D):
                    v = index_vector_v(j, k, d, D)
                    assert all(a < b for a, b in zip(v, v[1:]))

    def test_w_examples(self):
        assert index_vector_w(0, 4) == [0, 1, 2, 3]
        assert index_vector_w(1, 4) == [4, 5, 6, 7]
        assert index_vector_w(1, 3) == [3, 4, 5]
        with pytest.raises(DomainError):
            index_vector_w(2, 3, d=2)


class TestDivisorNetwork:
    def test_n6_shape(self):
        net = divisor_network(6)
        arities = [[c.arity for c in lev.comparators] for lev in net.levels]
        assert arities == [[3, 3], [2, 2, 2], [2, 2, 2], [2, 2, 2]]

    def test_n8_shape(self):
        net = divisor_network(8)
        arities = [[c.arity for c in lev.comparators] for lev in net.levels]
        assert arities == [[4, 4]] + [[2, 2, 2, 2]] * 4

    def test_prime_degenerates(self):
        net = divisor_network(7)
        assert len(net.levels) == 1
        assert net.levels[0].comparators[0].indices == tuple(range(7))

    def test_rejects_small(self):
        with pytest.raises(DimensionError):
            divisor_network(1)

    def test_levels_are_index_vectors(self):
        for n in [4, 6, 8, 9, 15, 30, 49]:
            d = smallest_prime_factor(n)
            D = n // d
            levels = divisor_network(n).levels
            assert levels[0].indices.tolist() == [index_vector_w(j, D, d) for j in range(d)]
            for k in range(D):
                assert levels[1 + k].indices.tolist() == [
                    index_vector_v(j, k, d, D) for j in range(D)
                ]


class TestPrimeNetwork:
    def test_n4(self):
        net = prime_network(4)
        assert len(net.levels) == 3
        assert all(len(lev.comparators) == 2 for lev in net.levels)
        assert all(c.arity == 2 for c in net.comparators())

    def test_n8(self):
        net = prime_network(8)
        assert len(net.levels) == 7
        assert all(len(lev.comparators) == 4 for lev in net.levels)

    def test_n12(self):
        net = prime_network(12)
        assert len(net.levels) == 10
        by_arity = Counter(c.arity for c in net.comparators())
        assert by_arity == {2: 54, 3: 4}
        ternary_levels = sum(
            1 for lev in net.levels if lev.comparators[0].arity == 3
        )
        assert ternary_levels == 1

    def test_all_arities_prime_factors(self):
        for n in [6, 12, 18, 30, 60]:
            factors = set(ascending_factorization(n))
            assert {c.arity for c in prime_network(n).comparators()} <= factors


class TestInvariants:
    @pytest.mark.parametrize("builder", list(Builder))
    def test_pair_coverage_and_conservation(self, builder):
        for n in range(2, 65):
            net = build_network(n, builder)
            pairs = pair_counter(net)
            assert len(pairs) == n * (n - 1) // 2
            assert all(v == 1 for v in pairs.values())
            assert (
                sum(c.arity * (c.arity - 1) // 2 for c in net.comparators())
                == n * (n - 1) // 2
            )

    @pytest.mark.parametrize("builder", [Builder.DIVISOR, Builder.PRIME])
    def test_level_maximality(self, builder):
        for n in range(2, 49):
            net = build_network(n, builder)
            for lev in net.levels:
                covered = [i for c in lev.comparators for i in c.indices]
                assert sorted(covered) == list(range(n))
                k = lev.comparators[0].arity
                assert all(c.arity == k for c in lev.comparators)
                assert len(lev.comparators) == n // k

    def test_divisor_level_counts(self):
        for n in [4, 6, 8, 9, 10, 12, 15, 16, 30]:
            net = divisor_network(n)
            d = smallest_prime_factor(n)
            D = n // d
            assert len(net.levels) == 1 + D
            assert len(net.levels[0].comparators) == d
            for lev in net.levels[1:]:
                assert len(lev.comparators) == D


class TestValidation:
    def test_valid_networks(self):
        for n in [5, 6, 8, 12]:
            for builder in Builder:
                assert validate_network(build_network(n, builder)).ok
        # N = 1 has no pairs, so a network with no levels is complete
        assert validate_network(Network(1, [], Builder.BINARY)).ok

    @pytest.mark.parametrize(
        "n, levels, builder, violations, valid_as",
        [
            (3, [[(0, 1), (0, 2)], [(1, 2)]], "binary",
             ["level 0: comparators overlap at [0]"], None),
            (4, [[(0, 1)], [(2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]], "divisor",
             [f"level {li}: does not cover all 4 positions" for li in (0, 1)], "binary"),
            (4, [[(0, 1, 2, 3)]], "prime", ["level 0: non-prime arity 4"], "divisor"),
        ],
        ids=["overlap", "coverage", "arity"],
    )
    def test_level_violations(self, n, levels, builder, violations, valid_as):
        report = validate_network(Network(n, levels, builder))
        assert report == ValidationReport(False, violations)
        if valid_as:
            assert validate_network(Network(n, levels, valid_as)).ok

    def test_binary_n5_pair_count(self):
        net = binary_network(5)
        assert sum(1 for _ in net.comparators()) == 10
        assert validate_network(net).ok

    def test_fault_injection(self):
        levels = list(divisor_network(6).levels)
        levels[1] = Level([Comparator((0, 4))] + list(levels[1].comparators)[1:])  # was (0, 3)
        report = validate_network(Network(6, levels, Builder.DIVISOR))
        assert not report.ok
        assert any("pair" in v or "covered" in v for v in report.violations)

    def test_built_network_is_read_only(self):
        for builder in Builder:
            net = build_network(12, builder)
            with pytest.raises(ValueError):
                net.levels[-1].indices[0, 0] = 1
            for idx in net.arity_groups().values():
                with pytest.raises(ValueError):
                    idx[0, 0] = 1
            with pytest.raises(ValueError):
                net.levels[0].indices.flags.writeable = True
            with pytest.raises(dataclasses.FrozenInstanceError):
                net.levels = ()
            assert validate_network(net).ok

    def test_network_copies_its_input(self):
        rows = np.array([[0, 1, 2]])
        net = Network(3, [rows], Builder.DIVISOR)
        rows[0, 0] = 2
        assert rows.flags.writeable
        assert net.levels[0].indices.tolist() == [[0, 1, 2]]

    def test_rejects_bad_levels(self):
        for levels in (
            [[(0, 1.5)]],  # non-integer index
            [[(0, True)]],  # boolean index
            [[(0, 1), (2, 3, 4)]],  # mixed arity
            [[]],  # empty level
            [[(0, 5)]],  # out of range
            [[(-1, 1)]],
            [[(1, 0)]],  # indices not strictly increasing
            [[(0, 0)]],
            [[(0,), (1,)]],  # arity below 2
            [[0, 1]],  # a level of indices, not of comparators
        ):
            with pytest.raises(ValidationError):
                Network(5, levels, Builder.DIVISOR)

    def test_rejects_bad_builder_entry(self):
        for n, builder, error in (
            (5, "bogus", ValidationError),
            (2.0, "binary", DimensionError),
            ("8", "prime", DimensionError),
            (True, "divisor", DimensionError),
        ):
            with pytest.raises(error):
                build_network(n, builder)
        net = build_network(np.int64(12), "prime")
        assert type(net.n) is int and validate_network(net).ok

    def test_rejects_bad_n_and_builder(self):
        net = Network(2, [[(0, 1)]], "binary")
        assert net.builder is Builder.BINARY
        assert network_to_json(net) == network_to_json(binary_network(2))
        for n, builder in (
            (2, "bogus"),
            (2.5, "binary"),
            ("5", "binary"),
            (True, "binary"),
            (0, "binary"),
            (10**30, "binary"),
        ):
            with pytest.raises(ValidationError):
                Network(n, [[(0, 1)]], builder)


class TestSerialization:
    def test_json_schema(self):
        doc = json.loads(network_to_json(divisor_network(6)))
        assert list(doc) == ["n", "builder", "levels"]
        assert doc["n"] == 6
        assert doc["builder"] == "divisor"
        assert doc["levels"][0] == [{"indices": [0, 1, 2]}, {"indices": [3, 4, 5]}]

    def test_round_trip(self):
        for n in [2, 6, 8, 12]:
            for builder in Builder:
                net = build_network(n, builder)
                loaded = network_from_json(network_to_json(net))
                assert loaded.n == net.n
                assert loaded.builder == net.builder
                assert [
                    [c.indices for c in lev.comparators] for lev in loaded.levels
                ] == [[c.indices for c in lev.comparators] for lev in net.levels]

    @given(st.integers(2, 96), st.sampled_from(Builder))
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip_is_exact(self, n, builder):
        text = network_to_json(build_network(n, builder))
        assert network_to_json(network_from_json(text)) == text

    def test_from_json_rejects_invalid_networks(self):
        def doc(n, builder, *levels):
            return json.dumps(
                {
                    "n": n,
                    "builder": builder,
                    "levels": [[{"indices": idx} for idx in lev] for lev in levels],
                }
            )

        for text in (
            # executed [3, 1, 4, 2] to [1, 0, 1, 0], not a permutation
            doc(4, "binary", [[0, 1], [2, 3]]),
            # executed [0, 1, 2, 3] to [0, 1, 0, 0], reading 1.5 as 1
            doc(4, "binary", [[0, 1.5]]),
            doc(2, "binary", [[False, True]]),
            doc(6, "divisor", [[0, 1, 2], [3, 4]]),
            doc(2, "binary", [[1, 0]]),
            # a few bytes that must not make validation allocate N * N counts
            doc(100000, "binary", [[0, 1]]),
            # raised OverflowError while validation tagged positions by level
            doc(10**30, "binary", [[0, 1]]),
            doc(2.0, "binary", [[0, 1]]),
            doc(2, "unknown", [[0, 1]]),
            '{"n": 2, "builder": "binary", "levels": [[{"indices": [0, 1]}]',
            '{"n": 2, "builder": "binary", "levels": [[[0, 1]]]}',
            '{"n": 2, "builder": "binary"}',
            "[]",
        ):
            with pytest.raises(ValidationError):
                network_from_json(text)

    def test_json_matches_pinned_layout(self):
        pinned = json.loads(
            (Path(__file__).parent / "data" / "network_json_sha256.json").read_text()
        )
        for builder, digests in pinned.items():
            for n, digest in digests.items():
                text = network_to_json(build_network(int(n), builder))
                assert hashlib.sha256(text.encode()).hexdigest() == digest, (n, builder)

    def test_dot_export(self):
        dot = network_to_dot(divisor_network(6))
        assert dot.count('label="C_3"') == 2
        assert dot.count('label="C_2"') == 9
        assert dot.count("subgraph cluster_") == 4
        assert "adder" in dot
