import dataclasses
import hashlib
import json
import re
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranknet import netbuild
from ranknet import (
    Builder,
    Comparator,
    DimensionError,
    DomainError,
    Level,
    Network,
    RankNetError,
    ValidationError,
    ValidationReport,
    ascending_factorization,
    binary_network,
    build_network,
    divisor_network,
    execute,
    index_vector_v,
    index_vector_w,
    network_from_json,
    network_to_dot,
    network_to_json,
    prime_network,
    smallest_prime_factor,
    stable_rank,
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


def invalid_document(n, builder, *levels):
    return json.dumps(
        {"n": n, "builder": builder, "levels": [[{"indices": idx} for idx in lev] for lev in levels]}
    )


INVALID_DOCUMENTS = [
    # executed [3, 1, 4, 2] to [1, 0, 1, 0], not a permutation
    invalid_document(4, "binary", [[0, 1], [2, 3]]),
    # executed [0, 1, 2, 3] to [0, 1, 0, 0], reading 1.5 as 1
    invalid_document(4, "binary", [[0, 1.5]]),
    invalid_document(2, "binary", [[False, True]]),
    invalid_document(6, "divisor", [[0, 1, 2], [3, 4]]),
    invalid_document(2, "binary", [[1, 0]]),
    # a few bytes that must not make validation allocate N * N counts
    invalid_document(100000, "binary", [[0, 1]]),
    # nor N position slots: raised DimensionError, not the pair total
    invalid_document(300_000_000, "binary"),
    # a position of 2**28 or more: raised DimensionError for int64 slots up
    # to it, where [0, 1] under the same n got its pair total
    invalid_document(2**28 + 1, "binary", [[0, 2**28]]),
    # raised OverflowError while validation tagged positions by level
    invalid_document(10**30, "binary", [[0, 1]]),
    invalid_document(2.0, "binary", [[0, 1]]),
    invalid_document(2, "unknown", [[0, 1]]),
    '{"n": 2, "builder": "binary", "levels": [[{"indices": [0, 1]}]',
    '{"n": 2, "builder": "binary", "levels": [[[0, 1]]]}',
    '{"n": 2, "builder": "binary"}',
    "[]",
]


def reference_violations(net):
    """validate_network's report, computed position by position in Python."""
    n, levels = net.n, [lv.indices.tolist() for lv in net.levels]
    v = []
    if net.builder == Builder.PRIME:
        v += [f"level {li}: non-prime arity {len(lv[0])}" for li, lv in enumerate(levels)
              if smallest_prime_factor(len(lv[0])) != len(lv[0])]
    gaps = []
    for li, lv in enumerate(levels):
        count = Counter(i for row in lv for i in row)
        if any(t > 1 for t in count.values()):
            v.append(f"level {li}: comparators overlap at {sorted(i for i, t in count.items() if t > 1)}")
        if net.builder != Builder.BINARY and len(count) < n:
            gaps.append(f"level {li}: does not cover all {n} positions")
    v += gaps
    pairs = pair_counter(net)
    total, expected = sum(pairs.values()), n * (n - 1) // 2
    if total != expected:
        return v + [f"comparators cover {total} pairs, not the {expected} of {n} positions"]
    bad = [(i, j) for i in range(n) for j in range(i + 1, n) if pairs[i, j] != 1]
    v += [f"pair ({i},{j}) covered {pairs[i, j]} times" for i, j in bad[:10]]
    if len(bad) > 10:
        v.append(f"... and {len(bad) - 10} more pair-coverage violations")
    return v


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
            (4, [[(0, 1), (2, 3)]], "binary",
             ["comparators cover 2 pairs, not the 6 of 4 positions"], None),
            # the right pair total, but (0, 1) and (2, 3) twice and (0, 3) and
            # (1, 2) never: executed [0, 1, 2, 3] to the permutation [0, 2, 1, 3]
            (4, [[(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 1), (2, 3)]], "binary",
             ["pair (0,1) covered 2 times", "pair (0,3) covered 0 times",
              "pair (1,2) covered 0 times", "pair (2,3) covered 2 times"], None),
            # slots reach the largest position named, so a huge N allocates nothing
            (300_000_000, [], "binary",
             ["comparators cover 0 pairs, not the 44999999850000000 of 300000000 positions"],
             None),
            (2**32, [[(0, 1)]], "binary",
             ["comparators cover 1 pairs, not the 9223372034707292160 of 4294967296 positions"],
             None),
            # no check array is sized by the largest position named
            (2**28 + 1, [[(0, 2**28)]] * 3, "binary",
             ["comparators cover 3 pairs, not the 36028797153181696 of 268435457 positions"],
             None),
            # position 0 three times: two occurrences lost, so 4 distinct of 5;
            # one lost per repeated position would count 5 and cover all
            (5, [[(0, 1), (0, 2), (0, 3)]], "divisor",
             ["level 0: comparators overlap at [0]", "level 0: does not cover all 5 positions",
              "comparators cover 3 pairs, not the 10 of 5 positions"], None),
            (6, [[(0, 1), (2, 3), (4, 5)]] * 5, "binary",
             ["pair (0,1) covered 5 times"]
             + [f"pair ({i},{j}) covered 0 times" for i, j in
                [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5)]]
             + ["pair (2,3) covered 5 times", "... and 5 more pair-coverage violations"],
             None),
            # one (N-1)-ary comparator plus N-1 pairs, one of them repeated: a
            # pair seen twice within one batch of codes, which is one group column
            (6, [[(0, 1, 2, 3, 4)], [(0, 5)], [(1, 5)], [(2, 5)], [(3, 5)], [(3, 5)]], "binary",
             ["pair (3,5) covered 2 times", "pair (4,5) covered 0 times"], None),
            # the same with all pairs in one level, sharing their first position
            (6, [[(1, 2, 3, 4, 5)], [(0, 1), (0, 2), (0, 3), (0, 4), (0, 1)]], "binary",
             ["level 1: comparators overlap at [0, 1]",
              "pair (0,1) covered 2 times", "pair (0,5) covered 0 times"], None),
        ],
        ids=["overlap", "coverage", "arity", "pair-total", "pair-twice", "huge-n-no-pairs",
         "huge-n-one-pair", "huge-position", "three-times", "pairs-over-10", "wide-plus-pairs",
         "wide-plus-pairs-one-level"],
    )
    def test_level_violations(self, n, levels, builder, violations, valid_as):
        report = validate_network(Network(n, levels, builder))
        assert report == ValidationReport(False, violations)
        if valid_as:
            assert validate_network(Network(n, levels, valid_as)).ok

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_reports_match_reference(self, data):
        # builder networks with levels dropped, repeated, rewritten or grown,
        # so that many keep the right pair total; small batch and chunk sizes
        # send the batched checks across several batches and chunks, and a
        # network naming position N-1 level by level
        n = data.draw(st.integers(2, 13))
        builder = data.draw(st.sampled_from(Builder))
        levels = [lv.indices.tolist() for lv in build_network(n, data.draw(st.sampled_from(Builder))).levels]
        for _ in range(data.draw(st.integers(0, 3))):
            li = data.draw(st.integers(0, len(levels) - 1))
            k = len(levels[li][0])
            row = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)))
            edit = data.draw(st.sampled_from(["drop", "repeat", "rewrite", "grow"]))
            if edit == "drop" and len(levels) > 1:
                levels.pop(li)
            elif edit == "repeat":
                levels.insert(data.draw(st.integers(0, len(levels))), levels[li])
            elif edit == "rewrite":
                levels[li] = levels[li][1:] + [row]
            else:
                levels[li] = levels[li] + [row]
        net = Network(n, levels, builder)
        expected = reference_violations(net)
        with pytest.MonkeyPatch.context() as mp:
            for slots, chunk in ((2**16, 2**16), (n - 1, 3)):
                mp.setattr(netbuild, "_LEVEL_SLOTS", slots)
                mp.setattr(netbuild, "_PAIR_CHUNK", chunk)
                assert validate_network(net).violations == expected

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

    def test_check_budget(self, monkeypatch):
        # a budget below 16 * 16 bytes stands in for an N whose N * N pair
        # bitmap would not fit, such as one 50000-ary comparator read from JSON
        n, x = 16, [3, 1, 2, 0, 5, 5, 1, 9, 0, 4, 4, 7, 2, 8, 6, 1]
        built = binary_network(n)  # before the budget: its 1920-byte group would not fit
        hand_built = Network(n, [level.indices for level in built.levels], "binary")
        monkeypatch.setattr(netbuild, "_CHECK_BYTES", n * n - 1)
        for check in (validate_network, lambda net: execute(net, x)):
            with pytest.raises(DimensionError, match=f"needs {n * n} bytes"):
                check(hand_built)
        # builder output runs unchecked, and a wrong pair total needs no bitmap
        assert execute(built, x).tolist() == stable_rank(x).tolist()
        short = Network(n, [[(0, 1)]], "binary")
        assert validate_network(short).violations == [
            "comparators cover 1 pairs, not the 120 of 16 positions"
        ]
        # no check allocates by the largest position named, so a network naming
        # N - 1 gets its report under a budget below 8 bytes per position
        monkeypatch.setattr(netbuild, "_CHECK_BYTES", 8 * n - 1)
        assert validate_network(Network(n, [[(0, n - 1)]], "binary")).violations == [
            "comparators cover 1 pairs, not the 120 of 16 positions"
        ]

    @pytest.mark.parametrize(
        "n, builder", [(16, "binary"), (15, "binary"), (12, "divisor"), (30, "prime"), (7, "prime")]
    )
    def test_build_budget(self, monkeypatch, n, builder):
        # a budget one byte below the largest arity group stands in for a
        # network too large to hold, such as binary N > 16384 under 2**31
        net = build_network(n, builder)
        levels = [level.indices for level in net.levels]
        largest = max(g.nbytes for g in net.arity_groups().values())
        monkeypatch.setattr(netbuild, "_CHECK_BYTES", largest - 1)
        for build in (lambda: build_network(n, builder), lambda: Network(n, levels, builder)):
            with pytest.raises(DimensionError, match=f"needs {largest} bytes"):
                build()
        monkeypatch.setattr(netbuild, "_CHECK_BYTES", largest)
        assert [lv.indices.tolist() for lv in build_network(n, builder).levels] == [
            idx.tolist() for idx in levels
        ]

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


def assert_read_only_columns(net):
    """Each arity group column-major and read-only, with a read-only base, so
    that neither it nor a level can be made writable again. (numpy lets the
    array that owns the memory, the base, be made writable at any time.)"""
    for g in net.arity_groups().values():
        assert g.dtype == np.int64 and g.flags.f_contiguous
        assert not g.base.flags.writeable
        with pytest.raises(ValueError):
            g.flags.writeable = True
    for level in net.levels:
        with pytest.raises(ValueError):
            level.indices.flags.writeable = True


class TestLayout:
    @pytest.mark.parametrize("builder", list(Builder))
    def test_every_route_lays_out_read_only_columns(self, builder):
        for n in [*range(2, 201), 625, 729, 972, 1001, 1024]:
            net = build_network(n, builder)
            groups = net.arity_groups()
            assert_read_only_columns(net)
            others = [
                Network(n, [level.indices for level in net.levels], builder),
                network_from_json(network_to_json(net)),
            ]
            for other in others:
                assert_read_only_columns(other)
                assert list(other.arity_groups()) == list(groups), n
                for k, g in other.arity_groups().items():
                    assert np.array_equal(g, groups[k]), (n, k)


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
        for text in INVALID_DOCUMENTS:
            with pytest.raises(ValidationError):
                network_from_json(text)

    def test_fast_path_matches_json_loads(self):
        # network_from_json against its json.loads path, _network_from_doc:
        # the same network, or the same exception type and message
        def outcome(load, text):
            try:
                net = load(text)
            except RankNetError as exc:
                return type(exc), str(exc)
            return network_to_json(net), {k: g.tolist() for k, g in net.arity_groups().items()}

        canonical = [network_to_json(build_network(n, b)) for n in (2, 7, 12, 30) for b in Builder]
        text = canonical[-1]  # prime N = 30, whose first level is [{"indices": [0, 1]}, ...
        first = '[{"indices": [0, '
        perturbed = [
            text.replace(", ", ","),
            text.replace(": ", ":"),
            " " + text,
            text + "\n",
            text.replace('{"n": 30, "builder": "prime"', '{"builder": "prime", "n": 30'),
            *(text.replace(first, f'[{{"indices": [{x}, ', 1)
              for x in ("1.0", "01", "-1", "true", "99999999999999999999")),
            text.replace('{"indices": [28, 29]}', '{"indices": [28, 99999999999999999999]}'),
            '{"n": 30, "builder": "prime", "levels": []}',
            '{"n": 1, "builder": "prime", "levels": []}',
            '{"n": 2, "builder": "binary", "levels": [[]]}',
            text + " ",
            text + "]}",
            text.encode(),
            text.replace('"n": 30', f'"n": {10**30}'),
            text.replace('"n": 30', '"n": 030'),
            text.replace('"prime"', '"bogus"'),
        ]
        # the header, then 10**5 levels with no ']': each must cost time in
        # its own bytes, not in the rest of the text, which would take about
        # half a minute here; json.loads rejects it at its first ','
        levels = '{"n": 30, "builder": "prime", "levels": [' + ",}], [{" * 10**5 + "]}"
        started = time.perf_counter()
        assert netbuild._canonical_network(levels) is None
        assert time.perf_counter() - started < 2
        for text in canonical:
            assert netbuild._canonical_network(text) is not None
        for text in [*canonical, *perturbed, levels, *INVALID_DOCUMENTS]:
            assert outcome(network_from_json, text) == outcome(netbuild._network_from_doc, text)

    @pytest.mark.parametrize(
        "n, builder", [(16, "binary"), (15, "binary"), (12, "divisor"), (30, "prime"), (7, "prime")]
    )
    def test_json_budget(self, monkeypatch, n, builder):
        # a budget one byte below the text stands in for a network whose text
        # would not fit, such as binary N = 16384 (about 3.7 GB); the bound is
        # taken from the group shapes, before any level is formatted
        net = build_network(n, builder)
        text = network_to_json(net)
        monkeypatch.setattr(netbuild, "_CHECK_BYTES", len(text) - 1)
        with pytest.raises(DimensionError, match="needs") as raised:
            network_to_json(net)
        bound = int(re.search(r"needs (\d+) bytes", str(raised.value))[1])
        assert len(text) <= bound <= 2 * len(text)
        monkeypatch.setattr(netbuild, "_CHECK_BYTES", bound)
        assert network_to_json(net) == text

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
