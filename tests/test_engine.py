import csv
import io
import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranknet import engine, netbuild
from ranknet import (
    Builder,
    Comparator,
    DimensionError,
    InvalidKey,
    Level,
    Network,
    PermutationError,
    ValidationError,
    apply_permutation,
    build_network,
    comparison_matrix,
    delta_identity_check,
    divisor_network,
    execute,
    half_vectorize,
    integer_matrix_rank,
    is_realizable,
    network_to_dot,
    network_to_json,
    partial_rank_count,
    partial_rank_table,
    prime_network,
    rank,
    row_sum_ranks,
    stable_rank,
    table_to_csv,
    validate_network,
)

TABLE1_X = [5, 12, 2, 3, 5, 7, 8, 6]
TABLE1_PI = [2, 7, 0, 1, 3, 5, 6, 4]


def single_comparator_net(n):
    return Network(n, [Level([Comparator(tuple(range(n)))])], Builder.DIVISOR)


class TestExecute:
    def test_table1_example(self):
        assert execute(divisor_network(8), TABLE1_X).tolist() == TABLE1_PI

    def test_single_comparator(self):
        net = single_comparator_net(3)
        assert execute(net, [6.4, -9.3, 0.1]).tolist() == [2, 0, 1]

    def test_random_against_stable_rank(self):
        rng = np.random.default_rng(1)
        net = prime_network(6)
        for _ in range(500):
            x = rng.integers(0, 4, 6) if rng.random() < 0.5 else rng.standard_normal(6)
            assert np.array_equal(execute(net, x), stable_rank(x))

    @given(st.integers(2, 96), st.sampled_from(Builder), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_stable_rank_property(self, n, builder, data):
        x = data.draw(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n)  # many ties
            | st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n)
        )
        assert np.array_equal(execute(build_network(n, builder), x), stable_rank(x))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            execute(divisor_network(8), [1, 2, 3])

    @pytest.mark.parametrize("k", range(2, 10))  # both sides of the pair-win cutoff
    def test_single_comparator_keys(self, k):
        net = Network(k, [[tuple(range(k))]], Builder.DIVISOR)
        rng = np.random.default_rng(k)
        offsets = rng.integers(0, 3, (20, k))
        keys = [
            *offsets,  # heavy ties
            *np.where(offsets > 0, 0.0, -0.0),  # signed zeros compare equal
            *np.where(offsets == 2, -1.5, np.where(offsets > 0, 0.0, -0.0)),
            *(np.int64(2**62) + offsets),  # float64 would merge neighbours
            [2**62 + 1 - i % 2 for i in range(k)],
            *(np.uint64(2**63) + offsets.astype(np.uint64)),  # beyond int64
            np.array([2**64 - 1 - i % 2 for i in range(k)], dtype=np.uint64),
        ]
        for x in keys:
            assert np.array_equal(execute(net, x), stable_rank(x)), x

    def test_exhaustive_small(self):
        for n in range(2, 6):
            nets = [build_network(n, b) for b in Builder]
            for perm in permutations(range(n)):
                expect = stable_rank(list(perm))
                for net in nets:
                    assert np.array_equal(execute(net, list(perm)), expect)

    def test_large_n_against_stable_rank(self):
        rng = np.random.default_rng(4096)
        for builder in Builder:
            net = build_network(4096, builder)
            for _ in range(2):
                x = rng.integers(0, 200, 4096)  # plenty of duplicates
                assert np.array_equal(execute(net, x), stable_rank(x))

    @pytest.mark.parametrize("n", [36, 81, 105, 243, 576])
    def test_index_kernel_stays_a_reference(self, n):
        # a copy of a built network has no plan: its pair check gives it one
        # run per arity group, so execute runs the whole groups by the index
        # kernel, while the built network runs its builder's plan
        x = np.random.default_rng(n).integers(0, max(n // 8, 2), n)  # many ties
        for builder in Builder:
            built = build_network(n, builder)
            copy = Network(n, built.levels, builder)
            reference = execute(copy, x)
            assert [kind for (kind, *_), _ in copy._plan] == ["rows"] * len(copy.arity_groups())
            assert np.array_equal(execute(built, x), reference), (n, builder)
            assert np.array_equal(rank(x, builder), reference), (n, builder)

    def test_determinism_across_workers(self):
        rng = np.random.default_rng(2)
        net = prime_network(128)
        for _ in range(10):
            x = rng.integers(0, 40, 128)
            results = [execute(net, x, workers=w) for w in (1, 2, 8)]
            assert np.array_equal(results[0], results[1])
            assert np.array_equal(results[0], results[2])


class TestRank:
    # 1 cell: tiles of one key against one, up to N = 64 for time; 7: tiles
    # that split a block's keys and the keys after it; the default: tiles
    # of whole blocks, and of several rows of small blocks
    @pytest.mark.parametrize("cells", [1, 7, engine._TILE_CELLS])
    def test_equals_execute(self, monkeypatch, cells):
        monkeypatch.setattr(engine, "_TILE_CELLS", cells)
        rng = np.random.default_rng(cells)
        assert rank([7], "binary").tolist() == [0]
        for n in range(2, 65 if cells == 1 else 129):
            x = rng.integers(0, max(n // 8, 2), n)  # many ties
            for builder in Builder:
                expect = execute(build_network(n, builder), x)
                got = rank(x, builder)
                assert got.dtype == expect.dtype and np.array_equal(got, expect), (n, builder)

    @pytest.mark.parametrize("cells", [7, engine._TILE_CELLS])
    def test_compares_each_pair_once(self, monkeypatch, cells):
        # the positions compared, recorded at rank's compares and its block
        # run's row sort with keys that are their own positions: a built network's pairs, each once.
        # 81, 243, 576 and 972 hold many blocks of small D
        monkeypatch.setattr(engine, "_TILE_CELLS", cells)
        pairs = []

        def wins(acc_lo, x_lo, acc_hi, x_hi, upper=None):
            lo, hi = np.broadcast_arrays(x_lo[..., :, None], x_hi[..., None, :])
            met = np.ones(lo.shape, dtype=bool) if upper is None else np.broadcast_to(upper, lo.shape)
            pairs.append(np.stack([lo[met], hi[met]], axis=1))
            compare(acc_lo, x_lo, acc_hi, x_hi, upper)

        def stable_ranks(keys):
            # a block run's rows, sorted
            pairs.extend(keys[:, [i, j]] for i, j in combinations(range(keys.shape[1]), 2))
            return sort_rows(keys)

        compare, sort_rows = engine._wins, engine._stable_ranks
        monkeypatch.setattr(engine, "_wins", wins)
        monkeypatch.setattr(engine, "_stable_ranks", stable_ranks)
        sizes = (2, 9, 12, 30, 64, 81, 105, 243, 576, 972) if cells > 7 else (2, 9, 12, 30, 64, 81, 105)
        for n in sizes:
            for builder in Builder:
                pairs.clear()
                assert np.array_equal(rank(np.arange(n), builder), np.arange(n))
                got = np.concatenate(pairs)
                assert (got[:, 0] < got[:, 1]).all() and len(got) == n * (n - 1) // 2
                groups = build_network(n, builder).arity_groups()
                expect = [g[:, [i, j]] for k, g in groups.items() for i, j in combinations(range(k), 2)]
                codes = [np.sort(p[:, 0] * n + p[:, 1]) for p in (got, np.concatenate(expect))]
                assert np.array_equal(*codes), (n, builder)

    def test_strided_keys(self):
        # keys that are not one contiguous array: reversed, every other, a
        # column of a 2-D array, and reversed every other
        rng = np.random.default_rng(5)
        for n in (2, 9, 30, 81, 105, 243, 576):
            table = rng.integers(0, max(n // 4, 2), (2 * n, 3))
            for x in (table[::-1, 0][:n], table[::2, 1], table[:n, 2], rng.standard_normal(2 * n)[::-2]):
                for builder in Builder:
                    assert np.array_equal(rank(x, builder), stable_rank(x)), (n, builder)

    def test_large_n_against_stable_rank(self):
        # prime N = 16384 holds about 2**31 bytes of indices, at the group budget
        x = np.random.default_rng(16384).integers(0, 5000, 16384)
        assert np.array_equal(rank(x, "prime"), stable_rank(x))

    def test_no_group_is_allocated(self, monkeypatch):
        # a budget that no group of N = 60 fits stands in for a network too
        # large to build; rank never sizes a group
        monkeypatch.setattr(netbuild, "_CHECK_BYTES", 100)
        x = np.random.default_rng(60).integers(0, 10, 60)
        for builder in Builder:
            with pytest.raises(DimensionError, match="needs"):
                build_network(60, builder)
            assert np.array_equal(rank(x, builder), stable_rank(x))

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            rank([1, 2], "bogus")
        with pytest.raises(ValidationError):
            rank([1], "bogus")
        with pytest.raises(DimensionError):
            rank([], "prime")


class TestKernel:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_both_routes_are_exact(self, k):
        # rows on either side of the sort threshold and of the pair-win
        # arity cutoff, sharing positions across rows, column-major as the
        # groups are, with many ties
        t = engine._SORT_ROWS
        rng = np.random.default_rng(k)
        for m in (1, 2, 3, t - 1, t, t + 1, 1000):
            n = 3 * k
            x = rng.integers(0, 3, n)
            rows = np.sort(np.argsort(rng.random((m, n)), axis=1)[:, :k], axis=1)
            idx = np.asfortranarray(rows)
            expect = np.zeros(n, dtype=np.int64)
            for row in rows:
                expect[row] += stable_rank(x[row])
            got = engine._accumulate(np.zeros(n, dtype=np.int64), x, idx)
            assert np.array_equal(got, expect), (k, m)

    def test_sort_route_is_batched(self):
        # prime N = 2401 is one 7-ary group of 137200 rows (7.7 MB): taken
        # whole, the sort route's temporaries peaked at 15 MB
        net = prime_network(2401)
        x = np.random.default_rng(2401).integers(0, 100, 2401)
        tracemalloc.start()
        try:
            got = execute(net, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, stable_rank(x))
        assert peak < 4 * 2**20, peak


@st.composite
def pair_networks(draw):
    """A hand-built binary network on N <= 8 positions, one level per pair, from
    a shuffled list holding each pair 0, 1 or 2 times, and keys with ties."""
    n = draw(st.integers(2, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # mostly once, so that networks covering every pair once are drawn too
    times = draw(st.lists(st.sampled_from([1, 1, 1, 1, 1, 0, 2]),
                          min_size=len(pairs), max_size=len(pairs)))
    listed = draw(st.permutations([p for p, t in zip(pairs, times) for _ in range(t)]))
    x = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return n, listed, x, sorted(listed) == pairs


class TestPairGate:
    # Network(4, [[(0, 1), (2, 3)]]) executed [3, 1, 4, 2] to [1, 0, 1, 0]; the
    # second network has the right pair total but covers (0, 1) and (2, 3) twice
    # and (0, 3) and (1, 2) never, and executed [0, 1, 2, 3] to [0, 2, 1, 3]
    @pytest.mark.parametrize(
        "levels, x",
        [
            ([[(0, 1), (2, 3)]], [3, 1, 4, 2]),
            ([[(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 1), (2, 3)]], [0, 1, 2, 3]),
        ],
        ids=["pair-total", "pair-twice"],
    )
    def test_bad_pair_coverage_raises(self, levels, x):
        for run in (execute, partial_rank_table):
            with pytest.raises(ValidationError, match="invalid binary network: "):
                run(Network(4, levels, Builder.BINARY), x)

    @given(pair_networks())
    @settings(max_examples=200, deadline=None)
    def test_hand_built_pairs_rank_exactly_or_raise(self, case):
        n, listed, x, exact = case
        net = Network(n, [[p] for p in listed], Builder.BINARY)
        try:
            pi = execute(net, x)
        except ValidationError:
            assert not exact
        else:
            assert exact and np.array_equal(pi, stable_rank(x))

    def test_each_network_is_checked_once(self, monkeypatch):
        checks = []

        def counted(net):
            checks.append(net.n)
            return pair_violations(net)

        pair_violations = netbuild._pair_violations
        monkeypatch.setattr(netbuild, "_pair_violations", counted)
        x = [2, 0, 1, 1, 3]
        for builder in Builder:  # exact by construction
            execute(build_network(5, builder), x)
        assert checks == []
        hand_built = Network(5, [level.indices for level in prime_network(5).levels], "prime")
        for _ in range(2):
            assert execute(hand_built, x).tolist() == stable_rank(x).tolist()
            partial_rank_table(hand_built, x)
        assert checks == [5]
        validated = Network(5, hand_built.levels, "prime")
        assert netbuild.validate_network(validated).ok  # validate_network always checks
        execute(validated, x)
        assert checks == [5, 5]

    def test_pair_check_keeps_a_builders_plan(self, monkeypatch):
        # prime N = 128 is one binary group: as one run of rows it goes by
        # pair wins and sorts nothing, while the builder's plan sorts its
        # block run of 64 rows once. validate_network's pair check once
        # replaced the plan with runs of whole groups.
        sorts = []

        def stable_ranks(keys):
            sorts.append(keys.shape)
            return sort_rows(keys)

        sort_rows = engine._stable_ranks
        monkeypatch.setattr(engine, "_stable_ranks", stable_ranks)
        net = prime_network(128)
        plan = net._plan
        assert [kind for (kind, *_), _ in plan] == ["block"] + ["cross"] * 6
        assert netbuild.validate_network(net).ok
        assert net._plan is plan
        x = np.random.default_rng(128).integers(0, 16, 128)
        assert np.array_equal(execute(net, x), stable_rank(x))
        assert sorts == [(64, 2)]


class TestPartialRankTable:
    def test_table1_columns(self):
        table = partial_rank_table(divisor_network(8), TABLE1_X)
        cols = [col.tolist() for _, col in table.columns]
        # quaternary column, with the i=5 entry that the printed table
        # misprints as 0 (row sums force 2)
        assert cols[0] == [2, 3, 0, 1, 0, 2, 3, 1]
        assert cols[1] == [0, 1, 0, 0, 1, 0, 1, 1]  # k = 0
        assert cols[3] == [0, 1, 0, 0, 1, 1, 1, 0]  # k = 2
        assert table.total.tolist() == TABLE1_PI
        assert sum(np.asarray(c) for c in cols).tolist() == TABLE1_PI

    def test_prime_input_single_column(self):
        x = [3.5, -1.0, 9.9, 0.0, 2.2]
        table = partial_rank_table(divisor_network(5), x)
        assert len(table.columns) == 1
        assert table.columns[0][1].tolist() == stable_rank(x).tolist()

    def test_all_equal_input(self):
        for builder in Builder:
            table = partial_rank_table(build_network(6, builder), [7] * 6)
            assert sorted(table.total.tolist()) == list(range(6))

    def test_column_count_matches_analytics(self):
        for n in [4, 6, 8, 12, 30]:
            table = partial_rank_table(prime_network(n), list(range(n)))
            assert len(table.columns) == partial_rank_count(n)

    def test_overlapping_level_total_matches_execute(self):
        # level 0's comparators share position 0; the table once assigned
        # where execute adds, and its total came out [1, 1, 0]
        net = Network(3, [[(0, 1), (0, 2)], [(1, 2)]], Builder.BINARY)
        x = [2, 1, 0]
        table = partial_rank_table(net, x)
        assert table.total.tolist() == execute(net, x).tolist() == [2, 1, 0]

    def test_overlapping_ternary_level_total_matches_execute(self):
        # level 0's two 3-ary comparators share position 0; every pair is
        # still covered once, so the total is the stable rank
        net = Network(5, [[(0, 1, 2), (0, 3, 4)], [(1, 3), (2, 4)], [(1, 4), (2, 3)]], "prime")
        for x in ([4, 2, 2, 9, 0], [1, 1, 1, 1, 1], [3, 0, 7, 7, -2]):
            table = partial_rank_table(net, x)
            assert table.total.tolist() == execute(net, x).tolist() == stable_rank(x).tolist()

    @pytest.mark.parametrize("slots", [1, 100, 2**16])
    def test_batched_columns_match_each_level(self, monkeypatch, slots):
        # slots 1 takes one level a batch; 100 a few levels of N <= 50; the
        # default all of a run of levels for these N
        monkeypatch.setattr(netbuild, "_LEVEL_SLOTS", slots)
        rng = np.random.default_rng(7)
        nets = [build_network(n, b) for n in range(2, 65) for b in Builder]
        nets += [
            # the overlapping-level networks above
            Network(3, [[(0, 1), (0, 2)], [(1, 2)]], Builder.BINARY),
            Network(5, [[(0, 1, 2), (0, 3, 4)], [(1, 3), (2, 4)], [(1, 4), (2, 3)]], "prime"),
            # a 6-ary level, ranked by argsort and np.add.at, among pair levels
            Network(8, [[(0, 6), (1, 7)], [(1, 6), (0, 7)], [(0, 1, 2, 3, 4, 5)], [(2, 6), (3, 7)],
                        [(3, 6), (2, 7)], [(4, 6), (5, 7)], [(5, 6), (4, 7)], [(6, 7)]], "binary"),
        ]
        for net in nets:
            x = rng.integers(0, 4, net.n)
            table = partial_rank_table(net, x)
            assert [label for label, _ in table.columns] == [
                f"L{li}(C{level.arity})" for li, level in enumerate(net.levels)
            ]
            for (_, col), level in zip(table.columns, net.levels):
                expected = engine._accumulate(np.zeros(net.n, dtype=np.int64), x, level.indices)
                assert col.tolist() == expected.tolist(), (net.n, net.builder)
            assert table.total.tolist() == stable_rank(x).tolist()

    def test_csv_layout(self):
        table = partial_rank_table(divisor_network(8), TABLE1_X)
        lines = table_to_csv(table, TABLE1_X).strip().splitlines()
        assert lines[0].split(",")[0] == "i"
        assert lines[0].split(",")[-1] == "pi"
        assert lines[1] == "0,5,2,0,0,0,0,2"
        assert len(lines) == 9

    def test_refuses_a_table_past_the_budget(self, monkeypatch):
        # one pair a level passes the pair check; at N = 1000 its 499,500
        # levels would need a 4 GB table, here 780 levels of 40 need 249,600
        # bytes, and the groups 12,480
        net = Network(40, [[pair] for pair in combinations(range(40), 2)], "binary")
        x = np.arange(40)[::-1]
        monkeypatch.setattr(netbuild, "_CHECK_BYTES", 8 * 780 * 40 - 1)
        with pytest.raises(DimensionError, match="needs 249600 bytes"):
            partial_rank_table(net, x)
        monkeypatch.setattr(netbuild, "_CHECK_BYTES", 8 * 780 * 40)
        assert partial_rank_table(net, x).total.tolist() == stable_rank(x).tolist()

    @pytest.mark.parametrize(
        "x", [5, (v for v in range(4)), np.zeros((4, 2)), [[1], [2], [3], [4]], [[1, 2], [3]]],
        ids=["scalar", "generator", "2-d", "column", "ragged"],
    )
    def test_csv_refuses_x_that_is_no_vector(self, x):
        # the scalar and the generator raised a raw TypeError; the arrays
        # were written as cells such as "[0. 0.]"
        table = partial_rank_table(divisor_network(4), [4, 3, 2, 1])
        with pytest.raises(DimensionError, match="x must be 1-D"):
            table_to_csv(table, x)

    @pytest.mark.parametrize(
        "x", [[7, 2.5, "a", -1], np.array([0.5, 1.0, 2.0, 3.0]), np.arange(4), ("b", "a", "d", "c")]
    )
    def test_csv_writes_each_entry_of_x_as_given(self, x):
        table = partial_rank_table(divisor_network(4), [4, 3, 2, 1])
        rows = list(csv.reader(io.StringIO(table_to_csv(table, x))))
        assert [row[1] for row in rows[1:]] == [str(v) for v in x]

    @pytest.mark.parametrize("x", [[1, 2], [1, 2, 3, 4, 5]])
    def test_csv_rejects_x_of_other_length(self, x):
        # a shorter x raised a raw IndexError, a longer one was cut silently
        table = partial_rank_table(divisor_network(4), [4, 3, 2, 1])
        with pytest.raises(DimensionError):
            table_to_csv(table, x)


class TestTileProperty:
    @pytest.mark.parametrize("builder", list(Builder))
    def test_local_matrices_assemble_global(self, builder):
        rng = np.random.default_rng(3)
        for n in [4, 6, 8, 9, 12]:
            net = build_network(n, builder)
            for _ in range(10):
                x = rng.integers(0, n, n)
                acc = np.zeros((n, n), dtype=np.int64)
                for comp in net.comparators():
                    idx = np.array(comp.indices)
                    local = comparison_matrix(x[idx]).astype(np.int64)
                    acc[np.ix_(idx, idx)] += local
                full = comparison_matrix(x).astype(np.int64)
                off = ~np.eye(n, dtype=bool)
                assert np.array_equal(acc[off], full[off])


class TestApplyPermutation:
    def test_examples(self):
        out = apply_permutation(np.array([6.4, -9.3, 0.1]), [2, 0, 1])
        assert out.tolist() == [-9.3, 0.1, 6.4]
        out = apply_permutation(np.array(TABLE1_X), TABLE1_PI)
        assert out.tolist() == [2, 3, 5, 5, 6, 7, 8, 12]
        x = np.array([3, 1, 2])
        assert np.array_equal(apply_permutation(x, [0, 1, 2]), x)

    def test_rejects_non_permutation(self):
        with pytest.raises(PermutationError):
            apply_permutation(np.array([1.0, 2.0]), [0, 0])

    @pytest.mark.parametrize("pi", [[1.5, 0.2], [True, False], ["1", "0"], [2**64, 0]])
    def test_rejects_non_integer_pi(self, pi):
        # each was once cast to int64: the first three gave [20, 10], the
        # last a raw OverflowError
        with pytest.raises(PermutationError):
            apply_permutation([10, 20], pi)

    def test_names_an_integer_past_int64(self):
        # numpy reads the list as objects, and the message blamed that dtype
        with pytest.raises(PermutationError, match=f"pi holds {2**64}, past int64"):
            apply_permutation([1, 2], [2**64, 0])

    def test_takes_an_object_array_of_integers(self):
        # it was returned unscanned, and refused for its dtype
        pi = np.array([1, 0], dtype=object)
        assert apply_permutation([1, 2], pi).tolist() == [2, 1]
        with pytest.raises(PermutationError, match=f"pi holds {2**64}, past int64"):
            apply_permutation([1, 2], np.array([2**64, 0], dtype=object))

    def test_sorted_and_stable(self):
        rng = np.random.default_rng(4)
        for builder in Builder:
            for n in [5, 8, 12]:
                net = build_network(n, builder)
                for _ in range(20):
                    x = rng.integers(0, 4, n)
                    s = apply_permutation(x, execute(net, x))
                    assert (np.diff(s) >= 0).all()


# every key entry: rank by each builder, execute of a built network, stable_rank
KEY_ENTRIES = [lambda x, b=b: rank(x, b) for b in Builder] + [
    lambda x: execute(build_network(len(x), "prime"), x),
    stable_rank,
]
KEY_ENTRY_IDS = [f"rank-{b.value}" for b in Builder] + ["execute", "stable_rank"]


class TestEntryRefusals:
    @pytest.mark.parametrize("entry", KEY_ENTRIES, ids=KEY_ENTRY_IDS)
    @pytest.mark.parametrize(
        "x, big",
        [([2**53 + 1, 2**53, 0.5], 2**53 + 1), ([2**63 + 1, 2**63, 0], 2**63 + 1)],
        ids=["beside-decimal", "past-int64"],
    )
    def test_refuses_integers_float64_would_round(self, entry, x, big):
        # numpy read both lists as float64, and each ranked as [1, 2, 0]
        # where the stable rank is [2, 1, 0]
        with pytest.raises(InvalidKey, match=f"integer {big} "):
            entry(x)

    @pytest.mark.parametrize("entry", KEY_ENTRIES, ids=KEY_ENTRY_IDS)
    @pytest.mark.parametrize("x", [[2**53, 0.5], [2**63, -1], np.array([2.0**53 + 2, 2.0**53])])
    def test_keys_float64_holds_exactly_still_rank(self, entry, x):
        assert entry(x).tolist() == [1, 0]

    @pytest.mark.parametrize(
        "call, expected",
        [
            (lambda: Level([[np.uint64(0), np.int64(1)]]).indices.tolist(), [[0, 1]]),
            (lambda: integer_matrix_rank([[np.uint64(1), np.int64(2)], [3, 4]]), 2),
            (lambda: apply_permutation([1, 2], [np.uint64(1), np.int64(0)]).tolist(), [2, 1]),
        ],
        ids=["Level", "integer_matrix_rank", "apply_permutation"],
    )
    def test_mixed_numpy_integer_scalars_are_integers(self, call, expected):
        # numpy promotes a mix of uint64 and int64 scalars to float64, and
        # each refused the valid integers by that dtype
        assert call() == expected

    @pytest.mark.parametrize(
        "call",
        [
            stable_rank,
            lambda x: rank(x, "binary"),
            lambda x: execute(build_network(2, "binary"), x),
            lambda x: partial_rank_table(build_network(2, "binary"), x),
            comparison_matrix,
            row_sum_ranks,
            is_realizable,
            half_vectorize,
            delta_identity_check,
            lambda x: apply_permutation(x, [0, 1]),
            lambda pi: apply_permutation([1, 2], pi),
            integer_matrix_rank,
        ],
        ids=["stable_rank", "rank", "execute", "partial_rank_table", "comparison_matrix",
             "row_sum_ranks", "is_realizable", "half_vectorize", "delta_identity_check",
             "apply_permutation", "apply_permutation-pi", "integer_matrix_rank"],
    )
    def test_ragged_rows_raise_dimension_error(self, call):
        # numpy's raw ValueError, before
        with pytest.raises(DimensionError, match="ragged"):
            call([[1, 2], [3]])

    @pytest.mark.parametrize(
        "call, expected",
        [
            (lambda: execute([[(0, 1)]], [1, 0]), "a Network"),
            (lambda: partial_rank_table(2, [1, 0]), "a Network"),
            (lambda: validate_network("binary"), "a Network"),
            (lambda: network_to_json(None), "a Network"),
            (lambda: network_to_dot({"n": 2}), "a Network"),
            (lambda: table_to_csv(build_network(2, "binary")), "a PartialRankTable"),
        ],
        ids=["execute", "partial_rank_table", "validate_network", "network_to_json",
             "network_to_dot", "table_to_csv"],
    )
    def test_wrong_argument_kind_raises_validation_error(self, call, expected):
        # a raw AttributeError, before
        with pytest.raises(ValidationError, match=f"expected {expected}, got "):
            call()
