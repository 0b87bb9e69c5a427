import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranknet import netbuild
from ranknet import (
    DimensionError,
    DomainError,
    InvalidKey,
    comparison_matrix,
    delta_identity_check,
    delta_matrix,
    half_vectorize,
    integer_matrix_rank,
    is_realizable,
    row_sum_ranks,
    stable_rank,
)

S4 = [[0, 0, 0, 1], [1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 0, 0]]

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestStableRank:
    def test_examples(self):
        assert stable_rank([6.4, -9.3, 0.1]).tolist() == [2, 0, 1]
        assert stable_rank([-40.56, 10.76]).tolist() == [0, 1]
        assert stable_rank([5, 5]).tolist() == [0, 1]
        assert stable_rank([0, 1, 2]).tolist() == [0, 1, 2]

    def test_rejects_nan_and_inf(self):
        with pytest.raises(InvalidKey):
            stable_rank([1.0, float("nan")])
        with pytest.raises(InvalidKey):
            stable_rank([float("inf"), 0.0])

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            stable_rank([])

    @given(st.lists(finite_floats, min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_is_permutation(self, xs):
        r = stable_rank(xs)
        assert sorted(r.tolist()) == list(range(len(xs)))
        assert r.sum() == len(xs) * (len(xs) - 1) // 2

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_stability_with_duplicates(self, xs):
        r = stable_rank(xs)
        s = np.empty(len(xs), dtype=np.int64)
        s[r] = xs
        assert (np.diff(s) >= 0).all()
        # equal keys keep original relative order
        for v in set(xs):
            positions = [i for i in range(len(xs)) if xs[i] == v]
            assert sorted(r[positions].tolist()) == r[positions].tolist()


class TestComparisonMatrix:
    def test_examples(self):
        c = comparison_matrix([6.4, -9.3, 0.1])
        assert c.astype(int).tolist() == [[0, 1, 1], [0, 0, 0], [0, 1, 0]]
        assert comparison_matrix([-40.56, 10.76]).astype(int).tolist() == [
            [0, 0],
            [1, 0],
        ]
        assert comparison_matrix([5, 5]).astype(int).tolist() == [[0, 0], [1, 0]]

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=25))
    @settings(max_examples=80, deadline=None)
    def test_skew_symmetric_zero_diagonal(self, xs):
        c = comparison_matrix(xs)
        n = len(xs)
        assert not c.diagonal().any()
        off = ~np.eye(n, dtype=bool)
        assert (c[off] ^ c.T[off]).all()

    @given(st.lists(finite_floats, min_size=1, max_size=25))
    @settings(max_examples=80, deadline=None)
    def test_row_sums_equal_stable_rank(self, xs):
        assert np.array_equal(
            row_sum_ranks(comparison_matrix(xs)), stable_rank(xs)
        )

    def test_refuses_a_matrix_past_the_budget(self, monkeypatch):
        # a budget below 4 * 4 bytes stands in for an N whose N x N boolean
        # temporaries would not fit, 10 GB each at N = 10**5
        x = [3, 1, 2, 0]
        monkeypatch.setattr(netbuild, "_CHECK_BYTES", 15)
        with pytest.raises(DimensionError, match="needs 16 bytes"):
            comparison_matrix(x)
        monkeypatch.setattr(netbuild, "_CHECK_BYTES", 16)
        assert row_sum_ranks(comparison_matrix(x)).tolist() == [3, 1, 2, 0]


class TestRowSumRanks:
    def test_examples(self):
        assert row_sum_ranks([[0, 1, 1], [0, 0, 0], [0, 1, 0]]).tolist() == [2, 0, 1]
        assert row_sum_ranks([[0, 0], [1, 0]]).tolist() == [0, 1]
        assert row_sum_ranks(S4).tolist() == [1, 2, 2, 1]

    def test_rejects_broken_skew_symmetry(self):
        with pytest.raises(InvalidKey):
            row_sum_ranks([[0, 1], [1, 0]])
        with pytest.raises(InvalidKey):
            row_sum_ranks([[1, 1], [0, 0]])


@pytest.mark.parametrize("check", [row_sum_ranks, is_realizable, half_vectorize])
@pytest.mark.parametrize(
    "c",
    [
        [[0, 2], [0, 0]],
        [[0, 0.5], [0, 0]],
        [["", "x"], ["", ""]],
        np.array([[None, None], [1, None]], dtype=object),
        [["a", "b"], ["c", "d"]],
    ],
    ids=["two", "half", "text", "none", "letters"],
)
def test_comparison_entries_must_be_0_or_1(check, c):
    # each was cast to bool: the first four were read as valid matrices, and
    # the letters blamed the diagonal
    with pytest.raises(InvalidKey, match="0 or 1"):
        check(c)


class TestRealizability:
    def test_s4_counterexample(self):
        assert not is_realizable(S4)

    def test_images_of_sequences(self):
        assert is_realizable(comparison_matrix([6.4, -9.3, 0.1]))
        c = np.tril(np.ones((5, 5), dtype=bool), -1)
        assert is_realizable(c)  # nondecreasing sequence

    def test_brute_force_n4(self):
        # realizable 4x4 skew-symmetric matrices are exactly those whose
        # row sums are a permutation
        iu = np.triu_indices(4, 1)
        for bits in range(64):
            c = np.zeros((4, 4), dtype=bool)
            c[iu] = [(bits >> t) & 1 for t in range(6)]
            c |= np.tril(~c.T, -1)
            expect = sorted(c.sum(axis=1).tolist()) == [0, 1, 2, 3]
            assert is_realizable(c) == expect


class TestDeltaMatrix:
    def test_base_case(self):
        assert delta_matrix(2).tolist() == [[1], [-1]]

    def test_n3(self):
        assert delta_matrix(3).tolist() == [[1, 1, 0], [-1, 0, 1], [0, -1, -1]]

    def test_recursive_structure(self):
        for n in range(3, 9):
            d = delta_matrix(n)
            prev = delta_matrix(n - 1)
            m_prev = (n - 1) * (n - 2) // 2
            assert d.shape == (n, n * (n - 1) // 2)
            assert np.array_equal(d[: n - 1, :m_prev], prev)
            assert np.array_equal(d[: n - 1, m_prev:], np.eye(n - 1, dtype=np.int64))
            assert (d[n - 1, :m_prev] == 0).all()
            assert (d[n - 1, m_prev:] == -1).all()

    def test_column_sums_and_rank(self):
        for n in range(2, 12):
            d = delta_matrix(n)
            assert (d.sum(axis=0) == 0).all()
            assert integer_matrix_rank(d) == n - 1

    def test_rejects_small_n(self):
        with pytest.raises(DimensionError):
            delta_matrix(1)

    @pytest.mark.parametrize("n", [2.5, "3"])
    def test_takes_n_as_integer(self, n):
        with pytest.raises(DimensionError):
            delta_matrix(n)

    def test_refuses_a_matrix_past_the_budget(self):
        # numpy's raw ValueError, before
        with pytest.raises(DimensionError, match="bytes in one array"):
            delta_matrix(2**70)


class TestIntegerMatrixRank:
    def test_examples(self):
        assert integer_matrix_rank([[1, 2], [2, 4]]) == 1
        assert integer_matrix_rank([[0, 1], [1, 0]]) == 2
        assert integer_matrix_rank(np.eye(3, dtype=bool)) == 3
        assert integer_matrix_rank(np.array([[2**63]], dtype=np.uint64)) == 1
        assert integer_matrix_rank([[]]) == 0

    @pytest.mark.parametrize(
        "m",
        [
            # determinant 2**64: the int64 products of elimination overflowed
            # to rank 1
            [[-4294967296, -4294967296], [-2, -4294967298]],
            # the truncated floats had rank 2, the matrix has rank 1
            [[0.5, 1], [1, 2]],
            # raw ValueError
            [["a"]],
            # an entry past 2**63: raw OverflowError
            [[2**63, 0], [0, 1]],
            # entries that grow past 2**31 in elimination: raw OverflowError
            [[2**30, 1, 0], [1, 2**30, 0], [0, 0, 1]],
        ],
        ids=["overflow", "float", "text", "past-int64", "growth"],
    )
    def test_refuses_what_it_cannot_rank_exactly(self, m):
        with pytest.raises(DomainError):
            integer_matrix_rank(m)

    def test_leaves_its_argument_unchanged(self):
        m = np.array([[2, 4, 1], [1, 3, 5], [0, 7, 2]])
        assert integer_matrix_rank(m) == 3
        assert m.tolist() == [[2, 4, 1], [1, 3, 5], [0, 7, 2]]

    def test_names_the_integer_past_int64(self):
        # numpy reads the list as float64, and the message blamed that dtype
        with pytest.raises(DomainError, match=f"entry {2**63} is past int64"):
            integer_matrix_rank([[2**63, 0], [0, 1]])

    def test_reads_an_object_array_as_its_list(self):
        # an object array was returned unscanned and refused as "dtype object"
        m = [[2, 1], [4, 2]]
        assert integer_matrix_rank(np.array(m, dtype=object)) == integer_matrix_rank(m) == 1
        with pytest.raises(DomainError, match=f"entry {2**64} is past int64"):
            integer_matrix_rank(np.array([[2**64, 0], [0, 1]], dtype=object))
        # a float array is left as it is, and refused for its dtype
        with pytest.raises(DomainError, match="dtype float64"):
            integer_matrix_rank(np.array(m, dtype=float))


class TestHalfVectorize:
    def test_ordering_example(self):
        c = [[0, 1, 1], [0, 0, 0], [0, 1, 0]]
        assert half_vectorize(c).astype(int).tolist() == [1, 1, 0]

    def test_small_cases(self):
        assert half_vectorize([[0, 1], [0, 0]]).astype(int).tolist() == [1]
        c = np.tril(np.ones((4, 4), dtype=bool), -1)
        assert half_vectorize(c).astype(int).tolist() == [0] * 6

    def test_column_major_order(self):
        n = 5
        c = comparison_matrix(np.arange(n)[::-1].copy())
        hv = half_vectorize(c)
        expected = [c[i, j] for j in range(1, n) for i in range(j)]
        assert hv.tolist() == expected


class TestDeltaIdentity:
    def test_paper_example(self):
        assert delta_identity_check([6.4, -9.3, 0.1])
        lhs = delta_matrix(3) @ np.array([1, 1, 0]) + np.arange(3)
        assert lhs.tolist() == [2, 0, 1]

    def test_length_two(self):
        assert delta_identity_check([3.0, 3.0])
        assert delta_identity_check([1, 2])

    def test_random_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 33))
            x = rng.integers(-5, 5, n) if rng.random() < 0.5 else rng.standard_normal(n)
            assert delta_identity_check(x)
