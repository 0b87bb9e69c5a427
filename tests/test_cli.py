import io
import json

import numpy as np
import pytest

from ranknet import (
    Network,
    apply_permutation,
    divisor_network,
    execute,
    network_from_json,
    partial_rank_count,
    total_comparators,
)
from ranknet import engine, netbuild, stable_rank
from ranknet.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSort:
    def test_binary_example(self, capsys, tmp_path):
        f = tmp_path / "in.txt"
        f.write_text("6.4,-9.3,0.1")
        code, out, _ = run(capsys, "sort", "--algo", "binary", "--input", str(f))
        assert code == 0
        assert out == "pi: 2,0,1\nsorted: -9.3,0.1,6.4\n"

    def test_divisor_table1(self, capsys, tmp_path):
        f = tmp_path / "in.txt"
        f.write_text("5,12,2,3,5,7,8,6")
        code, out, _ = run(capsys, "sort", "--algo", "divisor", "--input", str(f))
        assert code == 0
        assert out.splitlines()[0] == "pi: 2,7,0,1,3,5,6,4"
        assert out.splitlines()[1] == "sorted: 2,3,5,5,6,7,8,12"

    def test_single_value(self, capsys, tmp_path):
        f = tmp_path / "in.txt"
        f.write_text("42")
        code, out, _ = run(capsys, "sort", "--input", str(f))
        assert code == 0
        assert out.splitlines()[0] == "pi: 0"

    def test_parse_failure(self, capsys, tmp_path):
        f = tmp_path / "in.txt"
        f.write_text("1,two,3")
        code, _, err = run(capsys, "sort", "--input", str(f))
        assert code == 2
        assert "two" in err

    def test_nan_rejected(self, capsys, tmp_path):
        f = tmp_path / "in.txt"
        f.write_text("1,nan,3")
        code, _, _ = run(capsys, "sort", "--input", str(f))
        assert code == 2

    def test_lossy_mixed_input_rejected(self, capsys, tmp_path):
        # float64 rounds both large integers to 2**53; ranked, they came out 1,2,0
        f = tmp_path / "in.txt"
        f.write_text("9007199254740993,9007199254740992,0.5")
        code, out, err = run(capsys, "sort", "--input", str(f))
        assert code == 2
        assert out == ""
        assert "9007199254740993" in err
        # integers of both signs beyond int64 are made float64 by numpy
        f.write_text("-1,9223372036854775809,9223372036854775808")
        code, _, err = run(capsys, "sort", "--input", str(f))
        assert code == 2
        assert "9223372036854775809" in err
        # and below int64, where numpy makes an object array: float64 rounds
        # -(2**63 + 1) to -2**63
        f.write_text("-9223372036854775809,0")
        code, out, err = run(capsys, "sort", "--input", str(f))
        assert code == 2
        assert out == ""
        assert "-9223372036854775809" in err

    def test_exact_input_kept(self, capsys, tmp_path):
        f = tmp_path / "in.txt"
        f.write_text("9007199254740993,9007199254740992,1")
        code, out, _ = run(capsys, "sort", "--input", str(f))
        assert code == 0
        assert out == "pi: 2,1,0\nsorted: 1,9007199254740992,9007199254740993\n"
        # 2**53 and 1e20 are exact in float64
        f.write_text("9007199254740992,0.5,1e20")
        code, out, _ = run(capsys, "sort", "--input", str(f))
        assert code == 0
        assert out == "pi: 1,0,2\nsorted: 0.5,9007199254740992.0,1e+20\n"
        # 2**64 is beyond uint64, where numpy makes an object array, but exact in float64
        f.write_text("18446744073709551616,1")
        code, out, _ = run(capsys, "sort", "--input", str(f))
        assert code == 0
        assert out == "pi: 1,0\nsorted: 1.0,1.8446744073709552e+19\n"

    def test_non_utf8_input_rejected(self, capsys, tmp_path, monkeypatch):
        f = tmp_path / "in.txt"
        f.write_bytes(b"1,\xff,2")
        code, out, err = run(capsys, "sort", "--input", str(f))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        stdin = io.TextIOWrapper(io.BytesIO(b"1,\xff,2"), encoding="utf-8", errors="strict")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "sort")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_integer_too_long_to_read(self, capsys, tmp_path):
        # int() refuses more than 4300 digits; the token was read as inf
        f = tmp_path / "in.txt"
        f.write_text("1" + "0" * 5000 + ",1")
        code, out, err = run(capsys, "sort", "--input", str(f))
        assert code == 2
        assert out == ""
        assert "too long to read" in err and "finite" not in err

    @pytest.mark.parametrize("token", ["1e400", "-1e400"])
    def test_decimal_beyond_float64(self, capsys, tmp_path, token):
        # float() reads the token as an infinity; the message named no token
        f = tmp_path / "in.txt"
        f.write_text(f"1,{token},2")
        code, out, err = run(capsys, "sort", "--input", str(f))
        assert code == 2
        assert out == ""
        assert f"number {token} is outside float64's range" in err and "finite" not in err

    def test_long_inexact_integer_is_shortened(self, capsys, tmp_path):
        # 401 digits: int() reads it, float64 overflows; the message held all 401
        f = tmp_path / "in.txt"
        f.write_text("1" + "0" * 400 + ",1")
        code, out, err = run(capsys, "sort", "--input", str(f))
        assert code == 2
        assert out == ""
        assert "... of 401 characters cannot be held exactly as a float64" in err
        assert len(err) < 200

    @pytest.mark.parametrize("token", ["inf", "-Infinity", "nan"])
    def test_named_infinity_keeps_its_message(self, capsys, tmp_path, token):
        f = tmp_path / "in.txt"
        f.write_text(f"1,{token},2")
        code, out, err = run(capsys, "sort", "--input", str(f))
        assert code == 2
        assert out == ""
        assert "keys must be finite (no NaN or infinity)" in err

    def test_workers_option_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sort", "--workers", "2"])
        assert exc.value.code == 2

    def test_matches_library(self, capsys, tmp_path):
        x = [5, 12, 2, 3, 5, 7, 8, 6]
        f = tmp_path / "in.txt"
        f.write_text(",".join(map(str, x)))
        _, out, _ = run(capsys, "sort", "--algo", "divisor", "--input", str(f))
        pi = execute(divisor_network(8), x)
        s = apply_permutation(np.asarray(x), pi)
        expect = (
            f"pi: {','.join(map(str, pi.tolist()))}\n"
            f"sorted: {','.join(map(str, s.tolist()))}\n"
        )
        assert out == expect


def test_parser_reused_across_calls(capsys, tmp_path, monkeypatch):
    # one parser serves every call in the process; no call sees another's arguments
    calls = []
    monkeypatch.setattr(engine, "rank", lambda x, algo: calls.append(algo) or stable_rank(x))
    f = tmp_path / "in.txt"
    f.write_text("3,1,2")
    assert run(capsys, "sort", "--algo", "divisor", "--input", str(f)) == (
        0, "pi: 2,0,1\nsorted: 1,2,3\n", ""
    )
    monkeypatch.setattr("sys.stdin", io.StringIO("5 4"))
    assert run(capsys, "sort") == (0, "pi: 1,0\nsorted: 4,5\n", "")
    assert calls == ["divisor", "binary"]
    out = tmp_path / "net.json"
    assert run(capsys, "export", "--n", "4", "--algo", "prime", "--format", "json",
               "--out", str(out)) == (0, "", "")
    assert json.loads(out.read_text())["builder"] == "prime"
    with pytest.raises(SystemExit) as exc:
        main(["sort", "--n", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --n 4" in capsys.readouterr().err
    assert run(capsys, "sort", "--input", str(f))[:2] == (0, "pi: 2,0,1\nsorted: 1,2,3\n")
    assert calls == ["divisor", "binary", "binary"]


class TestSeq:
    def test_comparators(self, capsys):
        code, out, _ = run(capsys, "seq", "--kind", "comparators", "--max", "8")
        assert code == 0
        values = [int(line.split(",")[1]) for line in out.strip().splitlines()]
        assert values == [0, 1, 1, 6, 1, 11, 1, 28]

    def test_levels(self, capsys):
        code, out, _ = run(capsys, "seq", "--kind", "levels", "--max", "8")
        assert code == 0
        values = [int(line.split(",")[1]) for line in out.strip().splitlines()]
        assert values == [1, 1, 3, 1, 4, 1, 7]

    def test_adds(self, capsys):
        code, out, _ = run(capsys, "seq", "--kind", "adds", "--max", "4")
        assert code == 0
        values = [int(line.split(",")[1]) for line in out.strip().splitlines()]
        assert values == [0, 0, 2]

    def test_csv_file(self, capsys, tmp_path):
        f = tmp_path / "seq.csv"
        code, _, _ = run(
            capsys, "seq", "--kind", "levels", "--max", "6", "--csv", str(f)
        )
        assert code == 0
        rows = f.read_text().strip().splitlines()
        assert rows == [f"{n},{partial_rank_count(n)}" for n in range(2, 7)]

    @pytest.mark.parametrize(
        "kind, max_n, start",
        [("levels", 1, 2), ("adds", 1, 2), ("adds", -3, 2), ("comparators", 0, 1)],
    )
    def test_rejects_vacuous_runs(self, capsys, kind, max_n, start):
        code, out, err = run(capsys, "seq", "--kind", kind, "--max", str(max_n))
        assert code == 2
        assert out == ""
        assert f"--max >= {start}" in err

    def test_invalid_kind(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["seq", "--kind", "bogus", "--max", "8"])
        assert exc.value.code == 2


class TestVerify:
    def test_clean_run(self, capsys):
        code, out, _ = run(capsys, "verify", "--max", "16", "--samples", "5")
        assert code == 0
        assert "ok" in out

    def test_trivial_max(self, capsys):
        code, _, _ = run(capsys, "verify", "--max", "2", "--samples", "1")
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["--max", "-5"],
            ["--max", "1"],
            ["--max", "8", "--samples", "-1"],
            ["--max", "8", "--samples", "0"],
        ],
    )
    def test_rejects_vacuous_runs(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert "--max >= 2 and --samples >= 1" in err

    def test_fault_injection(self, capsys, monkeypatch):
        build = netbuild.build_network

        def without_last_comparator(n, builder):
            levels = [level.indices for level in build(n, builder).levels]
            levels[-1] = levels[-1][:-1]
            return Network(n, [idx for idx in levels if len(idx)], builder)

        monkeypatch.setattr(netbuild, "build_network", without_last_comparator)
        code, out, _ = run(capsys, "verify", "--max", "6", "--samples", "1")
        assert code == 1
        assert "pair-coverage: FAIL" in out


class TestExport:
    def test_json_n6(self, capsys, tmp_path):
        f = tmp_path / "net.json"
        code, _, _ = run(
            capsys, "export", "--n", "6", "--algo", "divisor",
            "--format", "json", "--out", str(f),
        )
        assert code == 0
        doc = json.loads(f.read_text())
        arities = [[len(c["indices"]) for c in lev] for lev in doc["levels"]]
        assert arities == [[3, 3], [2, 2, 2], [2, 2, 2], [2, 2, 2]]

    def test_dot_n4_prime(self, capsys, tmp_path):
        f = tmp_path / "net.dot"
        code, _, _ = run(
            capsys, "export", "--n", "4", "--algo", "prime",
            "--format", "dot", "--out", str(f),
        )
        assert code == 0
        dot = f.read_text()
        assert dot.count("subgraph cluster_") == 3
        assert dot.count('label="C_2"') == 6

    def test_dot_n6_divisor_matches_figure(self, capsys, tmp_path):
        f = tmp_path / "net.dot"
        run(capsys, "export", "--n", "6", "--algo", "divisor",
            "--format", "dot", "--out", str(f))
        dot = f.read_text()
        assert dot.count('label="C_3"') == 2
        assert dot.count('label="C_2"') == 9

    def test_single_comparator_for_prime_n(self, capsys, tmp_path):
        f = tmp_path / "net.json"
        for algo in ["binary", "divisor", "prime"]:
            if algo == "binary":
                continue  # binary builder always uses pairs
            run(capsys, "export", "--n", "5", "--algo", algo,
                "--format", "json", "--out", str(f))
            doc = json.loads(f.read_text())
            assert doc["levels"] == [[{"indices": [0, 1, 2, 3, 4]}]]

    def test_json_over_budget(self, capsys, tmp_path, monkeypatch):
        # a budget that admits binary N = 64's arity group, but not its text
        largest = max(g.nbytes for g in netbuild.binary_network(64).arity_groups().values())
        monkeypatch.setattr(netbuild, "_CHECK_BYTES", largest)
        f = tmp_path / "net.json"
        code, _, err = run(
            capsys, "export", "--n", "64", "--algo", "binary", "--format", "json", "--out", str(f),
        )
        assert code == 2 and "needs" in err and not f.exists()
        code, _, _ = run(
            capsys, "export", "--n", "64", "--algo", "binary", "--format", "dot", "--out", str(f),
        )
        assert code == 0

    def test_io_failure(self, capsys):
        code, _, err = run(
            capsys, "export", "--n", "4", "--algo", "prime",
            "--format", "dot", "--out", "/nonexistent-dir/x.dot",
        )
        assert code == 3

    def test_round_trip_execution(self, capsys, tmp_path):
        f = tmp_path / "net.json"
        run(capsys, "export", "--n", "8", "--algo", "divisor",
            "--format", "json", "--out", str(f))
        net = network_from_json(f.read_text())
        x = [5, 12, 2, 3, 5, 7, 8, 6]
        assert np.array_equal(execute(net, x), execute(divisor_network(8), x))


class TestAnalyze:
    def test_profile_output(self, capsys):
        code, out, _ = run(capsys, "analyze", "--n", "12")
        assert code == 0
        assert "N: 12" in out
        assert "2=9, 3=1" in out
        assert "2=54, 3=4" in out
        assert f"|C_N|: {total_comparators(12)}" in out
