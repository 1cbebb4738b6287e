"""End-to-end CLI tests (in-process through main)."""

import argparse
import ast
import inspect
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import radiuskit
from radiuskit import binseq, cli, debruijn, exact, hardness, radius
from radiuskit.cli import main
from radiuskit.errors import VerificationError
from radiuskit.graphs import complete, complete_bipartite, parse_graph, \
    path, serialize_graph
from radiuskit.radius import parse_vertex_sequence, verify_radius


@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.edges"
    p.write_text(serialize_graph(complete(4)))
    return str(p)


@pytest.fixture
def seq_file(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text("v1 v2 v3 v4 v1\n")
    return str(p)


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ak(capsys):
    code, out, _ = run(capsys, ["ak", "--k", "4"])
    assert code == 0
    assert "a_4 = 4/3" in out and "000111" in out
    code, out, _ = run(capsys, ["ak", "--k", "2", "--cycle"])
    assert code == 0 and "windows 00 01 11 10" in out


def test_zk_wk(capsys):
    code, out, _ = run(capsys, ["zk", "--k", "5"])
    assert code == 0 and "7/4" in out
    # zk tries only the run lengths beside its real minimum
    start = time.perf_counter()
    code, out, _ = run(capsys, ["zk", "--k", "1000000000"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (0, "z_1000000000 = 146446609471644371/353553391 "
                              "(t = 707106782)\n")
    code, out, _ = run(capsys, ["wk", "--k", "2", "--s", "5"])
    assert code == 0 and "w_2(5) = 4" in out


def test_verify_exit_codes(capsys, k4_file, seq_file):
    code, out, _ = run(capsys, ["verify", "radius", "--k", "2",
                                "--graph", k4_file, "--seq", seq_file])
    assert code == 0 and "valid" in out
    code, out, _ = run(capsys, ["verify", "radius", "--k", "1",
                                "--graph", k4_file, "--seq", seq_file])
    assert code == 1 and "INVALID" in out


def test_verify_cover(capsys, tmp_path, k4_file):
    cov = tmp_path / "cov.txt"
    cov.write_text("v1 v2 v3\nv1 v2 v4\nv1 v3 v4\n")
    code, out, _ = run(capsys, ["verify", "cover", "--k", "2",
                                "--graph", k4_file, "--seq", str(cov)])
    assert code == 0 and "reads 5" in out
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, out, _ = run(capsys, ["verify", "cover", "--k", "1",
                                "--graph", k4_file, "--seq", str(empty)])
    assert code == 1 and out.startswith("INVALID (reads 0)\n")


def test_unknown_cover_label_is_the_first_in_file_order(tmp_path):
    """The label named must not hang on the string hash seed, which is
    fixed per interpreter: so each run is a fresh one under its own seed."""
    graph = tmp_path / "tri.edges"
    graph.write_text("a b\nb c\nc a\n")
    cov = tmp_path / "cov.txt"
    cov.write_text("a zz1 zz2 zz3 zz4 zz5\n")
    argv = [sys.executable, "-m", "radiuskit.cli", "verify", "cover", "--k",
            "5", "--graph", str(graph), "--seq", str(cov)]
    src = str(Path(radiuskit.__file__).resolve().parents[1])
    runs = [subprocess.Popen(argv, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             env=dict(os.environ, PYTHONPATH=src,
                                      PYTHONHASHSEED=str(seed)))
            for seed in range(6)]
    results = {(p.wait(), *p.communicate()) for p in runs}
    assert results == {(1, "", f"error: {cov}: line 1: cover set refers to "
                               f"unknown vertex 'zz1'\n")}


def test_usage_errors(capsys, tmp_path, k4_file):
    bad = tmp_path / "bad.edges"
    bad.write_text("a a\n")
    code, _, err = run(capsys, ["bounds", "--k", "1", "--graph", str(bad)])
    assert code == 2 and "line 1" in err
    code, _, err = run(capsys, ["ak", "--k", "0"])
    assert code == 2
    code, _, err = run(capsys, ["bounds", "--k", "1",
                                "--graph", str(tmp_path / "missing.edges")])
    assert code == 2
    for limit in ("0", "-1", "nan", "inf"):
        for kind in ("fk", "ck"):
            code, out, err = run(capsys, ["exact", kind, "--k", "2",
                                          "--graph", k4_file,
                                          "--time-limit", limit])
            assert code == 2 and out == "" and "positive" in err
            assert "finite" in err and "Traceback" not in err
    code, out, err = run(capsys, ["exact", "ck", "--k", "0",
                                  "--graph", k4_file])
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "k must be >= 1, got 0" in err
    assert "Traceback" not in err
    singles = tmp_path / "singles.txt"
    singles.write_text("v1\nv2\n")
    for k in ("0", "-1"):
        code, out, err = run(capsys, ["verify", "cover", "--k", k,
                                      "--graph", k4_file, "--seq",
                                      str(singles)])
        assert code == 2 and out == ""
        assert err == f"usage error: k must be >= 1, got {k}\n"


def test_construct_bipartite_rejects_bad_epsilon(capsys):
    for eps in ("inf", "0", "-1", "nan"):
        code, out, err = run(capsys, ["construct", "bipartite", "--k", "2",
                                      "--m", "4", "--n", "4",
                                      "--epsilon", eps])
        assert code == 2 and out == ""
        assert "epsilon must be finite and > 0" in err
        assert "Traceback" not in err


def test_construction_self_check_failure_exit(capsys, monkeypatch):
    monkeypatch.setattr(radius, "verify_radius", lambda seq, k:
                        radius.RadiusCheck(False, (("x1", "y1"),)))
    code, out, err = run(capsys, ["construct", "bipartite", "--k", "2",
                                  "--m", "4", "--n", "4"])
    assert code == 4 and out == ""
    assert "bipartite construction missed" in err


def test_budget_exit(capsys):
    code, _, err = run(capsys, ["ak", "--k", "25"])
    assert code == 3 and "budget" in err


@pytest.mark.parametrize("argv", [
    ["ak", "--k", "20000"], ["lowbad", "--k", "20000", "--s", "50"],
    ["lowbad", "--k", "2", "--s", str(binseq.LOWBAD_LIMIT + 1)],
    ["construct", "bipartite", "--m", "3", "--n", "3", "--k", "20000"],
    ["wk", "--k", "20000", "--s", "20001"],
    ["wk", "--k", "2", "--s", "4000000000"],
    ["maxcut", "circulant", "--n", "4000000000", "--k", "2"],
    ["construct", "cover-bipartite", "--m", "5000", "--n", "5000", "--k", "1"]])
def test_huge_parameters_exit_3(capsys, argv):
    # past 4,300 digits t^k cannot be printed, and far past it not built
    tracemalloc.start()
    code, out, err = run(capsys, argv)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 3 and out == "" and peak < 1 << 20
    assert err.startswith("budget exhausted: ") and "Traceback" not in err
    if argv[0] == "ak":
        assert err == ("budget exhausted: minimum-cycle DP needs 2^20000 "
                       "vertices, over the budget of 16384; a library call "
                       "can raise it through its max_vertices argument\n")


def test_bipartite_bound_skips_a_huge_k(capsys, tmp_path):
    # a_k is over budget, so the bipartite bound is left out, not a traceback
    c4 = tmp_path / "c4.edges"
    c4.write_text(serialize_graph(complete_bipartite(2, 2)))
    code, out, _ = run(capsys, ["bounds", "--k", "20000", "--graph", str(c4)])
    assert code == 0 and "bipartite cycle bound" not in out
    code, out, _ = run(capsys, ["exact", "fk", "--k", "20000",
                                "--graph", str(c4)])
    assert (code, out) == (0, "f_20000 = 4\nx1 y1 y2 x2\n")


def test_bipartite_pair_budget_exit(capsys, monkeypatch):
    # K_{10^6,10^6} is refused on its pair count, before a_k or the graph
    def unreachable(*args):
        raise AssertionError("ran past the pair budget")

    monkeypatch.setattr(radius, "complete_bipartite", unreachable)
    monkeypatch.setattr(debruijn, "min_normalized_cycle", unreachable)
    cap = radius.MAX_BIPARTITE_PAIRS
    assert cap >= 5000 * 5000
    for kind in ("bipartite", "cover-bipartite"):
        tracemalloc.start()
        code, out, err = run(capsys, ["construct", kind, "--k", "4",
                                      "--m", "1000000", "--n", "1000000"])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert code == 3 and out == ""
        assert err == (f"budget exhausted: K_{{1000000,1000000}} has "
                       f"{10 ** 12} vertex pairs, above the cap of {cap}\n")
        assert peak < 1 << 20


# `ak --k 13/14 --cycle` and `conjecture --max-k 14` as the Karp DP printed
# them: exit code, stdout, stderr.
AK_OUTPUTS = json.loads(
    Path(__file__).with_name("ak_outputs.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(AK_OUTPUTS))
def test_ak_outputs_pinned(capsys, command):
    assert list(run(capsys, command.split())) == AK_OUTPUTS[command]


def test_verification_failure_exit(capsys, monkeypatch):
    # both routes to the minimum go wrong: the binary run-cycle candidate,
    # and Howard, which a wrong candidate falls back to
    true_mean = debruijn._howard_min_mean
    true_candidate = debruijn._run_cycle_mean
    for shift in (Fraction(-1, 2), Fraction(1, 2)):
        monkeypatch.setattr(debruijn, "_howard_min_mean",
                            lambda k, t, cnt: true_mean(k, t, cnt) + shift)
        monkeypatch.setattr(debruijn, "_run_cycle_mean",
                            lambda k: true_candidate(k) + shift)
        code, out, err = run(capsys, ["ak", "--k", "5"])
        assert code == 4 and out == ""
        assert err.startswith("internal error: result failed verification")
        assert "Traceback" not in err


def test_table2_byte_stable(capsys):
    code, first, _ = run(capsys, ["table2"])
    assert code == 0
    code, second, _ = run(capsys, ["table2"])
    assert first == second
    assert "4/3" in first and "00001111" in first


def test_json_lines_roundtrip(capsys):
    code, out, _ = run(capsys, ["construct", "bipartite", "--k", "2",
                                "--m", "5", "--n", "4",
                                "--format", "json-lines"])
    assert code == 0
    record = json.loads(out.strip())
    g = complete_bipartite(5, 4)
    seq = parse_vertex_sequence(record["sequence"], g)
    assert verify_radius(seq, 2).valid
    assert record["length"] == len(seq)


def test_json_graph_roundtrip(capsys, k4_file):
    code, out, _ = run(capsys, ["bounds", "--k", "2", "--graph", k4_file,
                                "--format", "json-lines"])
    record = json.loads(out.strip())
    assert record["edge_bound"] == "9/2" and record["fk_lower"] == 5


def test_construct_euler(capsys, k4_file):
    code, out, _ = run(capsys, ["construct", "euler1", "--graph", k4_file])
    assert code == 0 and "length 8" in out


def test_construct_cover(capsys, monkeypatch):
    """The strategy verifies its cover once; reads are length + k."""
    covers = []
    real = radius.verify_cover
    monkeypatch.setattr(radius, "verify_cover",
                        lambda cov: covers.append(cov) or real(cov))
    code, out, _ = run(capsys, ["construct", "cover-bipartite", "--k", "2",
                                "--m", "4", "--n", "5"])
    assert code == 0 and len(covers) == 1
    sets = len(covers[0])
    assert out.splitlines()[0] == f"{sets} sets, reads {sets + 2}"


def test_exact_commands(capsys, k4_file):
    code, out, _ = run(capsys, ["exact", "fk", "--k", "2",
                                "--graph", k4_file])
    assert code == 0 and "f_2 = 5" in out
    code, out, _ = run(capsys, ["exact", "ck", "--k", "2",
                                "--graph", k4_file])
    assert code == 0 and "c_2 = 5" in out
    code, out, _ = run(capsys, ["exact", "maxcut", "--graph", k4_file])
    assert code == 0 and "max cut = 4" in out


def test_exact_budget_exit(capsys, tmp_path):
    big = tmp_path / "big.edges"
    big.write_text("".join(f"a{i} a{i+1}\n" for i in range(25)))
    code, _, err = run(capsys, ["exact", "maxcut", "--graph", str(big)])
    assert code == 3


def test_exact_fk_unknown_exit(capsys, tmp_path):
    # K_{5,5} at k = 2 has not finished its first length, 20, after 3 M
    # nodes (live-vertex prune on), far more than 4096, so the first time
    # check stops it there
    graph = tmp_path / "k55.edges"
    graph.write_text(serialize_graph(complete_bipartite(5, 5)))
    argv = ["exact", "fk", "--k", "2", "--graph", str(graph),
            "--time-limit", "1e-9"]
    code, out, err = run(capsys, argv)
    assert code == 3 and err == ""
    assert out == "f_2: unknown (proven >= 20)\n"
    code, out, _ = run(capsys, [*argv, "--format", "json-lines"])
    assert code == 3
    assert json.loads(out) == {"op": "exact-fk", "k": 2, "status": "unknown",
                               "lower": 20, "upper": None}


def test_exact_time_limit_budgets(capsys, monkeypatch, k4_file):
    """exact fk and exact ck have no node cap (their memos are capped),
    with or without `--time-limit`."""
    budgets = []
    for name in ("exact_fk", "exact_ck"):
        def capture(*args, real=getattr(exact, name), **kwargs):
            budgets.append(kwargs["budget"])
            return real(*args, **kwargs)
        monkeypatch.setattr(exact, name, capture)
    code, out, _ = run(capsys, ["exact", "fk", "--k", "2", "--graph", k4_file,
                                "--time-limit", "30"])
    assert code == 0 and "f_2 = 5" in out
    assert budgets[-1] == exact.SearchBudget(time_limit=30,
                                             node_limit=sys.maxsize)
    code, out, _ = run(capsys, ["exact", "ck", "--k", "2", "--graph", k4_file,
                                "--time-limit", "30"])
    assert code == 0 and "c_2 = 5" in out
    assert budgets[-1] == exact.SearchBudget(time_limit=30,
                                             node_limit=sys.maxsize)
    # without the flag each gets the default time limit and no node cap
    for kind in ("fk", "ck"):
        code, _, _ = run(capsys, ["exact", kind, "--k", "2",
                                  "--graph", k4_file])
        assert code == 0
        assert budgets[-1] == exact.SearchBudget(node_limit=sys.maxsize)


def test_maxcut_circulant(capsys):
    code, out, _ = run(capsys, ["maxcut", "circulant", "--n", "8", "--k", "2",
                                "--brute-check"])
    assert code == 0 and "mc = 12" in out and "brute force = 12" in out
    # 2k >= n: K_30, beyond the exact solver
    code, out, _ = run(capsys, ["maxcut", "circulant", "--n", "30", "--k",
                                "15"])
    assert code == 0 and out == "mc = 225\n"


def test_maxcut_brute_check_mismatch_exit(capsys, monkeypatch):
    true_value = radius.maxcut_circulant
    monkeypatch.setattr(radius, "maxcut_circulant",
                        lambda n, k: true_value(n, k) + 1)
    code, out, err = run(capsys, ["maxcut", "circulant", "--n", "8", "--k",
                                  "2", "--brute-check"])
    assert code == 4 and out == ""
    assert err.startswith("internal error: result failed verification")
    assert "13 != brute 12" in err and "Traceback" not in err


def test_reduce_with_witness(capsys, tmp_path):
    graph_file = tmp_path / "k33.edges"
    graph_file.write_text(serialize_graph(complete_bipartite(3, 3)))
    witness = tmp_path / "path.txt"
    witness.write_text("x1 y1 x2 y2 x3 y3\n")
    target_out = tmp_path / "target.edges"
    argv = ["reduce", "ham-radius", "--k", "2", "--graph", str(graph_file),
            "--witness", str(witness), "--target-out", str(target_out)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert "witness length 13" in out
    target = parse_graph(target_out.read_text())
    assert target.num_vertices == 9 and target.num_edges == 18
    witness.write_text("# a Hamiltonian path\nx1 y1 x2  # half\ny2 x3 y3\n")
    assert run(capsys, argv) == (0, out, "")


def test_reduce_cover_witness(capsys, tmp_path):
    graph_file = tmp_path / "p3.edges"
    graph_file.write_text("v1 v2\nv2 v3\n")
    witness = tmp_path / "cover1.txt"
    witness.write_text("v1 v2\nv2 v3\n")
    code, out, _ = run(capsys, ["reduce", "cover1-coverk", "--k", "2",
                                "--graph", str(graph_file),
                                "--witness", str(witness),
                                "--format", "json-lines"])
    assert code == 0
    record = json.loads(out.strip())
    assert record["witness_length"] == 15 and record["losses"] == 1


def test_reduce_meta_out(capsys, tmp_path):
    graph_file = tmp_path / "p3.edges"
    graph_file.write_text("v1 v2\nv2 v3\n")
    meta_out = tmp_path / "p3.meta.json"
    code, out, _ = run(capsys, ["reduce", "cover1-coverk", "--k", "2",
                                "--graph", str(graph_file),
                                "--meta-out", str(meta_out)])
    assert code == 0
    assert f"metadata written to {meta_out}" in out.splitlines()
    inst = hardness.reduce_cover1_to_coverk(
        parse_graph(graph_file.read_text()), 2)
    assert meta_out.read_text() == hardness.serialize_metadata(inst)


@pytest.mark.parametrize("text, message", [
    ("v1 v2\nv2 v2\n", "line 2: self-loop"),
    ("v1 v2\n# comment\nv2 v3\nv3 v2\n", "line 4: duplicate edge"),
    ("v1 v2\nv2 v3 v1\n", "line 2: expected two labels"),
], ids=["self-loop", "duplicate", "token-count"])
def test_reduce_cover_witness_parse_errors(capsys, tmp_path, text, message):
    graph_file = tmp_path / "p3.edges"
    graph_file.write_text("v1 v2\nv2 v3\n")
    witness = tmp_path / "cover1.txt"
    witness.write_text(text)
    code, out, err = run(capsys, ["reduce", "cover1-coverk", "--k", "2",
                                  "--graph", str(graph_file),
                                  "--witness", str(witness)])
    assert code == 2 and out == ""
    assert err.startswith(f"usage error: {witness}: {message}")


def test_parse_errors_name_the_file(capsys, tmp_path, k4_file):
    bad_graph = tmp_path / "three.edges"
    bad_graph.write_text("v1 v2\nv1 v2 v3\n")
    code, out, err = run(capsys, ["bounds", "--k", "1",
                                  "--graph", str(bad_graph)])
    assert (code, out) == (2, "")
    assert err == (f"usage error: {bad_graph}: line 2: "
                   f"expected two labels, got 3\n")
    bad_seq = tmp_path / "repeat.seq"
    bad_seq.write_text("v1 v2\nv3 v3\n")
    code, out, err = run(capsys, ["verify", "cover", "--k", "1",
                                  "--graph", k4_file, "--seq", str(bad_seq)])
    assert (code, out) == (2, "")
    assert err == (f"usage error: {bad_seq}: line 2: "
                   f"repeated label inside a set\n")


@pytest.mark.parametrize("case", ["radius", "cover-label", "cover-structure",
                                  "witness"])
def test_domain_errors_name_the_file(capsys, tmp_path, k4_file, case):
    k33 = tmp_path / "k33.edges"
    k33.write_text(serialize_graph(complete_bipartite(3, 3)))
    seq = tmp_path / "s.seq"
    text, argv, message = {
        "radius": ("v1 v2\n# v9\nv3 zz\n", ["verify", "radius", "--k", "1",
                                            "--graph", k4_file, "--seq"],
                   "line 3: sequence refers to unknown vertex 'zz'"),
        "cover-label": ("v1 v2\n\nv2 zz\n", ["verify", "cover", "--k", "1",
                                             "--graph", k4_file, "--seq"],
                        "line 3: cover set refers to unknown vertex 'zz'"),
        "cover-structure": ("v1 v2\n# same\nv2 v1\n",
                            ["verify", "cover", "--k", "1",
                             "--graph", k4_file, "--seq"],
                            "set 2: differs from its predecessor by 0 "
                            "elements, expected exactly 1"),
        "witness": ("x1 y1 x2\ny2 zz y3\n",
                    ["reduce", "ham-radius", "--k", "2", "--graph", str(k33),
                     "--witness"],
                    "line 2: sequence refers to unknown vertex 'zz'"),
    }[case]
    seq.write_text(text)
    code, out, err = run(capsys, argv + [str(seq)])
    assert (code, out, err) == (1, "", f"error: {seq}: {message}\n")


@pytest.mark.parametrize("kind, text, message", [
    ("cover1-coverk", "v1 v2\nv1 v3\n",
     "line 2: 'v1' 'v3' is not an edge of the source"),
    ("cover1-coverk", "v1 v2\n# gap\nv3 v4\nv2 v3\n",
     "line 3: steps 1 and 2 share no endpoint"),
    ("cover1-coverk", "v1 v2\nv2 v3\n",
     "1-cover must list every source edge exactly once"),
    ("ham-radius", "x1 y1 x2 y2 y3 x3\n",
     "line 1: 'y2' and 'y3' are not adjacent"),
    ("ham-radius", "x1 y1 x2 y2\n# then\ny3 x3\n",
     "line 3: 'y2' and 'y3' are not adjacent"),
    ("ham-radius", "x1 y1 x2 y1 x3 y3\n",
     "line 1: path visits 'y1' again"),
], ids=["cover-not-edge", "cover-gap", "cover-short", "path-not-adjacent",
        "path-later-line", "path-repeat"])
def test_witness_errors_name_the_file_and_line(capsys, tmp_path, kind, text,
                                               message):
    graph = tmp_path / "source.edges"
    graph.write_text(serialize_graph(
        complete_bipartite(3, 3) if kind == "ham-radius" else path(4)))
    witness = tmp_path / "w.txt"
    witness.write_text(text)
    code, out, err = run(capsys, ["reduce", kind, "--k", "2",
                                  "--graph", str(graph),
                                  "--witness", str(witness)])
    assert (code, out, err) == (1, "", f"error: {witness}: {message}\n")


def test_reduce_domain_error(capsys, tmp_path):
    graph_file = tmp_path / "k4.edges"
    graph_file.write_text(serialize_graph(complete(4)))
    code, _, err = run(capsys, ["reduce", "ham-radius", "--k", "2",
                                "--graph", str(graph_file)])
    assert code == 1 and "triangle" in err


def test_reduce_rejects_separator_labels(capsys, tmp_path):
    graph_file = tmp_path / "k33.edges"
    graph_file.write_text("".join(f"x|{i} y{j}\n" for i in range(1, 4)
                                  for j in range(1, 4)))
    code, _, err = run(capsys, ["reduce", "ham-radius", "--k", "2",
                                "--graph", str(graph_file)])
    assert code == 1 and "'|'" in err and "Traceback" not in err


@pytest.mark.parametrize("text, label", [
    ("a b\nb x[a,b]^1\n", "x[a,b]^1"),
    ("p,q r\nr p\np q,r\n", "x[p,q,r]^1")])
def test_reduce_refuses_gadget_label_collisions(capsys, tmp_path, text,
                                                label):
    graph_file = tmp_path / "h.edges"
    graph_file.write_text(text)
    code, out, err = run(capsys, ["reduce", "cover1-coverk", "--k", "2",
                                  "--graph", str(graph_file)])
    assert (code, out) == (1, "")
    assert err == f"error: gadget label {label!r} collides with a vertex\n"


@pytest.mark.parametrize("kind, k, graph", [
    ("cover1-coverk", "100", "".join(f"v{i} v{i % 30 + 1}\n"
                                     for i in range(1, 31))),
    ("ham-radius", "100000", serialize_graph(complete_bipartite(3, 3)))])
def test_reduce_budget_exit(capsys, tmp_path, kind, k, graph):
    # both targets hold hundreds of millions of edges or more: refused
    # from the closed-form count, before anything is built
    graph_file = tmp_path / "h.edges"
    graph_file.write_text(graph)
    start = time.perf_counter()
    code, out, err = run(capsys, ["reduce", kind, "--k", k,
                                  "--graph", str(graph_file)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("budget exhausted: target would have ")
    assert "Traceback" not in err


def test_conjecture(capsys):
    code, out, _ = run(capsys, ["conjecture", "--max-k", "6"])
    assert code == 0
    assert out.count("equal") == 6
    for max_k in ("0", "-3"):
        code, out, err = run(capsys, ["conjecture", "--max-k", max_k])
        assert code == 2 and out == ""
        assert err == f"usage error: max-k must be >= 1, got {max_k}\n"


def test_construct_euler_requires_graph(capsys):
    code, _, err = run(capsys, ["construct", "euler1"])
    assert code == 2 and "graph" in err


# (a valid command, a flag its kind does not read); each flag was once
# parsed for that kind and ignored
UNREAD_FLAGS = [
    ("verify cover --k 2 --graph {graph} --seq {cover}", "--cyclic"),
    ("construct bipartite --k 2 --m 4 --n 4", "--graph {graph}"),
    *(("construct cover-bipartite --k 2 --m 4 --n 5", flag)
      for flag in ("--epsilon 0.5", "--seed 7", "--graph {graph}")),
    *(("construct euler1 --graph {graph}", flag)
      for flag in ("--k 2", "--m 4", "--n 4", "--epsilon 0.5", "--seed 7")),
    ("exact ck --k 2 --graph {graph}", "--cyclic"),
    *(("exact maxcut --graph {graph}", flag)
      for flag in ("--k 2", "--cyclic", "--time-limit 30")),
]


@pytest.mark.parametrize(
    "command, flag", UNREAD_FLAGS,
    ids=[" ".join(c.split()[:2] + f.split()[:1]) for c, f in UNREAD_FLAGS])
def test_unread_flags_exit_2(capsys, tmp_path, k4_file, command, flag):
    cover = tmp_path / "cov.txt"
    cover.write_text("v1 v2 v3\nv1 v2 v4\nv1 v3 v4\n")
    argv = command.format(graph=k4_file, cover=cover).split()
    assert run(capsys, argv)[0] == 0
    code, out, err = run(capsys, argv + flag.format(graph=k4_file).split())
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


def _leaves(parser, path=()):
    """(path, parser) for every parser of the tree without subcommands."""
    groups = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    if not groups:
        yield path, parser
    for group in groups:
        for name, child in group.choices.items():
            yield from _leaves(child, path + (name,))


def test_every_flag_is_read():
    # each flag a leaf accepts is loaded as args.<dest> by its handler
    # (`--format` is read by main)
    unread = []
    for path, parser in _leaves(cli.build_parser()):
        func = parser.get_default("func")
        loaded = {node.attr
                  for node in ast.walk(ast.parse(inspect.getsource(func)))
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "args"}
        unread += [(path, action.dest) for action in parser._actions
                   if action.option_strings
                   and action.dest not in ("help", "format", *loaded)]
    assert not unread, unread


@pytest.mark.parametrize("case", ["graph-dir", "seq-dir", "target-out-dir",
                                  "graph-not-utf8", "seq-not-utf8"])
def test_unreadable_paths_exit_2(capsys, tmp_path, k4_file, case):
    k33 = tmp_path / "k33.edges"
    k33.write_text(serialize_graph(complete_bipartite(3, 3)))
    latin1 = tmp_path / "latin1.edges"
    latin1.write_bytes("caf\xe9 b\n".encode("latin-1"))
    seq = tmp_path / "latin1.seq"
    seq.write_bytes("a b\r\nc d\n\xe9\n".encode("latin-1"))
    argv = {"graph-dir": ["bounds", "--k", "1", "--graph", str(tmp_path)],
            "seq-dir": ["verify", "radius", "--k", "2", "--graph", k4_file,
                        "--seq", str(tmp_path)],
            "target-out-dir": ["reduce", "ham-radius", "--k", "2",
                               "--graph", str(k33),
                               "--target-out", str(tmp_path)],
            "graph-not-utf8": ["bounds", "--k", "1",
                               "--graph", str(latin1)],
            "seq-not-utf8": ["verify", "radius", "--k", "2",
                             "--graph", k4_file, "--seq", str(seq)]}[case]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "Traceback" not in err
    if case == "graph-not-utf8":
        assert err == (f"usage error: {latin1}: line 1: "
                       f"not UTF-8 text (byte 0xe9)\n")
    if case == "seq-not-utf8":  # the bad one of two input files
        assert err == (f"usage error: {seq}: line 3: "
                       f"not UTF-8 text (byte 0xe9)\n")
        assert k4_file not in err


def test_wk_rejects_small_alphabets(capsys):
    for alphabet in ("1", "0", "-2"):
        for method in ("brute", "walk", "auto"):
            code, out, err = run(capsys, ["wk", "--k", "2", "--s", "5",
                                          "--alphabet", alphabet,
                                          "--method", method])
            assert code == 2 and out == ""
            assert "alphabet size must be >= 2" in err
            assert "Traceback" not in err


def test_wk_walk_work_budget_exit(capsys):
    code, out, err = run(capsys, ["wk", "--k", "10", "--s", "1000000",
                                  "--method", "walk"])
    assert code == 3 and out == ""
    assert "over the 536870912 cap" in err and "Traceback" not in err


def test_wk_cross_check_failure_exit(capsys, monkeypatch):
    true_walk = binseq.wk_walk
    monkeypatch.setattr(binseq, "wk_walk",
                        lambda k, s, alphabet=2: true_walk(k, s, alphabet) + 1)
    with pytest.raises(VerificationError, match="disagree"):
        binseq.wk_exact(2, 5)
    code, out, err = run(capsys, ["wk", "--k", "2", "--s", "5"])
    assert code == 4 and out == ""
    assert err.startswith("internal error: result failed verification")


def test_lowbad_rejects_nonpositive_length(capsys):
    for s in ("0", "-3"):
        code, out, err = run(capsys, ["lowbad", "--k", "2", "--s", s])
        assert code == 2 and out == ""
        assert err == f"usage error: length must be >= 1, got {s}\n"
    code, out, err = run(capsys, ["lowbad", "--k", "2", "--s", "3"])
    assert code == 1 and out == "" and err.startswith("error: need s >= 4")


def test_bounds_bipartite_flag(capsys, tmp_path, k4_file):
    k33 = tmp_path / "k33.edges"
    k33.write_text(serialize_graph(complete_bipartite(3, 3)))
    plain = run(capsys, ["bounds", "--k", "2", "--graph", str(k33)])
    assert run(capsys, ["bounds", "--k", "2", "--graph", str(k33),
                        "--bipartite"]) == plain
    assert plain[0] == 0 and "bipartite cycle bound: 6" in plain[1]
    code, out, err = run(capsys, ["bounds", "--k", "2", "--graph", k4_file,
                                  "--bipartite"])
    assert (code, out, err) == (1, "", "error: graph is not bipartite\n")
    code, out, err = run(capsys, ["bounds", "--k", "0", "--graph", k4_file,
                                  "--bipartite"])
    assert (code, out, err) == (2, "", "usage error: k must be >= 1, got 0\n")


def test_main_reuses_one_parser(capsys, monkeypatch):
    argvs = [["ak"], ["--help"], ["wk", "--help"],
             ["wk", "--k", "4", "--s", "9", "--format", "json-lines"], ["ak"]]

    cached = cli.build_parser
    first = [run(capsys, argv) for argv in argvs]
    misses = cached.cache_info().misses
    assert [run(capsys, argv) for argv in argvs] == first
    assert first[-1] == first[0]
    assert first[0][0] == 2 and first[0][1] == ""
    assert "the following arguments are required: --k" in first[0][2]
    assert first[1][0] == 0 and first[1][1].startswith("usage: radiuskit")
    assert first[2][0] == 0 and first[2][1].startswith("usage: radiuskit wk")
    assert first[3][0] == 0 and first[3][2] == ""
    assert json.loads(first[3][1])["value"] == binseq.wk_exact(4, 9)
    assert cached.cache_info().misses == misses
    monkeypatch.setattr(cli, "build_parser", cached.__wrapped__)
    assert [run(capsys, argv) for argv in argvs] == first
