"""The benchmark tracer's reads of the package, checked on every run.

`perfbench/tracing.py` wraps the package's public functions and reads
argument names (`g`, `seq`, `cov`, `k`, `s`, `alphabet`) and result fields
(`length`, `num_edges`, `is_optimal`) for its per-layer counts.  A rename
in the package breaks only a traced benchmark run, so this test loads the
tracer by path (without writing anything there), runs tiny CLI commands
under it and requires every count it defines.
"""

import json
import types
from pathlib import Path

from radiuskit import cli
from radiuskit.graphs import complete, path, serialize_graph

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    source = ROOT / "perfbench" / "tracing.py"
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(source)
    exec(compile(source.read_text(encoding="utf-8"), str(source), "exec"),
         module.__dict__)
    return module


def test_tracer_counts_every_layer(tmp_path, capsys):
    tracing = _load_tracing()
    k4 = tmp_path / "k4.edges"
    k4.write_text(serialize_graph(complete(4)))
    seq = tmp_path / "k4.seq"
    seq.write_text("v1 v2 v3 v4 v1 v3\nv2 v4\n")
    p3 = tmp_path / "p3.edges"
    p3.write_text(serialize_graph(path(3)))
    walk = tmp_path / "p3.walk"
    walk.write_text("v1 v2\nv2 v3\n")
    commands = [
        ["ak", "--k", "4"],
        ["wk", "--k", "3", "--s", "8", "--method", "walk"],
        ["wk", "--k", "3", "--s", "8", "--method", "brute"],
        ["construct", "bipartite", "--k", "2", "--m", "3", "--n", "3"],
        ["verify", "radius", "--k", "1", "--graph", str(k4),
         "--seq", str(seq)],
        ["reduce", "cover1-coverk", "--k", "2", "--graph", str(p3),
         "--witness", str(walk)],
        ["exact", "fk", "--k", "1", "--graph", str(k4)],
        ["exact", "ck", "--k", "1", "--graph", str(k4)],
    ]
    tracer = tracing.Tracer()
    with tracer.patched():
        for argv in commands:
            assert cli.main(argv) == 0, argv
    capsys.readouterr()
    for name in tracing.COUNTERS:
        assert tracer.counts[name + ".calls"] > 0, name
    # the benchmark's per-layer counts other than call counts are exactly
    # those the tracer's counters produce
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"] for m in spec["per_layer"]
              if m["unit"] == "count" and not m["name"].endswith(".calls")}
    produced = {key for key in tracer.counts if not key.endswith(".calls")}
    assert produced == wanted
    assert tracer.counts["exact.unknown_count"] == 0
    assert all(tracer.counts[key] > 0 for key in wanted - {
        "exact.unknown_count"})
