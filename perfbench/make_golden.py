#!/usr/bin/env python3
"""Write perfbench/golden.json: reference values the output checks compare
against where no cheap certificate exists.

    PYTHONPATH=src python3 perfbench/make_golden.py

Covers every size the workloads can draw.  w_k(s) is computed by both the
walk DP and enumeration wherever both apply, and the two must agree.  Run it
only when a change is meant to alter these outputs; takes about two
minutes.
"""

import json
import sys
from pathlib import Path

from radiuskit import binseq, debruijn, exact, graphs, radius

import workloads as w

HERE = Path(__file__).resolve().parent


def wk_value(k, s, t):
    values = set()
    if s >= k + 1:
        values.add(binseq.wk_walk(k, s, t))
    if t ** s <= binseq.BRUTE_LIMIT and s <= w.BRUTE_MAX_S:
        values.add(binseq.wk_brute(k, s, t))
    if len(values) != 1:
        raise SystemExit(f"w_{k}({s}) over {t}: routes disagree {values}")
    return values.pop()


def main():
    golden = {"wk": {}, "ak": {}, "ck": {}, "bipartite_length": {}}
    for k in range(1, 11):
        top = max(w.BRUTE_MAX_S if k <= 8 else 0,
                  w.CIRCULANT_MAX_N if k <= 4 else 0,
                  w.WALK_MAX_S.get(k, 0))
        for s in range(2 if k <= 8 else k + 1, top + 1):
            golden["wk"][f"{k},{s},2"] = wk_value(k, s, 2)
        print(f"wk k={k} done", file=sys.stderr)
    for k in range(1, 4):
        for s in range(2, w.TERNARY_MAX_S + 1):
            golden["wk"][f"{k},{s},3"] = wk_value(k, s, 3)
    for t, k in w.NONBINARY:
        golden["ak"][f"{k},{t}"] = str(debruijn.ak(k, t))
    for family, size, k in w.CK_INSTANCES:
        g = graphs.Graph((), w.family_edges(family, size))
        result = exact.exact_ck(g, k)
        if not result.is_optimal:
            raise SystemExit(f"c_{k} of {family} {size} not solved")
        golden["ck"][f"{family},{size},{k}"] = result.optimum
    m, n, k, eps = w.BIPARTITE_LARGEST
    for seed in w.BIPARTITE_SEEDS:
        result = radius.construct_bipartite(m, n, k, epsilon_hint=eps,
                                            seed=seed)
        golden["bipartite_length"][f"{m},{n},{k},{eps},{seed}"] = \
            result.length
    with open(HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
