"""Independent checks of each job's output.

Nothing here calls radiuskit: sequences and covers are re-checked by pair
enumeration over files parsed here, a_k witnesses are re-weighed, and
values without a cheap certificate (w_k(s), non-binary a_k, c_k, the
largest bipartite construction's length) are compared with golden values
recorded by ``make_golden.py``.  Each check raises ``CheckError`` on the
first problem it finds.
"""

import json
import math
from fractions import Fraction


class CheckError(Exception):
    pass


def expect(ok, message):
    if not ok:
        raise CheckError(message)


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def parse_edges(text):
    edges = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if line:
            expect(len(line) == 2, f"bad edge line {raw!r}")
            edges.append(frozenset(line))
    expect(len(set(edges)) == len(edges), "duplicate edge in edge list")
    return edges


def zk(k):
    """min over t of (C(t,2) + C(k-t+1,2)) / t: a_k for binary k <= 14."""
    return min(Fraction(math.comb(t, 2) + math.comb(k - t + 1, 2), t)
               for t in range((k + 1) // 2, k + 2))


def radius_pairs(items, k, cyclic):
    """Unordered pairs of distinct items at most k apart."""
    s = len(items)
    pairs = set()
    for i in range(s):
        for j in range(i + 1, i + k + 1):
            if j >= s:
                if not cyclic:
                    break
                j %= s
            if items[i] != items[j]:
                pairs.add(frozenset((items[i], items[j])))
    return pairs


def check_radius(items, edges, k, cyclic=False):
    covered = radius_pairs(items, k, cyclic)
    missing = [e for e in edges if e not in covered]
    expect(not missing, f"{len(missing)} edges not within distance {k}, "
                        f"e.g. {sorted(missing[0]) if missing else ''}")


def parse_cover(text):
    return [line.split() for line in text.splitlines() if line.strip()]


def cover_losses(sets, edges, k):
    """Check a k-cover sequence and return its loss count.

    Each set holds k+1 labels and differs from its predecessor by one
    swap; every edge lies inside some set.  A pair made co-resident by a
    set (all pairs of the first set, the entering label's pairs later) is a
    loss when it is no edge or was co-resident before the previous set.
    """
    sets = [frozenset(s) for s in sets]
    expect(sets, "empty cover")
    edge_set = set(edges)
    losses = 0
    older = set()       # pairs co-resident in sets 0 .. i-2
    previous_pairs = set()
    covered = set()
    for i, current in enumerate(sets):
        expect(len(current) == k + 1,
               f"set {i + 1} has {len(current)} labels, expected {k + 1}")
        if i == 0:
            new = {frozenset((a, b)) for a in current for b in current
                   if a < b}
        else:
            entering = current - sets[i - 1]
            expect(len(entering) == 1,
                   f"set {i + 1} is not one swap from set {i}")
            (x,) = entering
            new = {frozenset((x, y)) for y in current if y != x}
        losses += sum(1 for p in new if p not in edge_set or p in older)
        covered |= new
        older |= previous_pairs
        previous_pairs = {frozenset((a, b)) for a in current for b in current
                          if a < b}
    missing = edge_set - covered
    expect(not missing, f"{len(missing)} edges never co-resident")
    return losses


def check_loss_identity(num_edges, losses, k, length):
    expect(num_edges + losses == k * (length - 1) + math.comb(k + 1, 2),
           f"loss identity fails: e={num_edges} losses={losses} k={k} "
           f"s={length}")


def cycle_weight(symbols, k):
    """Total weight of the closed walk of a cyclic word: for each start,
    how often its symbol recurs among the next k positions."""
    n = len(symbols)
    return sum(1 for i in range(n) for j in range(1, k + 1)
               if symbols[(i + j) % n] == symbols[i])


def check_cycle(word, k, alphabet, value, length=None, weight=None):
    symbols = [int(ch, 36) for ch in word]
    n = len(symbols)
    expect(all(0 <= s < alphabet for s in symbols), f"bad symbol in {word}")
    windows = {tuple(symbols[(i + j) % n] for j in range(k))
               for i in range(n)}
    expect(len(windows) == n, f"cycle {word} repeats a vertex")
    total = cycle_weight(symbols, k)
    expect(length is None or length == n, "cycle_length mismatch")
    expect(weight is None or weight == total,
           f"cycle weight {weight} != recount {total}")
    expect(Fraction(total, n) == Fraction(value),
           f"cycle {word} weighs {total}/{n}, printed {value}")


# ---------------------------------------------------------------- checks --

def ak(job, rec, golden):
    p = job.params
    expect(rec["op"] == "ak" and rec["k"] == p["k"] and
           rec["alphabet"] == p["alphabet"], "wrong record")
    check_cycle(rec["cycle"], p["k"], p["alphabet"], rec["value"],
                rec["cycle_length"], rec["cycle_weight"])
    if p["alphabet"] == 2:
        expect(Fraction(rec["value"]) == zk(p["k"]),
               f"a_{p['k']} = {rec['value']} != z_k = {zk(p['k'])}")
    else:
        want = golden["ak"][f"{p['k']},{p['alphabet']}"]
        expect(rec["value"] == want, f"a_k = {rec['value']}, golden {want}")


def conjecture(job, rec, golden):
    rows = rec["rows"]
    expect([r["k"] for r in rows] == list(range(1, job.params["max_k"] + 1)),
           "conjecture rows")
    for r in rows:
        z = zk(r["k"])
        expect(Fraction(r["ak"]) == z and Fraction(r["zk"]) == z and
               r["equal"] is True, f"conjecture row {r}")


def table2(job, rec, golden):
    rows = rec["rows"]
    expect([r["k"] for r in rows] == [1, 2, 3, 4, 5], "table2 rows")
    for r in rows:
        check_cycle(r["cycle"], r["k"], 2, r["ak"])
        expect(Fraction(r["ak"]) == zk(r["k"]), f"table2 row {r}")


def wk(job, rec, golden):
    p = job.params
    key = f"{p['k']},{p['s']},{p['alphabet']}"
    expect(rec["op"] == "wk", "wrong record")
    expect(rec["value"] == golden["wk"][key],
           f"w_k({key}) = {rec['value']}, golden {golden['wk'][key]}")


def cyclic_bad_pairs(symbols, k):
    s = len(symbols)
    return sum(1 for i in range(s) for j in range(i + 1, s)
               if min(j - i, s - (j - i)) <= k and symbols[i] == symbols[j])


def lowbad(job, rec, golden):
    k, s = job.params["k"], job.params["s"]
    seq = rec["sequence"]
    expect(len(seq) == s and set(seq) <= {"0", "1"}, "lowbad sequence")
    bad = cyclic_bad_pairs(seq, k)
    expect(rec["bad_pairs"] == bad, f"bad_pairs {rec['bad_pairs']} != {bad}")
    expect(bad <= zk(k) * s + k * (2 ** k + k), "bad count above the bound")


def maxcut_circulant(job, rec, golden):
    n, k = job.params["n"], job.params["k"]
    want = k * n - golden["wk"][f"{k},{n},2"]
    expect(rec["value"] == want, f"mc = {rec['value']}, expected {want}")


def construct_bipartite(job, rec, golden):
    p = job.params
    m, n, k = p["m"], p["n"], p["k"]
    items = rec["sequence"].split()
    expect(rec["length"] == len(items), "length != sequence length")
    labels = {f"x{i}" for i in range(1, m + 1)} | \
             {f"y{j}" for j in range(1, n + 1)}
    expect(set(items) <= labels, "unknown label in sequence")
    check_radius(items, [frozenset((f"x{i}", f"y{j}"))
                         for i in range(1, m + 1) for j in range(1, n + 1)],
                 k)
    lower = Fraction(m * n) / (k - zk(k))
    expect(Fraction(rec["lower_bound"]) == lower, "lower bound")
    expect(rec["ratio"] == f"{len(items) / float(lower):.12g}", "ratio")
    key = f"{m},{n},{k},{p['epsilon']},{p['seed']}"
    if key in golden["bipartite_length"]:
        expect(len(items) == golden["bipartite_length"][key],
               f"length {len(items)}, golden "
               f"{golden['bipartite_length'][key]}")


def construct_cover_bipartite(job, rec, golden):
    m, n, k = job.params["m"], job.params["n"], job.params["k"]
    sets = parse_cover(rec["cover"])
    expect(rec["sets"] == len(sets) and rec["reads"] == len(sets) + k,
           "sets/reads")
    edges = [frozenset((f"x{i}", f"y{j}"))
             for i in range(1, m + 1) for j in range(1, n + 1)]
    losses = cover_losses(sets, edges, k)
    check_loss_identity(len(edges), losses, k, len(sets))


def bounds(job, rec, golden):
    m, n, k = job.params["m"], job.params["n"], job.params["k"]
    e = m * n
    edge = Fraction(e, k) + Fraction(k + 1, 2) if m + n > k + 1 else None
    bip = Fraction(e) / (k - zk(k))
    degree = m * math.ceil(n / (2 * k)) + n * math.ceil(m / (2 * k))
    expect(rec["edge_bound"] == (str(edge) if edge is not None else None),
           "edge bound")
    expect(rec["bipartite_bound"] == str(bip), "bipartite bound")
    expect(rec["degree_bound"] == degree, "degree bound")
    best = max(b for b in (edge, bip, Fraction(degree)) if b is not None)
    expect(rec["fk_lower"] == math.ceil(best), "fk_lower")


def verify_radius(job, rec, golden):
    p = job.params
    items = read(p["seq"]).split()
    check_radius(items, parse_edges(read(p["graph"])), p["k"], p["cyclic"])
    expect(rec["valid"] is True and rec["uncovered"] == [] and
           rec["length"] == len(items), "verify radius record")


def reduce_cover1_coverk(job, rec, golden):
    p = job.params
    k = p["k"]
    source = parse_edges(read(p["source"]))
    target = parse_edges(read(p["target"]))
    m = len(source)
    n = len({v for e in source for v in e})
    fan = math.comb(k, 2) * (m - 1) + math.comb(k + 1, 2) + 3
    want = {"reduction": "cover1-coverk", "k": k, "fan_size": fan,
            "target_length": m * fan + (m - 1) * (k - 1),
            "source_vertices": n, "source_edges": m,
            "target_vertices": n + m * (k + fan - 2),
            "target_edges": m * (math.comb(k, 2) + fan * k)}
    expect(json.loads(read(p["meta"])) == want, "metadata sidecar")
    expect(all(rec[key] == value for key, value in want.items()),
           "reduce record")
    expect(len(target) == want["target_edges"], "target edge count")
    sets = parse_cover(rec["witness"])
    expect(rec["witness_length"] == len(sets) == want["target_length"],
           "witness length")
    losses = cover_losses(sets, target, k)
    expect(rec["losses"] == losses, f"losses {rec['losses']} != {losses}")
    check_loss_identity(len(target), losses, k, len(sets))


def reduce_ham_radius(job, rec, golden):
    p = job.params
    k = p["k"]
    source = parse_edges(read(p["source"]))
    target = parse_edges(read(p["target"]))
    n = len({v for e in source for v in e})
    want = {"reduction": "ham-radius", "k": k, "threshold": k * n + 1,
            "source_vertices": n, "source_edges": len(source),
            "target_vertices": len(source) + n * (k - 2),
            "target_edges": (k + 1) * k * n // 2}
    expect(json.loads(read(p["meta"])) == want, "metadata sidecar")
    expect(all(rec[key] == value for key, value in want.items()),
           "reduce record")
    expect(len(target) == want["target_edges"], "target edge count")
    items = rec["witness"].split()
    expect(rec["witness_length"] == len(items) == want["threshold"],
           "witness length")
    check_radius(items, target, k)


def verify_cover_target(job, rec, golden):
    p = job.params
    sets = parse_cover(read(p["witness"]))
    cover_losses(sets, parse_edges(read(p["target"])), p["k"])
    expect(rec["valid"] is True and rec["uncovered"] == [] and
           rec["reads"] == len(sets) + p["k"], "verify cover record")


def verify_radius_target(job, rec, golden):
    p = job.params
    items = read(p["witness"]).split()
    check_radius(items, parse_edges(read(p["target"])), p["k"])
    expect(rec["valid"] is True and rec["uncovered"] == [] and
           rec["length"] == len(items), "verify radius record")


def exact_fk(job, rec, golden):
    p = job.params
    items = rec["witness"].split()
    expect(rec["status"] == "optimal" and rec["value"] == p["optimum"] ==
           len(items), f"f_k = {rec.get('value')}, expected {p['optimum']}")
    check_radius(items, parse_edges(read(p["target"])), p["k"])


def exact_ck(job, rec, golden):
    p = job.params
    want = golden["ck"][p["instance"]]
    expect(rec["status"] == "optimal" and rec["value"] == want,
           f"c_k = {rec.get('value')}, golden {want}")
    sets = parse_cover(rec["witness"])
    cover_losses(sets, parse_edges(read(p["graph"])), p["k"])
    expect(len(sets) + p["k"] == want, "witness reads")


def exact_maxcut(job, rec, golden):
    expect(rec["value"] == job.params["value"],
           f"max cut of {job.params['name']} = {rec['value']}, expected "
           f"{job.params['value']}")


CHECKS = {
    "ak": ak, "conjecture": conjecture, "table2": table2, "wk": wk,
    "lowbad": lowbad, "maxcut-circulant": maxcut_circulant,
    "construct-bipartite": construct_bipartite,
    "construct-cover-bipartite": construct_cover_bipartite,
    "bounds": bounds, "verify-radius": verify_radius,
    "reduce-cover1-coverk": reduce_cover1_coverk,
    "reduce-ham-radius": reduce_ham_radius,
    "verify-cover-target": verify_cover_target,
    "verify-radius-target": verify_radius_target,
    "exact-fk": exact_fk, "exact-ck": exact_ck, "exact-maxcut": exact_maxcut,
}


def check(job, rc, stdout, golden):
    """None when the job exited 0 and its single JSON record checks out,
    otherwise a one-line reason."""
    if rc != 0:
        return f"exit status {rc}"
    lines = stdout.splitlines()
    if len(lines) != 1:
        return f"expected one output line, got {len(lines)}"
    try:
        CHECKS[job.check](job, json.loads(lines[0]), golden)
    except CheckError as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed record: {type(exc).__name__}: {exc}"
    return None
