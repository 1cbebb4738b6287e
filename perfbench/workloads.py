"""Seeded job lists and input files for the four benchmark workloads.

Every job is one ``radiuskit`` command line run with ``--format json-lines``.
``build`` draws labels, edge order, construction seeds, walk directions
and job order from a ``random.Random`` seeded by the benchmark's ``--seed``,
writes the graph, witness and sequence files the jobs read, and returns the
jobs in pass order.  Sizes are fixed, spread evenly over each workload's
ranges, so a pass costs the same on every seed.

The size grids here are also the grids ``make_golden.py`` covers, so a job
can never ask for a golden value that was not recorded.
"""

import random
from dataclasses import dataclass, field
from typing import Optional

WORKLOADS = ("ak-sweep", "walk-dp", "bipartite-construct", "hardness-verify")

# Largest s of the `wk --method walk` jobs for each k; s starts at k + 1.
WALK_MAX_S = {6: 300, 7: 200, 8: 120, 9: 60, 10: 30}
# Jobs per k in one walk-dp pass.
WALK_JOBS = {6: 6, 7: 5, 8: 4, 9: 3, 10: 1}
BRUTE_MAX_S = 24          # `wk --method brute|auto` lengths, binary
TERNARY_MAX_S = 10        # ternary brute lengths (3^10 strings)
CIRCULANT_MAX_N = 40      # `maxcut circulant` vertex counts
# Non-binary de Bruijn graphs with t^k <= 6561 vertices and digit labels.
NONBINARY = [(t, k) for t in range(3, 11) for k in range(1, 9)
             if t ** k <= 6561]
# The ak-sweep leaves out the two largest, t = 8 and 9 at k = 4; each would
# take as long as binary k = 13 again.
NONBINARY_SWEPT = [tk for tk in NONBINARY if tk not in ((8, 4), (9, 4))]

# Largest bipartite construction and the --seed values it is run with.
BIPARTITE_LARGEST = (200, 200, 4, 0.5)
BIPARTITE_SEEDS = range(6)
# The other bipartite-construct jobs: (m, n, k, epsilon), (m, n, k) and
# (m, n, k, cyclic).
CONSTRUCT_GRID = [(20, 26, 2, 0.25), (36, 33, 3, 0.5), (50, 47, 4, 1.0),
                  (64, 61, 5, 0.25), (80, 74, 6, 0.5)]
COVER_GRID = [(20, 30, 2), (60, 50, 5)]
BOUNDS_GRID = [(20, 80, 2), (100, 120, 4), (200, 190, 6)]
VERIFY_GRID = [(60, 55, 3, False), (100, 95, 5, True)]

# exact ck instances: (family, size, k); all run in every pass.
CK_MEDIUM = [("cycle", 8, 3), ("path", 8, 2)]
CK_CHEAP = [("cycle", 6, 1), ("cycle", 6, 2), ("path", 7, 1),
            ("path", 8, 1), ("cycle", 8, 1), ("complete", 4, 1),
            ("complete", 5, 2), ("kbip23", 5, 1), ("kbip24", 6, 2)]
CK_INSTANCES = CK_MEDIUM + CK_CHEAP


@dataclass
class Job:
    """One CLI invocation plus what its independent check needs.

    ``check`` names a function in ``checks.CHECKS``.  ``witness_out`` is set
    on reduce jobs: the harness writes the emitted witness there, for the
    verify job that follows in the same pass.
    """

    argv: list
    check: str
    params: dict = field(default_factory=dict)
    largest: bool = False
    witness_out: Optional[str] = None


def _cmd(*args):
    return [str(a) for a in args] + ["--format", "json-lines"]


def _spaced(lo, hi, count):
    """The middle integer of each of `count` consecutive slices of
    [lo, hi]."""
    bounds = [lo + (hi - lo + 1) * i // count for i in range(count + 1)]
    return [(bounds[i] + max(bounds[i] + 1, bounds[i + 1]) - 1) // 2
            for i in range(count)]


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


def _edge_text(edges):
    return "".join(f"{u} {v}\n" for u, v in edges)


# --------------------------------------------------------------- graphs --

def family_edges(family, size):
    """Edge lists of the small named graphs, with fixed labels."""
    if family == "cycle":
        return [(f"v{i}", f"v{i % size + 1}") for i in range(1, size + 1)]
    if family == "path":
        return [(f"v{i}", f"v{i + 1}") for i in range(1, size)]
    if family == "complete":
        return [(f"v{i}", f"v{j}") for i in range(1, size + 1)
                for j in range(i + 1, size + 1)]
    if family.startswith("kbip"):
        a, b = int(family[4]), int(family[5])
        return [(f"x{i}", f"y{j}") for i in range(1, a + 1)
                for j in range(1, b + 1)]
    raise ValueError(f"unknown family {family!r}")


def bipartite_edges(m, n):
    return [(f"x{i}", f"y{j}") for i in range(1, m + 1)
            for j in range(1, n + 1)]


def sweep_sequence(m, n, k):
    """A valid k-radius sequence for K_{m,n}: each x_i, then the y's in
    runs of k, with x_i repeated before every run."""
    items = []
    for i in range(1, m + 1):
        for start in range(1, n + 1, k):
            items.append(f"x{i}")
            items.extend(f"y{j}" for j in range(start, min(start + k, n + 1)))
    return items


def prism(n):
    """C_n x K_2 with a Hamiltonian path: round the outer cycle, back
    along the inner one."""
    edges = ([(f"u{i}", f"u{i % n + 1}") for i in range(1, n + 1)] +
             [(f"w{i}", f"w{i % n + 1}") for i in range(1, n + 1)] +
             [(f"u{i}", f"w{i}") for i in range(1, n + 1)])
    path = [f"u{i}" for i in range(1, n + 1)] + \
           [f"w{i}" for i in range(n, 0, -1)]
    return edges, path


def cube():
    """The 3-cube Q_3 with a Gray-code Hamiltonian path."""
    edges = [(format(a, "03b"), format(a ^ (1 << b), "03b"))
             for a in range(8) for b in range(3) if a < a ^ (1 << b)]
    path = [format(g ^ (g >> 1), "03b") for g in range(8)]
    return edges, path


def k33():
    """K_{3,3} with fixed labels, so its reduction target never changes."""
    return bipartite_edges(3, 3), ["x1", "y1", "x2", "y2", "x3", "y3"]


def relabel(rng, edges, path, prefix):
    """Random labels and edge order; the Hamiltonian path follows along."""
    vertices = sorted({v for e in edges for v in e})
    names = [f"{prefix}{i}" for i in range(1, len(vertices) + 1)]
    rng.shuffle(names)
    mapping = dict(zip(vertices, names))
    edges = [(mapping[u], mapping[v]) for u, v in edges]
    rng.shuffle(edges)
    return edges, [mapping[v] for v in path]


# maxcut instances: (name, edges, known max cut), all on <= 20 vertices.
def maxcut_instances():
    out = []
    for n in (15, 17, 19):
        out.append((f"C{n}", family_edges("cycle", n), n - 1))
    for n in (16, 18, 20):
        out.append((f"C{n}", family_edges("cycle", n), n))
    for n in (8, 10):
        out.append((f"prism{n}", prism(n)[0], 3 * n))
    for n in (8, 10, 12):
        out.append((f"K{n}", family_edges("complete", n), n * n // 4))
    petersen = ([(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)] +
                [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)] +
                [(f"o{i}", f"i{i}") for i in range(5)])
    out.append(("petersen", petersen, 12))
    return out


# ----------------------------------------------------------- workloads --

def _ak_job(k, alphabet=2, largest=False):
    argv = ["ak", "--k", k] + (["--alphabet", alphabet] if alphabet != 2
                               else []) + ["--cycle"]
    return Job(_cmd(*argv), "ak", {"k": k, "alphabet": alphabet},
               largest=largest)


def _ak_sweep(rng, workdir, smoke):
    """Every binary k up to the 2^14-vertex cap and every non-binary (t, k)
    of NONBINARY_SWEPT; only the order depends on the seed."""
    top = 8 if smoke else 14
    jobs = [_ak_job(k, largest=k == top) for k in range(1, top + 1)]
    jobs += [_ak_job(k, t) for t, k in NONBINARY_SWEPT
             if not smoke or t ** k <= 300]
    max_k = 6 if smoke else 12
    jobs.append(Job(_cmd("conjecture", "--max-k", max_k), "conjecture",
                    {"max_k": max_k}))
    jobs.append(Job(_cmd("table2"), "table2"))
    rng.shuffle(jobs)
    return jobs


def _wk_job(k, s, method, alphabet=2, largest=False):
    argv = ["wk", "--k", k, "--s", s, "--method", method]
    if alphabet != 2:
        argv += ["--alphabet", alphabet]
    return Job(_cmd(*argv), "wk", {"k": k, "s": s, "alphabet": alphabet},
               largest=largest)


def _walk_dp(rng, workdir, smoke):
    scale = 5 if smoke else 1
    jobs = []
    for k, count in WALK_JOBS.items():
        if smoke and k > 7:
            continue
        top = 30 if smoke else WALK_MAX_S[k]
        # The top stratum of k = 10 is pinned: it is the largest instance.
        sizes = _spaced(k + 1, top - (k == 10), max(1, count // scale))
        jobs += [_wk_job(k, s, "walk") for s in sizes]
    if not smoke:
        jobs.append(_wk_job(10, WALK_MAX_S[10], "walk", largest=True))
    brute = 24 // scale
    jobs += [_wk_job(1 + i % 8, s, "brute")
             for i, s in enumerate(_spaced(4, 20, brute))]
    if not smoke:
        jobs.append(_wk_job(4, BRUTE_MAX_S, "brute"))
    jobs += [_wk_job(1 + i % 3, s, "brute", alphabet=3)
             for i, s in enumerate(_spaced(4, TERNARY_MAX_S,
                                           max(1, 3 // scale)))]
    jobs += [_wk_job(1 + i % 8, s, "auto")
             for i, s in enumerate(_spaced(4, 16, 20 // scale))]
    jobs += [_wk_job(2 + i % 4, s, "auto")
             for i, s in enumerate(_spaced(17, BRUTE_MAX_S,
                                           max(1, 5 // scale)))]
    for k, s in zip(_spaced(1, 8, 15 // scale),
                    _spaced(40, 400, 15 // scale)):
        jobs.append(Job(_cmd("lowbad", "--k", k, "--s", s), "lowbad",
                        {"k": k, "s": s}))
    for i, n in enumerate(_spaced(8, CIRCULANT_MAX_N, 15 // scale)):
        k = 1 + i % min(4, (n - 1) // 2)
        jobs.append(Job(_cmd("maxcut", "circulant", "--n", n, "--k", k),
                        "maxcut-circulant", {"n": n, "k": k}))
    if smoke:
        jobs[0].largest = True
    rng.shuffle(jobs)
    return jobs


def _bipartite(rng, workdir, smoke):
    m, n, k, eps = (30, 30, 4, 0.5) if smoke else BIPARTITE_LARGEST
    seed = rng.choice(BIPARTITE_SEEDS)
    jobs = [Job(_cmd("construct", "bipartite", "--m", m, "--n", n, "--k", k,
                     "--epsilon", eps, "--seed", seed),
                "construct-bipartite",
                {"m": m, "n": n, "k": k, "epsilon": eps, "seed": seed},
                largest=True)]
    for m, n, k, eps in CONSTRUCT_GRID[:2] if smoke else CONSTRUCT_GRID:
        seed = rng.randrange(10)
        jobs.append(Job(_cmd("construct", "bipartite", "--m", m, "--n", n,
                             "--k", k, "--epsilon", eps, "--seed", seed),
                        "construct-bipartite",
                        {"m": m, "n": n, "k": k, "epsilon": eps,
                         "seed": seed}))
    for m, n, k in COVER_GRID[:1] if smoke else COVER_GRID:
        jobs.append(Job(_cmd("construct", "cover-bipartite", "--m", m,
                             "--n", n, "--k", k),
                        "construct-cover-bipartite",
                        {"m": m, "n": n, "k": k}))
    for i, (m, n, k) in enumerate(BOUNDS_GRID[:1] if smoke
                                  else BOUNDS_GRID):
        edges = bipartite_edges(m, n)
        rng.shuffle(edges)
        graph = _write(workdir / f"bounds{i}.edges", _edge_text(edges))
        jobs.append(Job(_cmd("bounds", "--k", k, "--graph", graph,
                             "--bipartite"),
                        "bounds", {"m": m, "n": n, "k": k}))
    for i, (m, n, k, cyclic) in enumerate(VERIFY_GRID[:1] if smoke
                                          else VERIFY_GRID):
        edges = bipartite_edges(m, n)
        rng.shuffle(edges)
        graph = _write(workdir / f"verify{i}.edges", _edge_text(edges))
        items = sweep_sequence(m, n, k)
        seq = _write(workdir / f"verify{i}.seq", " ".join(items) + "\n")
        jobs.append(Job(_cmd("verify", "radius", "--k", k, "--graph", graph,
                             "--seq", seq, *(["--cyclic"] if cyclic else [])),
                        "verify-radius",
                        {"graph": graph, "seq": seq, "k": k,
                         "cyclic": cyclic}))
    rng.shuffle(jobs)
    return jobs


def _reduce_group(kind, k, edges, witness_lines, name, workdir, largest=False,
                  extra=()):
    """A reduce job plus the verify job on its target and witness files."""
    source = _write(workdir / f"{name}.edges", _edge_text(edges))
    witness = _write(workdir / f"{name}.witness",
                     "".join(line + "\n" for line in witness_lines))
    target = str(workdir / f"{name}.target.edges")
    meta = str(workdir / f"{name}.meta.json")
    emitted = str(workdir / f"{name}.emitted")
    params = {"k": k, "source": source, "target": target, "meta": meta}
    reduce_job = Job(_cmd("reduce", kind, "--k", k, "--graph", source,
                          "--witness", witness, "--target-out", target,
                          "--meta-out", meta),
                     "reduce-" + kind, params, largest=largest,
                     witness_out=emitted)
    verify_kind = "cover" if kind == "cover1-coverk" else "radius"
    verify_job = Job(_cmd("verify", verify_kind, "--k", k, "--graph", target,
                          "--seq", emitted),
                     "verify-" + verify_kind + "-target",
                     {"k": k, "target": target, "witness": emitted})
    return [reduce_job, verify_job, *extra]


def _cycle_cover(rng, n, prefix):
    """C_n with random labels and a 1-cover walking round it from a random
    start in a random direction."""
    names = [f"{prefix}{i}" for i in range(1, n + 1)]
    rng.shuffle(names)
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    start = rng.randrange(n)
    walk = edges[start:] + edges[:start]
    if rng.random() < 0.5:
        walk = [(v, u) for u, v in reversed(walk)]
    shuffled = list(edges)
    rng.shuffle(shuffled)
    return shuffled, [f"{u} {v}" for u, v in walk]


def _hardness(rng, workdir, smoke):
    groups = []
    covers = [(3, 30), (2, 13), (2, 25), (3, 13)]
    for i, (k, n) in enumerate(covers[1:2] if smoke else covers):
        edges, walk = _cycle_cover(rng, n, "c")
        groups.append(_reduce_group("cover1-coverk", k, edges, walk,
                                    f"cover{i}", workdir, largest=i == 0))

    edges, path = k33()
    target = str(workdir / "k33.target.edges")
    fk = Job(_cmd("exact", "fk", "--k", 2, "--graph", target), "exact-fk",
             {"k": 2, "target": target, "optimum": 2 * 6 + 1})
    groups.append(_reduce_group("ham-radius", 2, edges, [" ".join(path)],
                                "k33", workdir, extra=[fk]))
    sources = [(cube(), 3), (cube(), 4), (prism(5), 2), (prism(8), 4),
               (prism(10), 3), (prism(12), 3), (prism(15), 2)]
    for i, ((edges, path), k) in enumerate(sources[:1] if smoke
                                           else sources):
        edges, path = relabel(rng, edges, path, "h")
        groups.append(_reduce_group("ham-radius", k, edges, [" ".join(path)],
                                    f"ham{i}", workdir))

    picks = CK_CHEAP[:1] if smoke else CK_INSTANCES
    for i, (family, size, k) in enumerate(picks):
        graph = _write(workdir / f"ck{i}.edges",
                       _edge_text(family_edges(family, size)))
        groups.append([Job(_cmd("exact", "ck", "--k", k, "--graph", graph),
                           "exact-ck",
                           {"k": k, "graph": graph,
                            "instance": f"{family},{size},{k}"})])
    for i, (name, edges, value) in enumerate(
            maxcut_instances()[:1] if smoke else maxcut_instances()):
        edges, _ = relabel(rng, edges, [], "m")
        graph = _write(workdir / f"maxcut{i}.edges", _edge_text(edges))
        groups.append([Job(_cmd("exact", "maxcut", "--graph", graph),
                           "exact-maxcut", {"value": value, "name": name})])
    rng.shuffle(groups)
    return [job for group in groups for job in group]


_BUILDERS = {"ak-sweep": _ak_sweep, "walk-dp": _walk_dp,
             "bipartite-construct": _bipartite, "hardness-verify": _hardness}


def build(workload, seed, workdir, smoke=False):
    """Jobs of one pass of `workload`, with their input files in workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](random.Random(seed), workdir, smoke)
