"""Command-line front end.

Exit codes: 0 success, 1 domain errors (invalid sequences, uncovered edges,
bad witnesses), 2 usage errors (bad flags, malformed or unreadable files),
3 budget exhaustion, 4 a computed result that failed its own certificate
check (an internal fault: every a_k is checked against its potentials and
witness before it is printed).  Output is human-readable by default; --format
json-lines emits one JSON object per line whose embedded sequences and edge
lists round-trip through the file-format parsers.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import binseq, debruijn, exact, graphs, hardness, radius
from .errors import (BudgetError, InputError, InvalidParameterError,
                     ParseError, StructureError, UnsupportedLengthError,
                     VerificationError, WitnessError)

# OSError covers missing files, directories and unwritable output paths
_USAGE_ERRORS = (InvalidParameterError, ParseError, OSError)
_DOMAIN_ERRORS = (InputError, WitnessError, StructureError,
                  UnsupportedLengthError)


def _fmt_rational(x):
    return str(Fraction(x))


def _fmt_float(x):
    return f"{x:.12g}"


class _Output:
    def __init__(self, fmt):
        self.json = fmt == "json-lines"

    def emit(self, record, human_lines):
        if self.json:
            print(json.dumps(record, sort_keys=True))
        else:
            for line in human_lines:
                print(line)


def _parse_file(parse, path, *args, entry_tokens=1):
    """`parse` run on the file's text and `args`; every error about the
    file's content (a ParseError, InputError, StructureError or
    WitnessError) names the file, and a WitnessError about entry i of the
    file, `entry_tokens` labels an entry, also names that entry's line.
    Every parser splits the text with `str.splitlines`, so its line ends
    need no translation."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the line of the first bad byte, numbered as splitlines does
            line = len((data[:exc.start].decode("utf-8") + ".").splitlines())
            raise ParseError(f"not UTF-8 text (byte 0x{data[exc.start]:02x})",
                             line=line)
        return parse(text, *args)
    except WitnessError as exc:
        if exc.position is not None:
            line = graphs._token_line(text, entry_tokens * exc.position)
            raise WitnessError(f"{path}: line {line}: {exc}") from None
        raise WitnessError(f"{path}: {exc}") from None
    except (ParseError, InputError, StructureError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _cmd_ak(args, out):
    g = debruijn.DeBruijnGraph(args.k, args.alphabet)
    cycle = debruijn.min_normalized_cycle(g)
    record = {"op": "ak", "k": args.k, "alphabet": args.alphabet,
              "value": _fmt_rational(cycle.normalized),
              "cycle": cycle.word, "cycle_length": cycle.length,
              "cycle_weight": cycle.total_weight}
    lines = [f"a_{args.k} = {_fmt_rational(cycle.normalized)}",
             f"cycle {cycle.word} (length {cycle.length}, "
             f"weight {cycle.total_weight})"]
    if args.cycle:
        lines.append(f"windows {' '.join(cycle.windows())}")
    out.emit(record, lines)
    return 0


def _cmd_zk(args, out):
    value = debruijn.zk(args.k)
    out.emit({"op": "zk", "k": args.k, "value": _fmt_rational(value.value),
              "t": value.t},
             [f"z_{args.k} = {_fmt_rational(value.value)} (t = {value.t})"])
    return 0


def _cmd_wk(args, out):
    value = binseq.wk_exact(args.k, args.s, alphabet=args.alphabet,
                            method=args.method)
    out.emit({"op": "wk", "k": args.k, "s": args.s,
              "alphabet": args.alphabet, "value": value},
             [f"w_{args.k}({args.s}) = {value}"])
    return 0


def _cmd_lowbad(args, out):
    result = binseq.construct_low_bad(args.k, args.s)
    out.emit({"op": "lowbad", "k": args.k, "s": args.s,
              "sequence": str(result.sequence),
              "bad_pairs": result.bad_count},
             [f"{result.sequence}", f"bad pairs: {result.bad_count}"])
    return 0


def _cmd_bounds(args, out):
    g = _parse_file(graphs.parse_graph, args.graph)
    report = radius.bounds(g, args.k)
    if args.bipartite and not report.bipartite:
        raise InputError("graph is not bipartite")
    edge, bipartite = (None if x is None else _fmt_rational(x)
                       for x in (report.edge_bound, report.bipartite_bound))
    record = {"op": "bounds", "k": args.k, "edge_bound": edge,
              "bipartite_bound": bipartite,
              "degree_bound": report.degree_bound,
              "fk_lower": report.fk_lower}
    lines = [f"edge-count bound: {edge}" if edge else
             "edge-count bound: not applicable (too few non-isolated vertices)"]
    if bipartite:
        lines.append(f"bipartite cycle bound: {bipartite}")
    lines += [f"degree bound: {report.degree_bound}",
              f"length lower bound: {report.fk_lower}"]
    out.emit(record, lines)
    return 0


def _cmd_verify(args, out):
    g = _parse_file(graphs.parse_graph, args.graph)
    if args.kind == "radius":
        mode = radius.CYCLIC if args.cyclic else radius.LINEAR
        seq = _parse_file(radius.parse_vertex_sequence, args.seq, g, mode)
        check = radius.verify_radius(seq, args.k)
        record = {"op": "verify-radius", "length": len(seq)}
        size = f"{len(seq)} items"
    else:
        # parsed and verified in one call, so a structure error names the file
        check = _parse_file(lambda text: radius.verify_cover(
            radius.parse_cover_sequence(text, g, args.k)), args.seq)
        record = {"op": "verify-cover", "reads": check.reads}
        size = f"reads {check.reads}"
    record.update(k=args.k, valid=check.valid,
                  uncovered=[list(e) for e in check.uncovered])
    lines = [f"{'valid' if check.valid else 'INVALID'} ({size})"]
    lines += [f"uncovered: {u} {v}" for u, v in check.uncovered]
    out.emit(record, lines)
    return 0 if check.valid else 1


def _cmd_construct(args, out):
    if args.kind == "bipartite":
        result = radius.construct_bipartite(args.m, args.n, args.k,
                                            epsilon_hint=args.epsilon,
                                            seed=args.seed)
        lower = _fmt_rational(result.lower_bound)
        ratio = _fmt_float(result.ratio)
        text = " ".join(result.sequence.items)
        record = {"op": "construct-bipartite", "k": args.k, "m": args.m,
                  "n": args.n, "length": result.length,
                  "lower_bound": lower, "ratio": ratio, "sequence": text}
        out.emit(record, [f"length {result.length}, lower bound {lower}, "
                          f"ratio {ratio}", text])
    elif args.kind == "cover-bipartite":
        cov = radius.cover_strategy_bipartite(args.m, args.n, args.k)
        cover = radius.serialize_cover_sequence(cov)
        record = {"op": "construct-cover-bipartite", "k": args.k,
                  "m": args.m, "n": args.n, "sets": len(cov),
                  "reads": cov.reads, "cover": cover}
        out.emit(record, [f"{len(cov)} sets, reads {cov.reads}",
                          *cover.splitlines()])
    else:  # euler1
        g = _parse_file(graphs.parse_graph, args.graph)
        seq = radius.euler_radius1(g)
        record = {"op": "construct-euler1", "length": len(seq),
                  "sequence": " ".join(seq.items)}
        lines = [f"length {len(seq)}", " ".join(seq.items)]
        out.emit(record, lines)
    return 0


def _cmd_exact(args, out):
    g = _parse_file(graphs.parse_graph, args.graph)
    if args.kind == "maxcut":
        value = exact.exact_maxcut(g)
        out.emit({"op": "exact-maxcut", "value": value},
                 [f"max cut = {value}"])
        return 0
    limits = {} if args.time_limit is None else {"time_limit": args.time_limit}
    # both searches cap their memos, so the clock alone can bound them
    budget = exact.SearchBudget(node_limit=sys.maxsize, **limits)
    if args.kind == "fk":
        mode = radius.CYCLIC if args.cyclic else radius.LINEAR
        result = exact.exact_fk(g, args.k, mode=mode, budget=budget)
        name = f"f_{args.k}" + ("^cyc" if args.cyclic else "")
    else:
        result = exact.exact_ck(g, args.k, budget=budget)
        name = f"c_{args.k}"
    if not result.is_optimal:
        out.emit({"op": f"exact-{args.kind}", "k": args.k,
                  "status": "unknown", "lower": result.lower,
                  "upper": result.upper},
                 [f"{name}: unknown (proven >= {result.lower}"
                  + (f", best found {result.upper}" if result.upper else "")
                  + ")"])
        return 3
    if args.kind == "fk":
        witness = " ".join(result.witness.items)
    else:
        witness = radius.serialize_cover_sequence(result.witness).strip()
    out.emit({"op": f"exact-{args.kind}", "k": args.k, "status": "optimal",
              "value": result.optimum, "witness": witness},
             [f"{name} = {result.optimum}", witness])
    return 0


def _cmd_maxcut(args, out):
    value = radius.maxcut_circulant(args.n, args.k)
    record = {"op": "maxcut-circulant", "n": args.n, "k": args.k,
              "value": value}
    lines = [f"mc = {value}"]
    if args.brute_check:
        brute = exact.exact_maxcut(graphs.circulant(args.n, args.k))
        record["brute"] = brute
        lines.append(f"brute force = {brute}")
        if brute != value:
            raise VerificationError(
                f"identity mismatch: {value} != brute {brute}")
    out.emit(record, lines)
    return 0


def _cmd_reduce(args, out):
    g = _parse_file(graphs.parse_graph, args.graph)
    if args.kind == "ham-radius":
        inst = hardness.reduce_hampath_to_radius(g, args.k)
    else:
        inst = hardness.reduce_cover1_to_coverk(g, args.k)
    meta = hardness.instance_metadata(inst)
    record = dict(meta)
    record["op"] = "reduce"
    lines = [f"{key} = {value}" for key, value in sorted(meta.items())]
    if args.target_out:
        with open(args.target_out, "w", encoding="utf-8") as fh:
            fh.write(graphs.serialize_graph(inst.target))
        lines.append(f"target graph written to {args.target_out}")
    if args.meta_out:
        with open(args.meta_out, "w", encoding="utf-8") as fh:
            fh.write(hardness.serialize_metadata(inst))
        lines.append(f"metadata written to {args.meta_out}")
    if args.witness:
        if args.kind == "ham-radius":
            seq = _parse_file(
                lambda text: hardness.hampath_witness_to_sequence(
                    inst, radius.parse_vertex_sequence(text, g).items),
                args.witness)
            record["witness_length"] = len(seq)
            record["witness"] = " ".join(seq.items)
            lines.append(f"witness length {len(seq)} (threshold "
                         f"{inst.threshold})")
            lines.append(" ".join(seq.items))
        else:
            cov = _parse_file(
                lambda text: hardness.cover1_witness_to_coverk(
                    inst, graphs.parse_graph(text).edges),
                args.witness, entry_tokens=2)
            record["witness_length"] = len(cov)
            record["losses"] = inst.witness_losses
            record["witness"] = radius.serialize_cover_sequence(cov)
            lines.append(f"witness length {len(cov)} (target "
                         f"{inst.target_length}), losses {record['losses']}")
            lines.extend(record["witness"].splitlines())
    out.emit(record, lines)
    return 0


def _cmd_table2(args, out):
    rows = []
    for k in range(1, 6):
        cycle = debruijn.min_normalized_cycle(debruijn.DeBruijnGraph(k))
        rows.append({"k": k, "ak": _fmt_rational(cycle.normalized),
                     "cycle": cycle.word})
    out.emit({"op": "table2", "rows": rows},
             [f"{'k':<3}{'a_k':<6}cycle"] +
             [f"{row['k']:<3}{row['ak']:<6}{row['cycle']}" for row in rows])
    return 0


def _cmd_conjecture(args, out):
    if args.max_k < 1:
        raise InvalidParameterError(f"max-k must be >= 1, got {args.max_k}")
    lines = []
    rows = []
    for k in range(1, args.max_k + 1):
        z = debruijn.zk(k)
        a = debruijn.ak(k)
        rows.append({"k": k, "ak": _fmt_rational(a),
                     "zk": _fmt_rational(z.value), "equal": a == z.value})
        lines.append(f"k={k}: a_k={_fmt_rational(a)} "
                     f"z_k={_fmt_rational(z.value)} "
                     f"{'equal' if a == z.value else 'DIFFER'}")
    out.emit({"op": "conjecture", "max_k": args.max_k, "rows": rows}, lines)
    return 0


# Cached: main() may run many times in one process.  argparse makes a fresh
# Namespace on every parse and reads sys.stdout, sys.stderr and the terminal
# width only when it prints, so one tree serves every call; callers share it
# and must not modify it.  Every leaf parser declares only the flags its
# handler reads, so any other flag exits 2.
@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="radiuskit",
        description="k-radius and k-cover sequence toolkit")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["human", "json-lines"],
                        default="human", help="output format")
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(group, name, func, **kwargs):
        p = group.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(func=func)
        return p

    def kinds(name, **kwargs):
        return sub.add_parser(name, **kwargs).add_subparsers(dest="kind",
                                                             required=True)

    p = leaf(sub, "ak", _cmd_ak, help="minimum normalized cycle weight")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--cycle", action="store_true",
                   help="also print the witness cycle's window decomposition")

    p = leaf(sub, "zk", _cmd_zk, help="alternating-run cycle bound")
    p.add_argument("--k", type=int, required=True)

    p = leaf(sub, "wk", _cmd_wk, help="minimum bad-pair count for length s")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--method", choices=["auto", "brute", "walk"],
                   default="auto")
    p.add_argument("--alphabet", type=int, default=2)

    p = leaf(sub, "lowbad", _cmd_lowbad,
             help="construct a low-bad-pair string")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)

    p = leaf(sub, "bounds", _cmd_bounds, help="lower bounds for a graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--bipartite", action="store_true",
                   help="require the graph to be bipartite")

    group = kinds("verify", help="verify a sequence against a graph")
    for kind in ("radius", "cover"):
        p = leaf(group, kind, _cmd_verify)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--graph", required=True)
        p.add_argument("--seq", required=True)
    group.choices["radius"].add_argument("--cyclic", action="store_true")

    group = kinds("construct", help="constructive sequences")
    for kind in ("bipartite", "cover-bipartite"):
        p = leaf(group, kind, _cmd_construct)
        p.add_argument("--k", type=int, default=1)
        p.add_argument("--m", type=int, default=0)
        p.add_argument("--n", type=int, default=0)
    bipartite = group.choices["bipartite"]
    bipartite.add_argument("--epsilon", type=float, default=0.5)
    bipartite.add_argument("--seed", type=int, default=0)
    leaf(group, "euler1", _cmd_construct).add_argument("--graph",
                                                       required=True)

    group = kinds("exact", help="exhaustive solvers (tiny instances)")
    for kind in ("fk", "ck"):
        p = leaf(group, kind, _cmd_exact)
        p.add_argument("--k", type=int, default=1)
        p.add_argument("--graph", required=True)
        p.add_argument("--time-limit", type=float, default=None)
    group.choices["fk"].add_argument("--cyclic", action="store_true")
    leaf(group, "maxcut", _cmd_exact).add_argument("--graph", required=True)

    p = leaf(sub, "maxcut", _cmd_maxcut, help="circulant max cut identity")
    p.add_argument("kind", choices=["circulant"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--brute-check", action="store_true")

    p = leaf(sub, "reduce", _cmd_reduce, help="hardness reduction instances")
    p.add_argument("kind", choices=["ham-radius", "cover1-coverk"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--witness", help="witness to transform (vertex list / "
                                     "edge list file)")
    p.add_argument("--target-out", help="write the target graph edge list")
    p.add_argument("--meta-out", help="write sidecar metadata JSON")

    leaf(sub, "table2", _cmd_table2,
         help="minimum-cycle constants for k = 1..5")

    p = leaf(sub, "conjecture", _cmd_conjecture,
             help="compare exact constants against the alternating-run bound")
    p.add_argument("--max-k", type=int, required=True)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Output(args.format)
    try:
        return args.func(args, out)
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"internal error: result failed verification: {exc}",
              file=sys.stderr)
        return 4
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
