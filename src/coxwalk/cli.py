"""Command-line surface.

Every command renders one payload both as human-readable text and (with
--json) as JSON, so the two views cannot disagree on a verdict.  Exit
codes: 0 all checks pass, 1 a verified fact failed, 2 input or resource
error, 3 unsupported affine type.
"""

import argparse
import json
import os
import sys

from . import affine as affine_mod
from . import antichain as antichain_mod
from . import automaton as automaton_mod
from . import diagram as diagram_mod
from . import verification
from .diagram import classify, components, parse_diagram, subdiagram
from .element import (
    CapExceededError,
    format_word,
    group_for,
    parse_word,
)

EXIT_OK = 0
EXIT_FACT_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_UNSUPPORTED = 3

# Largest K that `automaton --count K` accepts.  The counts for lengths
# 0..K take one transfer-matrix pass of K steps, each costing one big-integer
# add per edge, so the build's edge count bounds K as well.
MAX_COUNT_LENGTH = 1000
# Largest K times edge count that `automaton --count K` accepts.  A count
# walks only the states reached so far, but past the BFS depth that is every
# state, so K times all edges still bounds its adds, and an add costs more as
# the counts grow with K.  Among the built-in automata the slowest accepted
# count is fig1_path5_4335 (75 206 edges) at K = 265: 4.0-7.6 s of counting
# on a 2-vCPU Intel Xeon VM under Python 3.11, whose speed drifts; case_vi
# (273 911 edges) at K = 73 counts in 2.2-3.1 s there.  Uncapped, case_vi at
# K = 1000 took 76 s.
MAX_COUNT_EDGE_STEPS = 20_000_000


def _load_diagram(path):
    with open(path) as fh:
        return parse_diagram(fh.read())


def _emit(payload, lines, as_json):
    if as_json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in lines:
            print(line)


def cmd_classify(args):
    d = _load_diagram(args.file)
    comps = components(d)
    results = []
    for comp in comps:
        sub = subdiagram(d, comp)
        cls = classify(sub)
        results.append(
            {"generators": [d.names[i] for i in comp], "class": cls.value}
        )
    payload = {"command": "classify", "file": args.file, "components": results}
    lines = [
        f"{'{' + ', '.join(r['generators']) + '}'}: {r['class']}" for r in results
    ]
    _emit(payload, lines, args.json)
    return EXIT_OK


def cmd_automaton(args):
    d = _load_diagram(args.file)
    auto = automaton_mod.build(d, cap=args.cap)
    payload = {
        "command": "automaton",
        "file": args.file,
        "states": auto.num_states,
        "edges": auto.num_edges,
    }
    lines = [f"states: {auto.num_states}", f"edges: {auto.num_edges}"]
    if args.count is not None:
        if args.count * auto.num_edges > MAX_COUNT_EDGE_STEPS:
            print(
                f"error: --count {args.count} times {auto.num_edges} edges exceeds "
                f"{MAX_COUNT_EDGE_STEPS} edge steps",
                file=sys.stderr,
            )
            return EXIT_INPUT_ERROR
        counts = auto.reduced_word_counts(args.count)
        payload["reduced_word_counts"] = counts
        lines.append("reduced words by length: " + " ".join(map(str, counts)))
    if args.export:
        # both formats end in exactly one newline, with or without --json
        print(auto.export(args.export).rstrip("\n"))
        return EXIT_OK
    _emit(payload, lines, args.json)
    return EXIT_OK


def cmd_compare(args):
    d = _load_diagram(args.file)
    group = group_for(d)
    w1 = group.element_of(parse_word(d, args.word1))
    w2 = group.element_of(parse_word(d, args.word2))
    fwd = group.weak_leq(w1, w2)
    bwd = group.weak_leq(w2, w1)
    if fwd and bwd:
        relation = "equal"
    elif fwd:
        relation = "word1 < word2"
    elif bwd:
        relation = "word2 < word1"
    else:
        relation = "incomparable"
    payload = {
        "command": "compare",
        "file": args.file,
        "word1": {
            "input": args.word1,
            "length": w1.length(),
            "normal_form": format_word(d, w1.shortlex_nf()),
        },
        "word2": {
            "input": args.word2,
            "length": w2.length(),
            "normal_form": format_word(d, w2.shortlex_nf()),
        },
        "leq_forward": fwd,
        "leq_backward": bwd,
        "relation": relation,
    }
    lines = [
        f"word1: l = {w1.length()}, normal form = {payload['word1']['normal_form']}",
        f"word2: l = {w2.length()}, normal form = {payload['word2']['normal_form']}",
        f"word1 <= word2: {fwd}",
        f"word2 <= word1: {bwd}",
        f"relation: {relation}",
    ]
    _emit(payload, lines, args.json)
    return EXIT_OK


def cmd_goodpair(args):
    d = _load_diagram(args.file)
    group = group_for(d)
    u = group.element_of(parse_word(d, args.word_u))
    w = group.element_of(parse_word(d, args.word_w))
    try:
        cert = antichain_mod.good_pair_family(u, w, args.kmax)
    except antichain_mod.NotAGoodPairError as exc:
        cert, report = None, exc.report
    else:
        report = cert.report
    payload = {"command": "goodpair", "file": args.file, "report": report.to_payload()}
    lines = [
        f"condition ({name}): {'pass' if ok else 'FAIL'}"
        + (f"  [{report.witnesses[name]}]" if name in report.witnesses else "")
        for name, ok in report.conditions.items()
    ]
    lines.append(f"good pair: {report.all_hold}")
    if cert is not None:
        payload["certificate"] = cert.to_payload()
        lines.append(
            f"family w^k u for k <= {args.kmax}: lengths "
            + " ".join(map(str, cert.facts["lengths"]))
            + f", {len(cert.checks)} incomparable pairs verified"
        )
    _emit(payload, lines, args.json)
    return EXIT_OK if report.all_hold else EXIT_FACT_FAILURE


def cmd_antichain(args):
    d = _load_diagram(args.file)
    try:
        cert = antichain_mod.certify_antichain(d, count=args.n, kmax=args.kmax)
    except antichain_mod.NoInfiniteAntichainError as exc:
        payload = {
            "command": "antichain",
            "file": args.file,
            "certificate": None,
            "refusal": str(exc),
        }
        _emit(payload, [f"refusal: {exc}"], args.json)
        return EXIT_OK
    payload = {
        "command": "antichain",
        "file": args.file,
        "certificate": cert.to_payload(),
    }
    lines = [
        f"method: {cert.method}",
        f"family size: {len(cert.family)}",
        f"pairwise checks: {len(cert.checks)} (all incomparable)",
    ]
    for word in cert.family:
        lines.append("  " + format_word(d, word))
    _emit(payload, lines, args.json)
    return EXIT_OK


def cmd_affine_embed(args):
    d = _load_diagram(args.file)
    report = affine_mod.embedding_check(d, args.radius)
    payload = {"command": "affine-embed", "file": args.file, "report": report.to_payload()}
    lines = [
        f"type: {report.type_label} (radius {report.radius})",
        f"elements: {report.elements}, ordered pairs checked: {report.pairs_checked}",
        f"order violations: {len(report.violations)}",
        f"length mismatches: {len(report.length_mismatches)}",
    ]
    _emit(payload, lines, args.json)
    return EXIT_OK if report.ok else EXIT_FACT_FAILURE


def cmd_verify_paper(args):
    if args.fixtures is not None and not os.path.isdir(args.fixtures):
        print(f"error: fixtures directory not found: {args.fixtures}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    results = verification.run_checks(only=args.only, fixtures_dir=args.fixtures)
    if not results:
        print("no checks matched the filter", file=sys.stderr)
        return EXIT_INPUT_ERROR
    payload = {
        "command": "verify-paper",
        "checks": [r.to_payload() for r in results],
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
    }
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        width = max(len(r.check_id) for r in results)
        for r in results:
            mark = "pass" if r.passed else "FAIL"
            print(f"[criterion {r.criterion:>2}] {r.check_id:<{width}} {mark}  ({r.elapsed:.2f}s)")
            if not r.passed:
                print(f"    {r.description}")
                print(f"    details: {r.details}")
        print(f"{payload['passed']} passed, {payload['failed']} failed")
    return EXIT_OK if payload["failed"] == 0 else EXIT_FACT_FAILURE


def _int_at_least(low, high=None):
    """argparse type for integers >= low (and <= high when given); argparse
    names the flag on error."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coxwalk",
        description="Exact computations in Coxeter groups under weak order",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify each irreducible component")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("automaton", help="build the reduced-word automaton")
    p.add_argument("file")
    # stdout carries either the export or the counts, never both
    out = p.add_mutually_exclusive_group()
    out.add_argument("--export", choices=("dot", "json"))
    out.add_argument(
        "--count",
        type=_int_at_least(0, MAX_COUNT_LENGTH),
        metavar="K",
        help=f"print reduced-word counts for lengths <= K (at most {MAX_COUNT_LENGTH})",
    )
    p.add_argument(
        "--cap",
        type=_int_at_least(1),
        default=automaton_mod.DEFAULT_STATE_CAP,
        help=f"state cap (default {automaton_mod.DEFAULT_STATE_CAP})",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_automaton)

    p = sub.add_parser("compare", help="weak-order comparison of two words")
    p.add_argument("file")
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("goodpair", help="check the five good-pair conditions")
    p.add_argument("file")
    p.add_argument("word_u")
    p.add_argument("word_w")
    p.add_argument("--kmax", type=_int_at_least(0), default=6)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_goodpair)

    p = sub.add_parser("antichain", help="produce an infinite-antichain certificate")
    p.add_argument("file")
    p.add_argument("--n", type=_int_at_least(1), default=20, help="family size for the coset construction")
    p.add_argument("--kmax", type=_int_at_least(0), default=6)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_antichain)

    p = sub.add_parser("affine-embed", help="check the alcove embedding on a ball")
    p.add_argument("file")
    p.add_argument("--radius", type=_int_at_least(0), default=5)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_affine_embed)

    p = sub.add_parser("verify-paper", help="run every recorded fact check")
    p.add_argument("--json", action="store_true")
    p.add_argument("--fixtures", help="override the built-in diagram fixtures")
    p.add_argument("--only", nargs="+", help="filter checks by prefix or criterion number")
    p.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except affine_mod.UnsupportedAffineTypeError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (diagram_mod.DiagramError, CapExceededError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except antichain_mod.CertificateError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_FACT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
