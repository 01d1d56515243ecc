"""Command-line front end.

Subcommands: validate, derive, solve, trace, enumerate, estimate,
selfcheck.  Exit codes are uniform across commands: 0 for success or a
fully matching corpus, 1 for a semantic mismatch or a failed oracle check,
2 for input errors (unparseable corpus, unknown item, malformed template
text, bad flags).

Every command writes deterministically to stdout: identical invocations
over identical corpora produce byte-identical output.  ``--format records``
switches to one tab-separated ``key=value`` record per line with a stable
field order, for golden-file comparison without a parser.

Errors go to stderr, one line each, whatever the format.  An input error
is a ``ValueError`` (every module's error class is one), raised wherever it
is found; ``main`` is the one place that prints it and exits 2.  Bad flags
are argparse's, which exits 2 itself.  ``validate`` writes each
``error: ...`` line to stderr in both formats, and its text report also
keeps those lines on stdout, so the report reads whole.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional

# A cold command imports only what it runs: the parser and the dispatch need
# only these, and each command imports the rest of the library itself.
# ``engine`` stays a module global, called as ``engine.…``, because the
# benchmark's tracer (bench/spans.py) swaps this global for its proxy.
from . import engine
from .algebra import TRIPLE_CAP
from .lexicon import EdgeSpec, Formation
from .templates import BUILTIN_PROFILES, Template, render_operand

if TYPE_CHECKING:
    from .corpus import CorpusDocument, LoadResult
    from .engine import ShiftResult
    from .lexicon import Item, ShiftRecord
    from .realizer import SurfaceForm

OK, MISMATCH_EXIT, INPUT_ERROR = 0, 1, 2


def _read_corpus(path: str) -> CorpusDocument:
    """Read and parse; a problem raises ValueError, one line per issue."""
    from . import corpus

    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeError) as exc:
        raise ValueError(f"cannot read corpus: {exc}") from exc
    document = corpus.parse(text)
    if not document.ok:
        raise ValueError("\n".join(issue.render() for issue in document.issues))
    return document


def _load_corpus(path: str) -> LoadResult:
    """Read, parse and load; a problem raises ValueError, one line per issue."""
    from . import corpus

    loaded = corpus.load(_read_corpus(path))
    if loaded.errors:
        raise ValueError("\n".join(loaded.errors))
    return loaded


def _record(pairs) -> str:
    return "\t".join(f"{k}={v}" for k, v in pairs)


# -- validate -------------------------------------------------------------

def cmd_validate(args) -> int:
    from . import corpus

    report = corpus.validate(_read_corpus(args.corpus))
    for err in report.errors:
        print(f"error: {err}", file=sys.stderr)
    if args.format == "records":
        for row in report.rows:
            print(_record([
                ("kind", row.kind), ("id", row.item_id),
                ("status", "ok" if row.ok else "mismatch"),
                ("via", row.via), ("actual", row.actual), ("expected", row.expected),
            ]))
        print(_record([("result", "pass" if report.passed else "fail")]))
    else:
        print(report.render())
    if report.errors:
        return INPUT_ERROR
    return OK if report.passed else MISMATCH_EXIT


# -- derive ---------------------------------------------------------------

def _render_shift(item_id: str, record: Optional[ShiftRecord], result: ShiftResult,
                  surface: Optional[SurfaceForm], fmt: str) -> None:
    if fmt == "records":
        pairs = [("id", item_id), ("rule", result.rule_id),
                 ("template", result.template.render()), ("stratum", result.stratum)]
        if result.operand is not None:
            pairs.append(("operand", render_operand(result.operand, result.template.profile)))
        if surface is not None:
            pairs.append(("surface", surface.hyphenated))
        print(_record(pairs))
        return
    print(f"item: {item_id}")
    if record is not None:
        print(f"record: {record.render()}")
    print(f"rule: {result.rule_id}")
    if result.operand is not None:
        print(f"operand: {render_operand(result.operand, result.template.profile)}")
    print(f"template: {result.template.render()}")
    print(f"stratum: {result.stratum}")
    if surface is not None:
        print(f"surface: {surface.hyphenated} ({surface.joined})")


def _surface_for(item: Item, result: ShiftResult):
    from . import realizer

    # a resolved item is a noun: transfer and apply_gradient reject verbs
    if item.language != realizer.LANGUAGE:
        return None
    return realizer.realize(item, result.template)


def cmd_derive(args) -> int:
    state = _load_corpus(args.corpus).state

    if args.item is not None:
        if args.base or args.via:
            raise ValueError("give either an item id or --base/--via, not both")
        result = engine.transfer(state, args.item)
        record = engine.shift_record(state, args.item)
        surface = _surface_for(state.items[args.item], result)
        _render_shift(args.item, record if not record.is_empty else None, result, surface, args.format)
        return OK

    if not args.via or (not args.base and args.via != "BORROW"):
        raise ValueError("ad-hoc derivation needs --base and --via (BORROW may omit --base)")
    base = state.item(args.base) if args.base else None
    label = f"(ad hoc from {args.base})" if args.base else "(ad hoc borrowing)"
    # the spell-out preview keeps the base's radical and feminine switches;
    # a borrowing without a base is never spelled out, so its radical is moot
    edge = EdgeSpec(
        derived_id=label, process=Formation(args.via), base_id=args.base or None,
        target=args.target or None, language=args.lang or None,
        radical=base.radical if base else "",
        animate=args.animate == "true", donor_gender=args.donor_gender, gradcond=args.gradcond,
        fem_prefix=base.fem_prefix if base else True,
        fem_suffix=base.fem_suffix if base else True)
    item, record, result = engine.what_if(state, edge)
    surface = None
    if base is not None and edge.process in (Formation.CONVERSION, Formation.WIDENING):
        # these processes preserve the radical, so the spell-out is known
        surface = _surface_for(item, result)
    _render_shift(label, record, result, surface, args.format)
    return OK


# -- solve ----------------------------------------------------------------

def cmd_solve(args) -> int:
    from .templates import parse_template_text, validate as validate_body

    base_body = parse_template_text(args.base)
    result_body = parse_template_text(args.result)
    if args.profile:
        if args.profile not in BUILTIN_PROFILES:
            raise ValueError(f"unknown profile {args.profile!r}; have {', '.join(sorted(BUILTIN_PROFILES))}")
        candidates = [BUILTIN_PROFILES[args.profile]]
    else:
        candidates = [
            BUILTIN_PROFILES[name] for name in sorted(BUILTIN_PROFILES)
            if not validate_body(base_body, BUILTIN_PROFILES[name])
            and not validate_body(result_body, BUILTIN_PROFILES[name])
        ]
    if not candidates:
        raise ValueError("templates fit no built-in profile; pass --profile")
    profile = candidates[0]
    operand = engine.solve_operand(Template(profile, base_body), Template(profile, result_body))
    print(render_operand(operand, profile))
    return OK


# -- trace ----------------------------------------------------------------

def cmd_trace(args) -> int:
    tree = engine.trace(_load_corpus(args.corpus).state, args.item)
    if args.format == "records":
        stack = [(tree, 0)]  # depth-first, first child first, as render_trace
        while stack:
            node, depth = stack.pop()
            print(_record([
                ("id", node.item_id), ("depth", depth), ("stratum", node.stratum),
                ("step", node.process.value if node.process else "head"),
                ("rule", node.rule_id or "-"),
                ("template", node.template.render() if node.template else "-"),
                ("live", "false" if node.superseded else "true"),
            ]))
            stack.extend((child, depth + 1) for child in reversed(node.children))
    else:
        print(engine.render_trace(tree))
    return OK


# -- enumerate --------------------------------------------------------------

def cmd_enumerate(args) -> int:
    from .templates import enumerate_candidates, render_assignment

    profile = BUILTIN_PROFILES.get(args.profile)
    if profile is None:
        raise ValueError(f"unknown profile {args.profile!r}; have {', '.join(sorted(BUILTIN_PROFILES))}")
    bodies = enumerate_candidates(profile, well_formed_only=args.well_formed)
    for body in bodies:
        if args.format == "records":
            print(_record([("template", render_assignment(body, profile))]))
        else:
            print(render_assignment(body, profile))
    label = "well-formed templates" if args.well_formed else "candidates"
    if args.format == "records":
        print(_record([("count", len(bodies)), ("kind", label.replace(" ", "-"))]))
    else:
        print(f"{len(bodies)} {label}")
    return OK


# -- estimate --------------------------------------------------------------

def cmd_estimate(args) -> int:
    from . import estimator

    state = _load_corpus(args.corpus).state
    filt = estimator.EstimationFilter(
        require_any=frozenset(args.require_any.split(",")) if args.require_any else
        estimator.DEFAULT_FILTER.require_any,
        exclude=frozenset(args.exclude.split(",")) if args.exclude else
        estimator.DEFAULT_FILTER.exclude,
        unfiltered_sets=frozenset(args.unfiltered.split(",")) if args.unfiltered else
        estimator.DEFAULT_FILTER.unfiltered_sets,
    )
    estimates = estimator.estimate_initial_templates(state, filt)
    if args.format == "records":
        for est in estimates:
            print(_record([
                ("cogset", est.cogset), ("status", est.status.replace(" ", "-")),
                ("sample", est.sample_size),
                ("winner", est.winner.render() if est.winner else "-"),
            ]))
            for key, count in est.histogram:
                print(_record([("cogset", est.cogset), ("template", key), ("count", count)]))
    else:
        print(estimator.render_report(estimates))
    return OK


# -- selfcheck --------------------------------------------------------------

def cmd_selfcheck(args) -> int:
    from . import oracle

    pair_atoms = min(args.atoms + 2, oracle.PAIR_CAP)
    results = oracle.default_suite(axiom_atoms=args.atoms, pair_atoms=pair_atoms)
    for result in results:
        if args.format == "records":
            print(_record([
                ("check", result.name),
                ("status", "pass" if result.passed else "fail"),
                ("checks", result.checks),
            ]))
        else:
            print(result.render())
    return OK if all(r.passed for r in results) else MISMATCH_EXIT


# -- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tbmc",
        description="Grammatical template shifts: derivation, solving, tracing, "
                    "estimation, enumeration and self-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "records"), default="text")

    p = sub.add_parser("validate", help="check a corpus against its expectations")
    p.add_argument("corpus")
    add_format(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("derive", help="resolve an item's template, or derive ad hoc")
    p.add_argument("corpus")
    p.add_argument("item", nargs="?", default=None)
    p.add_argument("--base")
    p.add_argument("--via", choices=[f.value for f in Formation])
    p.add_argument("--target")
    p.add_argument("--animate", choices=("true", "false"), default="false")
    p.add_argument("--donor-gender", choices=("M", "F"))
    p.add_argument("--gradcond")
    p.add_argument("--lang")
    add_format(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("solve", help="isolate the operand between two templates")
    p.add_argument("--base", required=True, metavar="{T}")
    p.add_argument("--result", required=True, metavar="{T}")
    p.add_argument("--profile")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("trace", help="print an item's phylotemplatic tree")
    p.add_argument("corpus")
    p.add_argument("item")
    add_format(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("enumerate", help="list template candidates of a profile")
    p.add_argument("--profile", required=True)
    p.add_argument("--well-formed", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("estimate", help="initial templates by filtered frequency")
    p.add_argument("corpus")
    p.add_argument("--require-any", metavar="FLAG,FLAG")
    p.add_argument("--exclude", metavar="FLAG,FLAG")
    p.add_argument("--unfiltered", metavar="SET,SET")
    add_format(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("selfcheck", help="brute-force verification of the algebra")
    p.add_argument("--atoms", type=int, choices=range(1, TRIPLE_CAP + 1),
                   default=TRIPLE_CAP, metavar="N",
                   help=f"atoms in the axiom universe, 1 to {TRIPLE_CAP} (default {TRIPLE_CAP})")
    add_format(p)
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # every input error of the library is one
        print(exc, file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
