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

Errors go to stderr, one line each, whatever the format.  ``validate``
writes each ``error: ...`` line to stderr in both formats, and its text
report also keeps those lines on stdout, so the report reads whole.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import corpus as corpus_mod
from . import engine, estimator, oracle, realizer
from .engine import DEFAULT_RULES, ShiftResult
from .lexicon import Formation, Item, LexiconState, ShiftRecord, VERB, formation_from_token
from .templates import BUILTIN_PROFILES, Template, render_operand

OK, MISMATCH_EXIT, INPUT_ERROR = 0, 1, 2


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return INPUT_ERROR


def _read_corpus(path: str) -> Optional[corpus_mod.CorpusDocument]:
    """Read and parse, or None after printing the problem to stderr."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeError) as exc:
        print(f"cannot read corpus: {exc}", file=sys.stderr)
        return None
    document = corpus_mod.parse(text)
    if not document.ok:
        for issue in document.issues:
            print(issue.render(), file=sys.stderr)
        return None
    return document


def _load_corpus(path: str) -> Optional[corpus_mod.LoadResult]:
    """Read, parse and load, or None after printing the problems to stderr."""
    document = _read_corpus(path)
    if document is None:
        return None
    loaded = corpus_mod.load(document)
    if loaded.errors:
        for err in loaded.errors:
            print(err, file=sys.stderr)
        return None
    return loaded


def _record(pairs) -> str:
    return "\t".join(f"{k}={v}" for k, v in pairs)


# -- validate -------------------------------------------------------------

def cmd_validate(args) -> int:
    document = _read_corpus(args.corpus)
    if document is None:
        return INPUT_ERROR
    report = corpus_mod.validate(document)
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
                  surface: Optional[realizer.SurfaceForm], fmt: str) -> None:
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


def _surface_for(state: LexiconState, item_id: str, result: ShiftResult):
    item = state.items[item_id]
    if item.category == VERB or item.language != realizer.DEFAULT_INVENTORY.language:
        return None
    return realizer.realize(item, result.template)


def cmd_derive(args) -> int:
    loaded = _load_corpus(args.corpus)
    if loaded is None:
        return INPUT_ERROR
    state = loaded.state

    if args.item is not None:
        if args.base or args.via:
            return _fail("give either an item id or --base/--via, not both")
        try:
            result = engine.transfer(state, args.item)
            record = engine.shift_record(state, args.item)
            surface = _surface_for(state, args.item, result)
        except ValueError as exc:
            return _fail(str(exc))
        _render_shift(args.item, record if not record.is_empty else None, result, surface, args.format)
        return OK

    if not args.via or (not args.base and args.via != "BORROW"):
        return _fail("ad-hoc derivation needs --base and --via (BORROW may omit --base)")
    try:
        process = formation_from_token(args.via)
        base_item = state.item(args.base) if args.base else None
        base_template = None
        if base_item is not None and base_item.category != VERB:
            base_template = engine.transfer(state, args.base).template
        language = args.lang or (base_item.language if base_item else None)
        if language is None:
            return _fail("--via BORROW without --base needs --lang")
        if language not in state.profiles:
            return _fail(f"no profile for language {language!r}")
        target = args.target or (base_item.cogset if base_item else None)
        record = ShiftRecord(
            process=process,
            base_template=base_template,
            target=target,
            base_id=args.base,
            base_cogset=base_item.cogset if base_item else None,
            animate=args.animate == "true",
            donor_gender=args.donor_gender,
            gradcond=args.gradcond,
            stratum=(state.stratum(args.base) + 1) if args.base else 0,
        )
        rules = state.rules if state.rules is not None else DEFAULT_RULES
        result = engine.apply_gradient(record, state.profiles[language], state.initials, rules)
    except ValueError as exc:
        return _fail(str(exc))
    surface = None
    if (base_item is not None and language == realizer.DEFAULT_INVENTORY.language
            and process in (Formation.CONVERSION, Formation.WIDENING)):
        # these processes preserve the radical, so the spell-out is known;
        # realize a fresh noun preview (the base may be a verb or carry its
        # own override, neither of which applies to the derivative)
        preview = Item(
            id=f"{base_item.id}+", language=language, radical=base_item.radical,
            cogset=record.target or "C",
            fem_prefix=base_item.fem_prefix, fem_suffix=base_item.fem_suffix)
        surface = realizer.realize(preview, result.template)
    label = f"(ad hoc from {args.base})" if args.base else "(ad hoc borrowing)"
    _render_shift(label, record, result, surface, args.format)
    return OK


# -- solve ----------------------------------------------------------------

def cmd_solve(args) -> int:
    from .templates import parse_template_text, validate as validate_body

    try:
        base_body = parse_template_text(args.base)
        result_body = parse_template_text(args.result)
    except ValueError as exc:
        return _fail(str(exc))
    if args.profile:
        if args.profile not in BUILTIN_PROFILES:
            return _fail(f"unknown profile {args.profile!r}; have {', '.join(sorted(BUILTIN_PROFILES))}")
        candidates = [BUILTIN_PROFILES[args.profile]]
    else:
        candidates = [
            BUILTIN_PROFILES[name] for name in sorted(BUILTIN_PROFILES)
            if not validate_body(base_body, BUILTIN_PROFILES[name])
            and not validate_body(result_body, BUILTIN_PROFILES[name])
        ]
    if not candidates:
        return _fail("templates fit no built-in profile; pass --profile")
    profile = candidates[0]
    try:
        operand = engine.solve_operand(Template(profile, base_body), Template(profile, result_body))
    except ValueError as exc:
        return _fail(str(exc))
    print(render_operand(operand, profile))
    return OK


# -- trace ----------------------------------------------------------------

def cmd_trace(args) -> int:
    loaded = _load_corpus(args.corpus)
    if loaded is None:
        return INPUT_ERROR
    try:
        tree = engine.trace(loaded.state, args.item)
    except ValueError as exc:
        return _fail(str(exc))
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
        return _fail(f"unknown profile {args.profile!r}; have {', '.join(sorted(BUILTIN_PROFILES))}")
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
    loaded = _load_corpus(args.corpus)
    if loaded is None:
        return INPUT_ERROR
    filt = estimator.EstimationFilter(
        require_any=frozenset(args.require_any.split(",")) if args.require_any else
        estimator.DEFAULT_FILTER.require_any,
        exclude=frozenset(args.exclude.split(",")) if args.exclude else
        estimator.DEFAULT_FILTER.exclude,
        unfiltered_sets=frozenset(args.unfiltered.split(",")) if args.unfiltered else
        estimator.DEFAULT_FILTER.unfiltered_sets,
    )
    try:
        report = estimator.estimate_initial_templates(loaded.state, filt)
    except ValueError as exc:
        return _fail(str(exc))
    if args.format == "records":
        for est in report.estimates:
            print(_record([
                ("cogset", est.cogset), ("status", est.status.replace(" ", "-")),
                ("sample", est.sample_size),
                ("winner", est.winner.render() if est.winner else "-"),
            ]))
            for key, count in est.histogram:
                print(_record([("cogset", est.cogset), ("template", key), ("count", count)]))
    else:
        print(estimator.render_report(report))
    return OK


# -- selfcheck --------------------------------------------------------------

def cmd_selfcheck(args) -> int:
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
    p.add_argument("--atoms", type=int, choices=range(1, oracle.TRIPLE_CAP + 1),
                   default=oracle.TRIPLE_CAP, metavar="N",
                   help=f"atoms in the axiom universe, 1 to {oracle.TRIPLE_CAP} (default {oracle.TRIPLE_CAP})")
    add_format(p)
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
