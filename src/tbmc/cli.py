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
is found and turned into exit 2 by ``main``.  Bad flags are argparse's,
which exits 2 itself.  ``validate`` writes each ``error: ...`` line to
stderr in both formats, and its text report also keeps those lines on
stdout, so the report reads whole.

Each command returns its exit code, its stdout text and its stderr text;
``main`` is the one place that writes.  When the reader of stdout is gone,
nothing more is written, nothing goes to stderr, and the exit code is the
one the command computed.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

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
Output = Tuple[int, str, str]  # a command's exit code, stdout text and stderr text


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


def _text(lines: Iterable[str]) -> str:
    return "".join(f"{line}\n" for line in lines)


# -- validate -------------------------------------------------------------

def cmd_validate(args) -> Output:
    from . import corpus

    report = corpus.validate(_read_corpus(args.corpus))
    if args.format == "records":
        lines = [_record([
            ("kind", row.kind), ("id", row.item_id),
            ("status", "ok" if row.ok else "mismatch"),
            ("via", row.via), ("actual", row.actual), ("expected", row.expected),
        ]) for row in report.rows]
        lines.append(_record([("result", "pass" if report.passed else "fail")]))
    else:
        lines = [report.render()]
    code = INPUT_ERROR if report.errors else OK if report.passed else MISMATCH_EXIT
    return code, _text(lines), _text(f"error: {err}" for err in report.errors)


# -- derive ---------------------------------------------------------------

def _render_shift(item_id: str, record: Optional[ShiftRecord], result: ShiftResult,
                  surface: Optional[SurfaceForm], fmt: str) -> Output:
    # a field whose value is None is left out
    operand = None if result.operand is None else render_operand(result.operand, result.template.profile)
    if fmt == "records":
        pairs = [("id", item_id), ("rule", result.rule_id), ("template", result.template.render()),
                 ("stratum", result.stratum), ("operand", operand),
                 ("surface", surface.hyphenated if surface else None)]
        return OK, f"{_record((k, v) for k, v in pairs if v is not None)}\n", ""
    pairs = [("item", item_id), ("record", record.render() if record else None), ("rule", result.rule_id),
             ("operand", operand), ("template", result.template.render()), ("stratum", result.stratum),
             ("surface", f"{surface.hyphenated} ({surface.joined})" if surface else None)]
    return OK, _text(f"{k}: {v}" for k, v in pairs if v is not None), ""


def _surface_for(item: Item, result: ShiftResult):
    from . import realizer

    # a resolved item is a noun: transfer and apply_gradient reject verbs
    if item.language != realizer.LANGUAGE:
        return None
    return realizer.realize(item, result.template)


def cmd_derive(args) -> Output:
    state = _load_corpus(args.corpus).state

    if args.item is not None:
        if args.base or args.via:
            raise ValueError("give either an item id or --base/--via, not both")
        for flag in ("target", "animate", "donor_gender", "gradcond", "lang"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag.replace('_', '-')} applies only to an ad-hoc derivation")
        result = engine.transfer(state, args.item)
        record = engine.shift_record(state, args.item)
        surface = _surface_for(state.items[args.item], result)
        return _render_shift(args.item, record if not record.is_empty else None, result, surface, args.format)

    if not args.via or (not args.base and args.via != "BORROW"):
        raise ValueError("ad-hoc derivation needs --base and --via (BORROW may omit --base)")
    for flag in ("base", "target", "lang"):
        if getattr(args, flag) == "":  # an empty value, rejected as on a corpus line
            raise ValueError(f"missing value for --{flag}")
    base = state.item(args.base) if args.base else None
    label = f"(ad hoc from {args.base})" if args.base else "(ad hoc borrowing)"
    # the spell-out preview keeps the base's radical and feminine switches;
    # a borrowing without a base is never spelled out, so its radical is moot
    edge = EdgeSpec(
        derived_id=label, process=Formation(args.via), base_id=args.base,
        target=args.target, language=args.lang,
        radical=base.radical if base else "",
        animate=args.animate == "true", donor_gender=args.donor_gender, gradcond=args.gradcond,
        fem_prefix=base.fem_prefix if base else True,
        fem_suffix=base.fem_suffix if base else True)
    item, record, result = engine.what_if(state, edge)
    surface = None
    if base is not None and edge.process in (Formation.CONVERSION, Formation.WIDENING):
        # these processes preserve the radical, so the spell-out is known
        surface = _surface_for(item, result)
    return _render_shift(label, record, result, surface, args.format)


# -- solve ----------------------------------------------------------------

def cmd_solve(args) -> Output:
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
    return OK, f"{render_operand(operand, profile)}\n", ""


# -- trace ----------------------------------------------------------------

def cmd_trace(args) -> Output:
    nodes = engine.trace(_load_corpus(args.corpus).state, args.item)
    if args.format != "records":
        return OK, f"{engine.render_trace(nodes)}\n", ""
    lines = [_record([
        ("id", node.item_id), ("depth", node.depth), ("stratum", node.stratum),
        ("step", node.process.value if node.process else "head"),
        ("rule", node.rule_id or "-"),
        ("template", node.template.render() if node.template else "-"),
        ("live", "false" if node.superseded else "true"),
    ]) for node in nodes]
    return OK, _text(lines), ""


# -- enumerate --------------------------------------------------------------

def cmd_enumerate(args) -> Output:
    from .templates import enumerate_candidates, render_assignment

    profile = BUILTIN_PROFILES.get(args.profile)
    if profile is None:
        raise ValueError(f"unknown profile {args.profile!r}; have {', '.join(sorted(BUILTIN_PROFILES))}")
    bodies = enumerate_candidates(profile, well_formed_only=args.well_formed)
    label = "well-formed templates" if args.well_formed else "candidates"
    if args.format == "records":
        lines = [_record([("template", render_assignment(body, profile))]) for body in bodies]
        lines.append(_record([("count", len(bodies)), ("kind", label.replace(" ", "-"))]))
    else:
        lines = [render_assignment(body, profile) for body in bodies]
        lines.append(f"{len(bodies)} {label}")
    return OK, _text(lines), ""


# -- estimate --------------------------------------------------------------

def cmd_estimate(args) -> Output:
    from . import estimator

    state = _load_corpus(args.corpus).state
    given = {"require_any": args.require_any, "exclude": args.exclude, "unfiltered_sets": args.unfiltered}
    filt = estimator.EstimationFilter(**{k: frozenset(v.split(",")) for k, v in given.items() if v})
    estimates = estimator.estimate_initial_templates(state, filt)
    if args.format != "records":
        return OK, f"{estimator.render_report(estimates)}\n", ""
    lines = []
    for est in estimates:
        lines.append(_record([
            ("cogset", est.cogset), ("status", est.status.replace(" ", "-")),
            ("sample", est.sample_size),
            ("winner", est.winner.render() if est.winner else "-"),
        ]))
        lines.extend(_record([("cogset", est.cogset), ("template", key), ("count", count)])
                     for key, count in est.histogram)
    return OK, _text(lines), ""


# -- selfcheck --------------------------------------------------------------

def cmd_selfcheck(args) -> Output:
    from . import oracle

    pair_atoms = min(args.atoms + 2, oracle.PAIR_CAP)
    results = oracle.default_suite(axiom_atoms=args.atoms, pair_atoms=pair_atoms)
    if args.format == "records":
        lines = [_record([
            ("check", result.name),
            ("status", "pass" if result.passed else "fail"),
            ("checks", result.checks),
        ]) for result in results]
    else:
        lines = [result.render() for result in results]
    return OK if all(r.passed for r in results) else MISMATCH_EXIT, _text(lines), ""


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
    p.add_argument("--animate", choices=("true", "false"))
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
    """Run one command, then write its stderr text and its stdout text."""
    argparse_exit = None
    try:
        try:
            args = build_parser().parse_args(argv)
            code, out, err = args.func(args)
            sys.stderr.write(err)
            sys.stdout.write(out)  # encodes the whole text before it writes any
        except SystemExit as exc:  # argparse has written --help or a usage error itself
            argparse_exit = exc
        except ValueError as exc:  # an input error (each library error is one), or text stdout cannot encode
            code = INPUT_ERROR
            sys.stderr.write(f"{exc}\n")
        sys.stdout.flush()
    except BrokenPipeError:  # the reader is gone: devnull takes the rest, as the Python docs on SIGPIPE advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if argparse_exit is not None:
        raise argparse_exit
    return code


if __name__ == "__main__":
    sys.exit(main())
