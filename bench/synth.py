"""Seeded synthetic corpora and the reference answers the benchmark owns.

The generator never asks tbmc for an answer.  It writes ``.tbmc`` text and,
alongside it, the template, rule and stratum it expects for every derived
item, computed with its own feature arithmetic over the R1/R2/R4/R5 table:

* R1  conversion, inanimate derivative:        base Δ {+M, -M, +F, -F}
* R2  widening, or animate conversion:          base Δ {} (template kept)
* R4  morphological derivation, or any
      formation off a verb:                     initial template of the target set
* R5  borrowing:                                initial template, donor gender forced

Renamed copies of the bundled Riffian and French chains carry their
hand-written ``expect_template`` and ``expect_surface``, which become the
reference for those items.
"""

from __future__ import annotations

import random
import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple

Body = FrozenSet[str]

SLOTS = {
    "riffian": (("SG", "PL"), ("M", "F"), ("COL", "SING")),
    "french": (("SG", "PL"), ("M", "F"), ("DEF",), ("COL",)),
}
COGSETS = {"riffian": ("C", "U", "NA", "NAdr"), "french": ("C", "U")}
GENDER_FLIP: Body = frozenset({"+M", "-M", "+F", "-F"})


def parse_body(text: str) -> Body:
    """``{N, +SG, -PL}`` to a set of atoms; the benchmark's own reader."""
    inner = text.strip()[1:-1]
    return frozenset(tok.strip() for tok in inner.split(",") if tok.strip())


def render(language: str, body: Body) -> str:
    """Canonical text in slot declaration order, as tbmc prints it."""
    parts = ["N"]
    for slot in SLOTS[language]:
        for name in slot:
            parts.append(("+" if "+" + name in body else "-") + name)
    return "{" + ", ".join(parts) + "}"


def _body(language: str, signs: str) -> Body:
    """A body from one sign per slot: '+' picks the first member positive."""
    atoms = {"N"}
    for sign, slot in zip(signs, SLOTS[language]):
        first = sign == "+"
        atoms.add(("+" if first else "-") + slot[0])
        if len(slot) == 2:
            atoms.add(("-" if first else "+") + slot[1])
    return frozenset(atoms)


INITIALS: Dict[Tuple[str, str], Body] = {
    ("riffian", "C"): parse_body("{N, +SG, -PL, -M, +F, -COL, +SING}"),
    ("riffian", "U"): parse_body("{N, +SG, -PL, -M, +F, +COL, -SING}"),
    ("riffian", "NA"): parse_body("{N, +SG, -PL, +M, -F, -COL, +SING}"),
    ("riffian", "NAdr"): parse_body("{N, +SG, -PL, +M, -F, +COL, -SING}"),
    ("french", "C"): parse_body("{N, +SG, -PL, +M, -F, -DEF, -COL}"),
    ("french", "U"): parse_body("{N, +SG, -PL, -M, +F, -DEF, +COL}"),
}

HEADER = "\n".join([
    "profile riffian category=N slots=[SG|PL, M|F, COL|SING]",
    "profile french category=N slots=[SG|PL, M|F, DEF, COL]",
    *(f"initial {lang}.{cog} = {render(lang, body)}" for (lang, cog), body in INITIALS.items()),
]) + "\n"


def expected_shift(process: str, base: Optional[Body], language: str, target: str,
                   animate: bool = False, donor: Optional[str] = None) -> Tuple[Body, str]:
    """The reference rule table: derived body and rule id for one edge."""
    if process == "BORROW":
        keep = {"+M", "-F"} if donor == "M" else {"-M", "+F"}
        return (INITIALS[(language, target)] - GENDER_FLIP) | keep, "R5"
    if process == "MDERIV" or base is None:
        return INITIALS[(language, target)], "R4"
    if process == "WIDEN" or animate:
        return base, "R2"
    return base ^ GENDER_FLIP, "R1"


@dataclass(frozen=True)
class Expect:
    template: str      # canonical text
    rule: Optional[str]  # None where the corpus gives no rule (bundled copies)
    stratum: Optional[int]


@dataclass
class Link:
    """One item of a generated chain, as the what-if workload needs it."""

    id: str
    body: Optional[Body]
    stratum: int
    live: bool = True


@dataclass
class Corpus:
    text: str
    templates: Dict[str, Expect] = field(default_factory=dict)
    surfaces: Dict[str, str] = field(default_factory=dict)
    statements: int = 0
    items: int = 0
    superseded: int = 0
    deep: List[List[Link]] = field(default_factory=list)


_SYLLABLES = [c + v for c in "bdfgklmnrstwz" for v in "aeiu"]


def _radical(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))


class _Writer:
    def __init__(self, rng: random.Random, corpus: Corpus):
        self.rng = rng
        self.corpus = corpus
        self.lines: List[str] = []

    def emit(self, line: str, widen: bool = False) -> None:
        self.lines.append(line)
        self.corpus.statements += 1
        self.corpus.items += 1
        self.corpus.superseded += widen

    def chain(self, prefix: str, language: str, depth: int) -> List[Link]:
        """A head and ``depth`` formation steps, each off the previous item."""
        rng = self.rng
        head = rng.choice(("verb", "noun", "noun", "borrow"))
        hid = f"{prefix}_0"
        if head == "verb":
            self.emit(f'item id={hid} lang={language} radical="{_radical(rng)}" gloss="act {prefix}"')
            body = None
        elif head == "noun":
            body = _body(language, "".join(rng.choice("+-") for _ in SLOTS[language]))
            cog = rng.choice(COGSETS[language])
            self.emit(f'item id={hid} lang={language} radical="{_radical(rng)}" cogset={cog} '
                      f'template={render(language, body)} gloss="thing {prefix}"')
        else:
            cog, donor = rng.choice(COGSETS[language]), rng.choice("MF")
            body, _ = expected_shift("BORROW", None, language, cog, donor=donor)
            self.emit(f'derive id={hid} via=BORROW lang={language} target={cog} donor_gender={donor} '
                      f'radical="{_radical(rng)}" gloss="loan {prefix}"')
        links = [Link(hid, body, 0)]
        for step in range(1, depth + 1):
            base = links[-1]
            did = f"{prefix}_{step}"
            target = rng.choice(COGSETS[language])
            if base.body is None:
                process, animate = rng.choice(("CONV", "MDERIV")), False
            else:
                process = rng.choice(("CONV", "CONV", "WIDEN", "MDERIV"))
                animate = process == "CONV" and rng.random() < 0.3
            body, rule = expected_shift(process, base.body, language, target, animate)
            extra = ' animate=true' if animate else ''
            if process == "MDERIV":
                extra += f' radical="{_radical(rng)}"'
            if process != "WIDEN":
                extra += f' gloss="{process.lower()} {did}"'
            self.emit(f"derive id={did} base={base.id} via={process} target={target}{extra} "
                      f"expect_template={render(language, body)}", widen=process == "WIDEN")
            if process == "WIDEN":
                base.live = False
            self.corpus.templates[did] = Expect(render(language, body), rule, step)
            links.append(Link(did, body, step))
        return links


# -- renamed copies of the bundled chains --------------------------------------

_ID = re.compile(r"\b(id|base)=(\S+)")
_EXPECT_T = re.compile(r"expect_template=(\{[^}]*\})")
_EXPECT_S = re.compile(r'\bexpect_surface="([^"]*)"')
_OVERRIDE = re.compile(r'\bsurface="([^"]*)"')
_LANG = re.compile(r"\blang=(\S+)")


@dataclass(frozen=True)
class _Bundled:
    lines: Tuple[str, ...]              # item/derive statements, comments dropped
    templates: Tuple[Tuple[str, str], ...]  # id -> hand-written expect_template
    surfaces: Tuple[Tuple[str, str], ...]   # id -> hand-written surface expectation
    widenings: int


def read_bundled(path: Path) -> _Bundled:
    """The statements and hand-written expectations of one bundled corpus."""
    lines, templates, surfaces, widen = [], [], [], 0
    language: Dict[str, str] = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        head = raw.split(" ", 1)[0]
        if head not in ("item", "derive"):
            continue
        ids = dict(m.groups() for m in _ID.finditer(raw))
        item_id = ids["id"]
        lang = _LANG.search(raw)
        language[item_id] = lang.group(1) if lang else language[ids["base"]]
        lines.append(raw)
        widen += " via=WIDEN" in raw
        expect = _EXPECT_T.search(raw)
        if expect:
            templates.append((item_id, expect.group(1)))
        # an attested surface wins over an override; the realizer covers
        # Riffian nouns only, and verbs carry no surface
        surface = _EXPECT_S.search(raw) or _OVERRIDE.search(raw)
        if surface and language[item_id] == "riffian":
            surfaces.append((item_id, surface.group(1)))
    return _Bundled(tuple(lines), tuple(templates), tuple(surfaces), widen)


def _copy(bundled: _Bundled, suffix: str, writer: _Writer) -> None:
    for line in bundled.lines:
        writer.lines.append(_ID.sub(lambda m: f"{m.group(1)}={m.group(2)}{suffix}", line))
    corpus = writer.corpus
    corpus.statements += len(bundled.lines)
    corpus.items += len(bundled.lines)
    corpus.superseded += bundled.widenings
    for item_id, text in bundled.templates:
        corpus.templates[item_id + suffix] = Expect(text, None, None)
    for item_id, text in bundled.surfaces:
        corpus.surfaces[item_id + suffix] = text


def comparable_surface(text: str) -> str:
    """Surface equality as the corpus defines it: NFC, one alphabet, no hyphens."""
    text = unicodedata.normalize("NFC", text).replace("ḍ", "ð").replace("δ", "ð")
    return text.replace("-", "")


# -- the two corpora the in-process workloads run on -----------------------------

def bulk_corpus(seed: int, corpora: Path, copies: int, chains: int) -> Corpus:
    """Shallow chains (depth 4-8) interleaved with renamed bundled copies."""
    rng = random.Random(seed)
    corpus = Corpus(text="")
    writer = _Writer(rng, corpus)
    bundled = [read_bundled(corpora / f"{name}.tbmc") for name in ("riffian_fig2", "french_example1")]
    blocks = [*range(copies), *[None] * chains]  # copy number, or None for a chain
    rng.shuffle(blocks)
    for k, copy in enumerate(blocks):
        if copy is not None:
            _copy(bundled[copy % 2], f"_c{k}", writer)
        else:
            writer.chain(f"g{k}", rng.choice(("riffian", "riffian", "french")), rng.randint(4, 8))
    corpus.statements += len(INITIALS) + len(SLOTS)
    corpus.text = HEADER + "\n".join(writer.lines) + "\n"
    return corpus


def deep_corpus(seed: int, chains: int, deep_chains: int, deep_depth: int) -> Corpus:
    """Shallow filler chains plus a few Riffian chains ``deep_depth`` long."""
    rng = random.Random(seed)
    corpus = Corpus(text="")
    writer = _Writer(rng, corpus)
    deep_at = set(rng.sample(range(chains + deep_chains), deep_chains))
    for k in range(chains + deep_chains):
        if k in deep_at:
            corpus.deep.append(writer.chain(f"d{k}", "riffian", deep_depth))
        else:
            writer.chain(f"g{k}", rng.choice(("riffian", "french")), rng.randint(4, 8))
    corpus.statements += len(INITIALS) + len(SLOTS)
    corpus.text = HEADER + "\n".join(writer.lines) + "\n"
    return corpus


@dataclass(frozen=True)
class WhatIf:
    """One hypothetical edge off a deep item, with its reference answer."""

    base: str
    base_stratum: int
    process: str
    target: str
    animate: bool
    expect: Expect


def what_ifs(seed: int, corpus: Corpus, count: int, min_stratum: int) -> List[WhatIf]:
    """Seeded edges off live deep-chain items at stratum ``min_stratum`` or more."""
    rng = random.Random(seed ^ 0x5EED)
    bases = [link for chain in corpus.deep for link in chain
             if link.live and link.stratum >= min_stratum and link.body is not None]
    out = []
    for _ in range(count):
        base = rng.choice(bases)
        process = rng.choice(("CONV", "WIDEN", "MDERIV"))
        target = rng.choice(COGSETS["riffian"])
        animate = process == "CONV" and rng.random() < 0.3
        body, rule = expected_shift(process, base.body, "riffian", target, animate)
        out.append(WhatIf(base.id, base.stratum, process, target, animate,
                          Expect(render("riffian", body), rule, base.stratum + 1)))
    return out
