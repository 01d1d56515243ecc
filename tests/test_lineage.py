"""The lineage law: a snapshot answers like a fresh load of the statements it
has seen, however it was reached.

There are three ways to a snapshot: ``corpus.load``, a transition on a
snapshot (``add_item``, ``apply_formation``, or a draft that inserts and
freezes), and the constructor, given another snapshot's tables.  A state
machine mixes all three over a small generated corpus, reads the snapshots
in random order (``transfer``, ``shift_record``, ``trace`` and ``what_if``),
and checks each one against ``corpus.load`` of its statements.  The law reads
answers, never memo sizes.
"""

import random
import sys
import threading

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from tbmc import corpus
from tbmc.corpus import CorpusDocument, DeriveStmt, InitialStmt, ItemStmt
from tbmc.engine import render_trace, shift_record, trace, transfer, what_if
from tbmc.lexicon import EdgeSpec, Formation, LexiconState
from tbmc.templates import Template

_TEMPLATES = (
    "{N, +SG, -PL, +M, -F, -COL, +SING}",
    "{N, +SG, -PL, -M, +F, +COL, -SING}",
    "{N, +SG, -PL, -M, +F, -COL, +SING}",
    "{N, +SG, +PL, +M, -F, -COL, +SING}",  # ill-formed: load rejects the item
)
# X has no initial template, so an MDERIV to it fails to resolve, and so do its derivatives
_TARGETS = ("", " target=C", " target=U", " target=NA", " target=NAdr", " target=X", " target=V")
# riffian.C takes the NA initial: the constructor given other initials
_OTHER_C = InitialStmt(line=0, language="riffian", cogset="C",
                       body=frozenset({"N", "+SG", "-PL", "+M", "-F", "-COL", "+SING"}))


def corpus_lines(rng, count):
    """``count`` seeded Riffian statements: heads with and without a template,
    verbs, and derives of every process off any earlier id, so some derives
    meet a superseded base or one that failed to load, and some widenings
    add a meaning."""
    lines, ids = [], []
    for k in range(count):
        kind = rng.random() if ids else 0.0
        if kind < 0.3:
            item_id = f"h{k}"
            roll = rng.random()
            if roll < 0.2:
                lines.append(f'item id={item_id} lang=riffian radical="fk"')
            elif roll < 0.35:
                lines.append(f'item id={item_id} lang=riffian radical="ka" cogset=C')
            else:
                lines.append(f'item id={item_id} lang=riffian radical="ka" cogset=C '
                             f'template={rng.choice(_TEMPLATES)}')
        else:
            item_id = f"d{k}"
            process = rng.choice(("CONV", "CONV", "WIDEN", "MDERIV", "BORROW"))
            if process == "BORROW":
                line = (f'derive id={item_id} via=BORROW lang=riffian radical="br" '
                        f'target={rng.choice("CU")} donor_gender={rng.choice("MF")}')
            else:
                line = f"derive id={item_id} base={rng.choice(ids)} via={process}{rng.choice(_TARGETS)}"
                if process == "CONV" and rng.random() < 0.3:
                    line += rng.choice((" animate=true", " gradcond=R3"))
                elif process == "WIDEN" and rng.random() < 0.5:
                    line += ' gloss="wide"'  # a new meaning: the widening draws a warning
            lines.append(line)
        ids.append(item_id)
    return lines


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _result(state, item_id):
    result = transfer(state, item_id)
    return result.template, result.rule_id, result.operand, result.stratum


def _what_if(state, edge):
    item, record, result = what_if(state, edge)
    return item, record, (result.template, result.rule_id, result.operand, result.stratum)


def answers(state, ids):
    """What ``state`` answers on each of ``ids``, known to it or not."""
    return {
        item_id: (_outcome(_result, state, item_id), _outcome(shift_record, state, item_id),
                  _outcome(lambda: render_trace(trace(state, item_id))))
        for item_id in ids
    }


def tables(state):
    # the four tables, and what the snapshot derives from them
    return (state._asdict(), dict(state.strata), state.superseded, state.warnings, state.live_count)


class Lineage(RuleBasedStateMachine):
    """Snapshots of one generated corpus, each with the statements it has seen:
    ``(state, preamble, seen)``, its reference ``corpus.load`` of
    ``preamble + statements[:seen]``."""

    @initialize(seed=st.integers(0, 2**16), count=st.integers(4, 24), data=st.data())
    def load_a_prefix(self, seed, count, data):
        document = corpus.parse("\n".join(corpus_lines(random.Random(seed), count)) + "\n")
        assert document.ok, document.issues
        self.statements = document.statements
        self.ids = [s.item.id if isinstance(s, ItemStmt) else s.edge.derived_id for s in self.statements]
        self.references = {}
        self.snapshots = []
        seen = data.draw(st.integers(0, len(self.statements)))
        self.snapshots.append((corpus.load(CorpusDocument(self.statements[:seen])).state, (), seen))

    def reference(self, preamble, seen):
        key = (preamble, seen)
        if key not in self.references:
            state = corpus.load(CorpusDocument(preamble + self.statements[:seen])).state
            # given the loaded tables, the constructor derives what the load did
            assert tables(LexiconState(**state._asdict())) == tables(state)
            # every id of the corpus, and one no statement declares
            self.references[key] = state, tables(state), answers(state, self.ids + ["probe"])
        return self.references[key]

    def pick(self, index):
        return self.snapshots[index % len(self.snapshots)]

    @rule(index=st.integers(0, 100))
    def load_another_prefix(self, index):
        seen = index % (len(self.statements) + 1)
        self.snapshots.append((corpus.load(CorpusDocument(self.statements[:seen])).state, (), seen))

    def _insert(self, target, stmt):
        """``stmt`` inserted by ``target``'s own transition; a rejected statement
        leaves ``target`` as it was, as ``load`` leaves nothing of it."""
        try:
            if isinstance(stmt, ItemStmt):
                return target.add_item(corpus._to_item(stmt, target.profiles))
            return target.apply_formation(stmt.edge)
        except ValueError:
            return target

    @precondition(lambda self: any(seen < len(self.statements) for _, _, seen in self.snapshots))
    @rule(index=st.integers(0, 100))
    def transition(self, index):
        # any snapshot of the lineage, an old one included
        state, preamble, seen = self.pick(index)
        if seen < len(self.statements):
            self.snapshots.append((self._insert(state, self.statements[seen]), preamble, seen + 1))

    @rule(index=st.integers(0, 100), count=st.integers(0, 6))
    def draft_and_freeze(self, index, count):
        state, preamble, seen = self.pick(index)
        draft = state.draft()
        stop = min(seen + count, len(self.statements))
        for stmt in self.statements[seen:stop]:
            assert self._insert(draft, stmt) is draft
        self.snapshots.append((draft.freeze(), preamble, stop))

    @rule(index=st.integers(0, 100), other_initials=st.booleans(), plain=st.booleans())
    def construct_from_tables(self, index, other_initials, plain):
        state, preamble, seen = self.pick(index)
        given = state._asdict()
        if other_initials and not preamble:
            given["initials"] = {**given["initials"], ("riffian", "C"): Template(
                given["profiles"]["riffian"], _OTHER_C.body)}
            preamble = (_OTHER_C,)
        if plain:
            given = {name: dict(table) for name, table in given.items()}
        built = LexiconState(**given)
        if plain:  # the caller's tables are its own to change
            for table in given.values():
                table.clear()
        self.snapshots.append((built, preamble, seen))

    @rule(index=st.integers(0, 100), base=st.integers(0, 100), process=st.sampled_from(list(Formation)),
          cogset=st.sampled_from((None, "C", "U", "NA", "X")))
    def ask_what_if(self, index, base, process, cogset):
        state, preamble, seen = self.pick(index)
        reference = self.reference(preamble, seen)[0]
        # the id of a statement this snapshot has not seen yet, when there is one
        derived_id = self.ids[seen] if seen < len(self.ids) else "probe"
        edge = EdgeSpec(derived_id=derived_id, process=process, base_id=self.ids[base % len(self.ids)],
                        target=cogset)
        if process is Formation.BORROWING:
            edge = EdgeSpec(derived_id=derived_id, process=process, language="riffian", radical="br",
                            target=cogset or "U", donor_gender="F")
        assert _outcome(_what_if, state, edge) == _outcome(_what_if, reference, edge)

    @rule(index=st.integers(0, 100))
    def read(self, index):
        state, preamble, seen = self.pick(index)
        assert answers(state, self.ids + ["probe"]) == self.reference(preamble, seen)[2]

    @invariant()
    def every_snapshot_holds_its_tables(self):
        for state, preamble, seen in self.snapshots:
            assert tables(state) == self.reference(preamble, seen)[1]

    def teardown(self):
        for index in range(len(getattr(self, "snapshots", ()))):
            self.read(index)


Lineage.TestCase.settings = settings(max_examples=25, stateful_step_count=12)
test_every_way_to_a_snapshot_answers_like_a_fresh_load = Lineage.TestCase


def test_two_threads_reading_a_cold_snapshot_built_by_transitions_agree():
    document = corpus.parse("\n".join(corpus_lines(random.Random(27), 60)) + "\n")
    reference = answers(corpus.load(document).state, [s.item.id if isinstance(s, ItemStmt)
                                                       else s.edge.derived_id for s in document.statements])
    ids = list(reference)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            state = corpus.load(CorpusDocument(())).state
            for stmt in document.statements:  # a cold snapshot: transitions resolve nothing
                try:
                    if isinstance(stmt, DeriveStmt):
                        state = state.apply_formation(stmt.edge)
                    else:
                        state = state.add_item(corpus._to_item(stmt, state.profiles))
                except ValueError:
                    pass
            start = threading.Barrier(2)
            results, failures = [], []

            def read(order):
                start.wait()
                try:
                    results.append(answers(state, order))
                except Exception as exc:
                    failures.append(exc)

            threads = [threading.Thread(target=read, args=(order,)) for order in (ids, ids[::-1])]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            assert results == [reference, reference]
    finally:
        sys.setswitchinterval(switch)
