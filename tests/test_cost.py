"""Scaling laws, stated on counts of executed lines and on allocation peaks
rather than on time.

Counting ``line`` events with ``sys.settrace`` gives the same number on
every run, and so does a ``tracemalloc`` peak, so a law on them holds on a
loaded or a quiet machine alike.
A count moves with the Python version, so each law is a ratio between two
sizes, never an absolute count.
"""

import sys
import tracemalloc

from tbmc import corpus
from tbmc.engine import render_trace, trace, what_if
from tbmc.lexicon import EdgeSpec, Formation


def line_events(call, *args):
    """The ``line`` events executed while ``call(*args)`` runs, in every frame
    it enters, with the call's result.

    Work done in C (a dict copy, a ``str.join``) is one event or none,
    whatever its size, so these counts cannot see a C-level cost that grows
    with the input; the laws below do not cover such a cost.
    """
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local)
    try:
        result = call(*args)
    finally:
        sys.settrace(previous)
    return count, result


def allocation_peak(call, *args):
    """The ``tracemalloc`` peak, in bytes, of what ``call(*args)`` allocates.

    A C-level copy shows here, but a peak does not add up: a copy repeated
    once per step has the peak of one copy, so a law on a peak covers one
    call and says nothing of a total over many.
    """
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# one step per level, cycled: a gender flip, a widening that supersedes its
# base, an animate conversion and a derivation to the target set's initial
_STEPS = ("via=CONV", "via=WIDEN", "via=CONV animate=true", "via=MDERIV target=C")


def _chain_corpus(depth, beside):
    """``beside`` two-item chains, then a Riffian chain ``depth`` edges under
    the head ``c0``, its tip ``c{depth}``.  The short chains come first, so a
    search through the tables meets them before any item of the long one."""
    template = "template={N, +SG, -PL, +M, -F, -COL, +SING}"
    lines = []
    for k in range(beside):
        lines.append(f'item id=b{k} lang=riffian radical="sendu" cogset=C {template}')
        lines.append(f"derive id=b{k}_1 base=b{k} via=CONV")
    lines.append(f'item id=c0 lang=riffian radical="ka" cogset=C {template}')
    lines += [f"derive id=c{k} base=c{k - 1} {_STEPS[k % len(_STEPS)]}" for k in range(1, depth + 1)]
    loaded = corpus.load(corpus.parse("\n".join(lines) + "\n"))
    assert not loaded.errors
    return loaded.state


def _trace_events(state, item_id):
    count, text = line_events(lambda: render_trace(trace(state, item_id)))
    assert len(text.split("\n")) == state.strata[item_id] + 1
    return count


def test_tracing_a_path_is_linear_in_its_depth():
    shallow = _trace_events(_chain_corpus(100, 100), "c100")
    deep = _trace_events(_chain_corpus(200, 100), "c200")
    assert 1.9 <= deep / shallow <= 2.1, (shallow, deep)


def test_tracing_a_path_does_not_grow_with_the_snapshot():
    small, large = _chain_corpus(100, 100), _chain_corpus(100, 250)
    assert 1.9 <= len(large.items) / len(small.items) <= 2.1
    ratio = _trace_events(large, "c100") / _trace_events(small, "c100")
    assert 0.95 <= ratio <= 1.05, ratio


def test_a_what_if_allocates_independently_of_the_snapshot():
    def peak(state):
        edge = EdgeSpec(derived_id="probe", process=Formation.CONVERSION, base_id="c100")
        what_if(state, edge)  # the first call stores the step in the memo
        return allocation_peak(what_if, state, edge)

    small, large = _chain_corpus(100, 100), _chain_corpus(100, 250)
    assert 1.9 <= len(large.items) / len(small.items) <= 2.1
    small_peak, large_peak = peak(small), peak(large)
    assert large_peak <= 1.1 * small_peak, (small_peak, large_peak)
