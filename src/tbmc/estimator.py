"""Initial-template estimation by filtered frequency analysis.

Old, common words accumulate recursive morphological changes that obscure
the template a cognitive set hands out on entry.  The heuristic therefore
reduces the lexicon to a low-variance subspace first -- keep items flagged
typical or recent_loan, drop items flagged common -- then tallies the
canonical rendering of every remaining item's template per cognitive set
and takes the mode.

Nouns of action are exempt from the reduction by default: their morphology
is stable even in the unreduced sample, and a corpus rich in derived NAs
would otherwise starve the tally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from . import engine
from .lexicon import Item, LexiconState
from .templates import Template


class EstimationError(ValueError):
    pass


@dataclass(frozen=True)
class EstimationFilter:
    """Which corpus flags admit an item into the tally."""

    require_any: FrozenSet[str] = frozenset({"recent_loan", "typical"})
    exclude: FrozenSet[str] = frozenset({"common"})
    unfiltered_sets: FrozenSet[str] = frozenset({"NA"})

    def admits(self, item: Item) -> bool:
        if item.cogset in self.unfiltered_sets:
            return True
        if any(item.flag(name) for name in sorted(self.exclude)):
            return False
        return any(item.flag(name) for name in sorted(self.require_any))


DEFAULT_FILTER = EstimationFilter()


@dataclass(frozen=True)
class SetEstimate:
    """The tally outcome for one cognitive set.

    ``winner`` is the unique mode; it is None when the group was empty after
    filtering (``insufficient``) or when two templates tie for the top count
    (``tie``).  The histogram keys are canonical renderings, so rare variant
    templates stay visible in reports.
    """

    cogset: str
    winner: Optional[Template]
    histogram: Tuple[Tuple[str, int], ...]
    sample_size: int
    tie: bool
    insufficient: bool

    @property
    def status(self) -> str:
        if self.insufficient:
            return "insufficient data for cognitive set"
        if self.tie:
            return "tie"
        return "ok"


@dataclass(frozen=True)
class EstimationReport:
    """The estimates of every cognitive set with live items, in sorted order,
    and the filter they were tallied under."""

    filter: EstimationFilter
    estimates: Tuple[SetEstimate, ...]

    def for_set(self, cogset: str) -> SetEstimate:
        for est in self.estimates:
            if est.cogset == cogset:
                return est
        raise EstimationError(f"no live items in cognitive set {cogset!r}")


def estimate_initial_templates(
    state: LexiconState,
    filt: EstimationFilter = DEFAULT_FILTER,
) -> EstimationReport:
    """Mode template per cognitive set over the filtered live lexicon.

    Deterministic: items are grouped in sorted-id order and histograms are
    ordered by descending count, then key.  Cognitive sets with no live
    items at all do not appear; sets whose items were all filtered out are
    reported as insufficient.
    """
    estimates: List[SetEstimate] = []
    for cogset in state.cognitive_sets():
        members = state.cognitive_set_members(cogset)
        counts: Dict[str, int] = {}
        rendered_to_template: Dict[str, Template] = {}
        admitted = 0
        for item_id in members:
            item = state.items[item_id]
            if not filt.admits(item):
                continue
            template = engine.transfer(state, item_id).template
            key = template.render()
            counts[key] = counts.get(key, 0) + 1
            rendered_to_template[key] = template
            admitted += 1
        histogram = tuple(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
        if admitted == 0:
            estimates.append(SetEstimate(cogset, None, histogram, 0, tie=False, insufficient=True))
            continue
        top = histogram[0][1]
        tied = [key for key, n in histogram if n == top]
        if len(tied) > 1:
            estimates.append(SetEstimate(cogset, None, histogram, admitted, tie=True, insufficient=False))
        else:
            winner = rendered_to_template[tied[0]]
            estimates.append(SetEstimate(cogset, winner, histogram, admitted, tie=False, insufficient=False))
    return EstimationReport(filter=filt, estimates=tuple(estimates))


def render_report(report: EstimationReport) -> str:
    """The deterministic text table used by the command line."""
    lines: List[str] = []
    for est in report.estimates:
        lines.append(f"cognitive set {est.cogset}: sample size {est.sample_size}")
        if est.insufficient:
            lines.append(f"  {est.status}")
        elif est.tie:
            lines.append("  tie: no winner")
        else:
            lines.append(f"  initial template: {est.winner.render()}")
        for key, count in est.histogram:
            lines.append(f"  {count:3d}  {key}")
    return "\n".join(lines)
