"""GAP-kSURGE: top-k extension of the grid-based approximation (Algorithm 6).

GAP-SURGE already keeps every non-empty cell's score in a table, so the
top-k extension simply reports the k best cells, ranked like the single
result: score descending, then cell key ascending.  Cells of the same grid
never overlap, hence the reported regions are automatically disjoint and the
object-disjoint semantics of Definition 9 holds trivially.
"""

from __future__ import annotations

from repro.core.base import RegionResult
from repro.core.gap import GapSurge
from repro.core.query import SurgeQuery


class GapSurgeTopK(GapSurge):
    """Grid-based approximate top-k detector (paper's ``kGAPS``)."""

    name = "kgaps"
    exact = False

    def result(self) -> RegionResult | None:
        """The best cell (identical to GAP-SURGE)."""
        return super().result()

    def top_k(self, k: int | None = None) -> list[RegionResult]:
        """The k grid cells with the highest burst scores, best first."""
        if k is None:
            k = self.query.k
        return super().top_k(k)
