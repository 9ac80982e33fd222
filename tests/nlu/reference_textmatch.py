"""Reference fuzzy matcher: the brute-force scan FuzzyIndex replaced.

It scores every pool entry in order with the blended edit/trigram
similarity, returns the first case-insensitive exact match outright and
otherwise keeps the first entry of the highest score.  Slow, but every
step is plain: the differential tests require
:class:`repro.textutil.FuzzyIndex` to return its ``(match, score)`` or
``None`` exactly.
"""

from __future__ import annotations

from repro.textutil import normalized_edit_similarity, trigram_similarity


def reference_best_match(
    needle: str,
    haystack: list[str],
    threshold: float = 0.75,
) -> tuple[str, float] | None:
    target = needle.strip().lower()
    best: tuple[str, float] | None = None
    for candidate in haystack:
        lowered = candidate.strip().lower()
        if lowered == target:
            return (candidate, 1.0)
        score = 0.6 * normalized_edit_similarity(target, lowered)
        score += 0.4 * trigram_similarity(target, lowered)
        if best is None or score > best[1]:
            best = (candidate, score)
    if best is not None and best[1] >= threshold:
        return best
    return None
