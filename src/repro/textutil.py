"""String-similarity primitives shared by entity linking and candidates.

The demo agent "corrects misspellings" of user-provided values; both the
NLU entity linker and the candidate-set refinement rely on the same
tolerant string matching: Levenshtein edit distance (iterative DP with
two rows) and character-trigram Jaccard similarity for longer strings.
:class:`FuzzyIndex` answers the linker's best-match question over a
fixed pool without scoring every entry.
"""

from __future__ import annotations

from array import array
from typing import Sequence

import numpy as np

__all__ = [
    "FuzzyIndex",
    "damerau_levenshtein",
    "levenshtein",
    "normalized_edit_similarity",
    "trigrams",
    "trigram_similarity",
    "best_match",
]


def damerau_levenshtein(left: str, right: str) -> int:
    """Optimal-string-alignment distance (edits + adjacent transpositions).

    A transposition ("gmup" -> "gump") counts as one edit, matching how
    humans actually mistype values.
    """
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    rows = [list(range(len(right) + 1))]
    for i, left_char in enumerate(left, start=1):
        current = [i]
        for j, right_char in enumerate(right, start=1):
            cost = 0 if left_char == right_char else 1
            best = min(
                rows[i - 1][j] + 1,
                current[j - 1] + 1,
                rows[i - 1][j - 1] + cost,
            )
            if (
                i > 1
                and j > 1
                and left_char == right[j - 2]
                and left[i - 2] == right_char
            ):
                best = min(best, rows[i - 2][j - 2] + 1)
            current.append(best)
        rows.append(current)
    return rows[-1][-1]


def levenshtein(left: str, right: str) -> int:
    """Edit distance between two strings (insert/delete/substitute = 1)."""
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    if len(left) < len(right):
        left, right = right, left
    previous = list(range(len(right) + 1))
    for i, left_char in enumerate(left, start=1):
        current = [i]
        for j, right_char in enumerate(right, start=1):
            cost = 0 if left_char == right_char else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


def normalized_edit_similarity(left: str, right: str) -> float:
    """1 - normalised edit distance, in [0, 1] (1 = identical)."""
    if not left and not right:
        return 1.0
    longest = max(len(left), len(right))
    return 1.0 - levenshtein(left, right) / longest


def trigrams(text: str) -> set[str]:
    """Padded character trigrams of a lower-cased string."""
    padded = f"  {text.lower().strip()} "
    if len(padded.strip()) == 0:
        return set()
    return {padded[i : i + 3] for i in range(len(padded) - 2)}


def trigram_similarity(left: str, right: str) -> float:
    """Jaccard similarity of character trigram sets."""
    left_grams = trigrams(left)
    right_grams = trigrams(right)
    if not left_grams and not right_grams:
        return 1.0
    if not left_grams or not right_grams:
        return 0.0
    union = left_grams | right_grams
    return len(left_grams & right_grams) / len(union)


class FuzzyIndex:
    """The best fuzzy match for a needle among a fixed pool of strings.

    An entry's score is ``0.6 * normalized_edit_similarity + 0.4 *
    trigram_similarity`` of the stripped, lower-cased strings; a lookup
    returns the highest-scoring entry (the lowest pool index on ties) as
    ``(entry, score)`` when the score reaches ``threshold``, else
    ``None``.  An entry equal to the needle, ignoring case and outer
    whitespace, wins outright with score 1.0 (the first such entry).
    That is the result of scoring every entry in pool order; the index
    returns exactly the same ``(entry, score)`` without doing so:

    1. **Probe.**  A ``lowered -> first pool index`` dict answers exact
       hits, almost every lookup in practice, in O(1).
    2. **Bound.**  Trigram postings (an ``array('I')`` of pool indices
       per trigram, plus each entry's trigram count) give every entry's
       trigram overlap with the needle and so its exact Jaccard ``J``.
       Edit distance is at least the length difference, so ``0.6 * (1 -
       |len difference| / longer length) + 0.4 * J`` is at least the
       score; it stays so in floating point, because the two are the
       same operations on ordered operands and IEEE rounding is
       monotone.  Entries whose bound is below ``threshold`` drop out.
    3. **Verify.**  Survivors are scored in descending bound order, and
       the search stops once the bound falls below the best score.

    The postings are built by the first lookup that misses the probe,
    so a pool that only ever sees exact hits never pays for them.
    Nothing else changes after construction, so concurrent lookups are
    safe: two first misses may both build the postings, and either
    result is complete.
    """

    __slots__ = ("_pool", "_lowered", "_first", "_grams")

    def __init__(self, pool: Sequence[str]) -> None:
        self._pool = list(pool)
        self._lowered = [entry.strip().lower() for entry in self._pool]
        first: dict[str, int] = {}
        for index, lowered in enumerate(self._lowered):
            first.setdefault(lowered, index)
        self._first = first
        self._grams: _Postings | None = None

    def __len__(self) -> int:
        return len(self._pool)

    def lookup(
        self, needle: str, threshold: float = 0.75
    ) -> tuple[str, float] | None:
        """``(entry, score)`` of the best match, or ``None`` below
        ``threshold``."""
        target = needle.strip().lower()
        index = self._first.get(target)
        if index is not None:
            return (self._pool[index], 1.0)
        grams = self._grams
        if grams is None:
            grams = self._grams = _Postings(self._lowered)
        jaccard, bound = grams.bounds(target)
        survivors = np.flatnonzero(bound >= threshold)
        # Descending bound; the stable sort keeps equal bounds in pool
        # order, so the first of equal scores is verified first.
        order = survivors[np.argsort(-bound[survivors], kind="stable")]
        best_index = -1
        best_score = 0.0
        for index, ceiling, similarity in zip(
            order.tolist(), bound[order].tolist(), jaccard[order].tolist()
        ):
            if best_index >= 0 and ceiling < best_score:
                break
            score = 0.6 * normalized_edit_similarity(
                target, self._lowered[index]
            )
            score += 0.4 * similarity
            if best_index < 0 or score > best_score or (
                score == best_score and index < best_index
            ):
                best_index, best_score = index, score
        if best_index < 0 or best_score < threshold:
            return None
        return (self._pool[best_index], best_score)


class _Postings:
    """Trigram postings of a pool's lowered entries, for score bounds."""

    __slots__ = ("_postings", "_gram_counts", "_lengths")

    def __init__(self, lowered: list[str]) -> None:
        postings: dict[str, array] = {}
        counts = []
        for index, text in enumerate(lowered):
            grams = trigrams(text)
            counts.append(len(grams))
            for gram in grams:
                posting = postings.get(gram)
                if posting is None:
                    posting = postings[gram] = array("I")
                posting.append(index)
        self._postings = postings
        self._gram_counts = np.array(counts, dtype=np.int64)
        self._lengths = np.array([len(text) for text in lowered],
                                 dtype=np.int64)

    def bounds(self, target: str) -> tuple[np.ndarray, np.ndarray]:
        """Every entry's exact trigram Jaccard with ``target`` and its
        score bound, as float arrays in pool order.

        ``target`` matches no entry exactly, so every pair has a
        non-empty longer string.
        """
        grams = trigrams(target)
        gathered = array("I")
        for gram in grams:
            posting = self._postings.get(gram)
            if posting is not None:
                gathered.extend(posting)
        overlap = np.bincount(
            np.frombuffer(gathered, dtype=np.uintc),
            minlength=len(self._lengths),
        )
        if grams:
            jaccard = overlap / (len(grams) + self._gram_counts - overlap)
        else:
            # Like trigram_similarity: two empty sets are identical.
            jaccard = (self._gram_counts == 0).astype(np.float64)
        length = len(target)
        spread = np.abs(self._lengths - length) / np.maximum(
            self._lengths, length
        )
        return jaccard, 0.6 * (1.0 - spread) + 0.4 * jaccard


def best_match(
    needle: str,
    haystack: Sequence[str],
    threshold: float = 0.75,
) -> tuple[str, float] | None:
    """Best fuzzy match for ``needle`` among ``haystack`` strings.

    A one-off :meth:`FuzzyIndex.lookup`: ``(match, score)`` or ``None``
    when nothing reaches ``threshold``.  Callers that match repeatedly
    against one pool should keep a :class:`FuzzyIndex` instead.
    """
    return FuzzyIndex(haystack).lookup(needle, threshold)
