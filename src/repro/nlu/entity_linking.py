"""Entity linking: ground extracted slot values in the database.

After the tagger finds a slot value span ("forest gump"), the linker
resolves it against the *actual* values stored in the referenced column
("Forrest Gump") via fuzzy matching — this is how the demo agent
"corrects misspellings" and how free-text user input becomes a typed,
canonical value the candidate set can be refined with.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Any

from repro.db.database import Database
from repro.db.types import DataType, TypeMismatchError, coerce, render
from repro.db.versioncache import VersionStampedCache
from repro.synthesis.templates import SlotVocabulary
from repro.textutil import FuzzyIndex

__all__ = ["LinkedValue", "EntityLinker"]

_RELATIVE_DAYS = {
    "today": 0,
    "tonight": 0,
    "this evening": 0,
    "tomorrow": 1,
    "day after tomorrow": 2,
}


@dataclass(frozen=True)
class LinkedValue:
    """A slot value resolved to a canonical database value."""

    slot: str
    raw: str
    value: Any
    score: float
    corrected: bool


class EntityLinker:
    """Resolves raw slot strings to canonical typed values."""

    def __init__(
        self,
        database: Database,
        vocabulary: SlotVocabulary,
        fuzzy_threshold: float = 0.72,
        reference_date: _dt.date | None = None,
    ) -> None:
        self._database = database
        self._vocabulary = vocabulary
        self._fuzzy_threshold = fuzzy_threshold
        self.reference_date = reference_date
        # slot -> fuzzy index over the canonical values; version-stamped
        # like the other shared caches, since one linker serves every
        # concurrent session and must see committed inserts (a newly
        # added movie title must become linkable).  A pool is rebuilt
        # only once a commit writes the table its column lives in.
        self._text_pools = VersionStampedCache(database)

    def link(self, slot: str, raw: str) -> LinkedValue | None:
        """Canonicalise ``raw`` for ``slot``; ``None`` when unresolvable."""
        source = self._vocabulary.source(slot)
        if source.dtype is DataType.TEXT and source.attribute is not None:
            return self._link_text(slot, raw)
        if source.dtype is DataType.DATE:
            relative = self._relative_date(raw)
            if relative is not None:
                return LinkedValue(slot=slot, raw=raw, value=relative,
                                   score=1.0, corrected=False)
        try:
            value = coerce(raw, source.dtype)
        except TypeMismatchError:
            extracted = _extract_typed(raw, source.dtype)
            if extracted is None:
                return None
            value = extracted
        return LinkedValue(slot=slot, raw=raw, value=value, score=1.0,
                           corrected=False)

    def _relative_date(self, raw: str) -> _dt.date | None:
        """Resolve "today"/"tonight"/"tomorrow" against the reference date."""
        base = self.reference_date or _dt.date.today()
        lowered = raw.strip().lower()
        for phrase in sorted(_RELATIVE_DAYS, key=len, reverse=True):
            if phrase in lowered:
                return base + _dt.timedelta(days=_RELATIVE_DAYS[phrase])
        return None

    # ------------------------------------------------------------------
    def _link_text(self, slot: str, raw: str) -> LinkedValue | None:
        pool = self._text_pool(slot)
        if not pool:
            return LinkedValue(slot=slot, raw=raw, value=raw, score=0.5,
                               corrected=False)
        match = pool.lookup(raw, threshold=self._fuzzy_threshold)
        if match is None:
            return None
        value, score = match
        corrected = value.strip().lower() != raw.strip().lower()
        return LinkedValue(slot=slot, raw=raw, value=value, score=score,
                           corrected=corrected)

    def _text_pool(self, slot: str) -> FuzzyIndex:
        return self._text_pools.lookup(
            slot,
            lambda __: (
                FuzzyIndex(self._build_pool(slot)),
                (self._vocabulary.source(slot).attribute.table,),
            ),
        )

    def _build_pool(self, slot: str) -> list[str]:
        """The sorted, rendered, distinct non-NULL values of the slot's
        column, as the calling reader's snapshot sees them."""
        source = self._vocabulary.source(slot)
        assert source.attribute is not None
        table = self._database.table(source.attribute.table)
        values = set(table.column_values(source.attribute.column))
        values.discard(None)
        return sorted({render(value, source.dtype) for value in values})

    def invalidate(self) -> None:
        """Drop cached value pools (they also refresh automatically once
        a commit writes their table)."""
        self._text_pools.invalidate()


def _extract_typed(raw: str, dtype: DataType) -> Any | None:
    """Salvage a typed value from noisy text ("4 tickets please" -> 4)."""
    words = raw.replace(",", " ").split()
    for word in words:
        try:
            return coerce(word, dtype)
        except TypeMismatchError:
            continue
    # Try two-word windows for dates/times like "march 28 2022".
    for size in (2, 3):
        for start in range(len(words) - size + 1):
            chunk = " ".join(words[start : start + size])
            try:
                return coerce(chunk, dtype)
            except TypeMismatchError:
                continue
    word_numbers = {
        "one": 1, "two": 2, "three": 3, "four": 4, "five": 5, "six": 6,
        "seven": 7, "eight": 8, "nine": 9, "ten": 10,
    }
    if dtype is DataType.INTEGER:
        for word in words:
            number = word_numbers.get(word.lower())
            if number is not None:
                return number
    return None
