"""Schema annotations: the only database-specific manual input CAT needs.

Figure 4 of the paper shows a GUI in which the developer annotates the
schema before synthesis.  The annotation payload is small:

* per attribute, an *awareness prior* — how likely a user is to know the
  value (IDs and technical fields get ~0),
* a *never-ask* flag for attributes the agent must not request,
* a human-readable *display name* used in generated prompts
  ("movie title" instead of ``movie.title``), and
* optional example values / synonyms that seed the NL templates.

:class:`SchemaAnnotations` validates every annotation against the live
schema and supplies sensible defaults (primary keys and FK columns are
ID-like → never ask, awareness prior near zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.db.catalog import ColumnRef
from repro.errors import AnnotationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database

__all__ = ["AttributeAnnotation", "SchemaAnnotations"]

_DEFAULT_ID_PRIOR = 0.02
_DEFAULT_PRIOR = 0.5


@dataclass(frozen=True)
class AttributeAnnotation:
    """Annotation of one ``table.column`` attribute."""

    awareness_prior: float = _DEFAULT_PRIOR
    never_ask: bool = False
    display_name: str | None = None
    synonyms: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.awareness_prior <= 1.0:
            raise AnnotationError(
                f"awareness prior must be in [0, 1], got {self.awareness_prior}"
            )


class SchemaAnnotations:
    """Validated collection of attribute annotations for one database."""

    def __init__(self, database: "Database") -> None:
        self._database = database
        self._annotations: dict[ColumnRef, AttributeAnnotation] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def annotate(
        self,
        table: str,
        column: str,
        awareness_prior: float | None = None,
        never_ask: bool | None = None,
        display_name: str | None = None,
        synonyms: tuple[str, ...] | None = None,
    ) -> AttributeAnnotation:
        """Set (or update) the annotation of ``table.column``."""
        self._check_ref(table, column)
        ref = ColumnRef(table, column)
        current = self._annotations.get(ref, self._default_for(ref))
        updated = AttributeAnnotation(
            awareness_prior=(
                current.awareness_prior if awareness_prior is None else awareness_prior
            ),
            never_ask=current.never_ask if never_ask is None else never_ask,
            display_name=(
                current.display_name if display_name is None else display_name
            ),
            synonyms=current.synonyms if synonyms is None else tuple(synonyms),
        )
        self._annotations[ref] = updated
        return updated

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, table: str, column: str) -> AttributeAnnotation:
        """Annotation of ``table.column``, defaulting heuristically."""
        ref = ColumnRef(table, column)
        annotation = self._annotations.get(ref)
        if annotation is not None:
            # annotate() checked the reference.
            return annotation
        self._check_ref(table, column)
        return self._default_for(ref)

    def awareness_prior(self, table: str, column: str) -> float:
        return self.get(table, column).awareness_prior

    def may_ask(self, table: str, column: str) -> bool:
        return not self.get(table, column).never_ask

    def display_name(self, table: str, column: str) -> str:
        annotation = self.get(table, column)
        if annotation.display_name:
            return annotation.display_name
        return column.replace("_", " ")

    def explicit_refs(self) -> Iterator[ColumnRef]:
        """All attributes with a developer-set (non-default) annotation."""
        return iter(sorted(self._annotations))

    # ------------------------------------------------------------------
    # Defaults
    # ------------------------------------------------------------------
    def _default_for(self, ref: ColumnRef) -> AttributeAnnotation:
        """ID-like columns default to never-ask with a near-zero prior.

        "For instance, even though the screening_id is very useful and
        ultimately required for the transaction, the user will most likely
        not be aware of it" (Section 2).
        """
        schema = self._database.schema.table(ref.table)
        is_pk = schema.primary_key == ref.column
        is_fk = schema.foreign_key_for(ref.column) is not None
        looks_like_id = ref.column.endswith("_id") or ref.column == "id"
        if is_pk or is_fk or looks_like_id:
            return AttributeAnnotation(
                awareness_prior=_DEFAULT_ID_PRIOR, never_ask=True
            )
        return AttributeAnnotation()

    def _check_ref(self, table: str, column: str) -> None:
        try:
            self._database.schema.table(table).column(column)
        except Exception as exc:
            raise AnnotationError(
                f"annotation references unknown attribute {table}.{column}"
            ) from exc

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation of the explicit annotations."""
        return {
            str(ref): {
                "awareness_prior": annotation.awareness_prior,
                "never_ask": annotation.never_ask,
                "display_name": annotation.display_name,
                "synonyms": list(annotation.synonyms),
            }
            for ref, annotation in sorted(self._annotations.items())
        }

    @classmethod
    def from_dict(
        cls, database: "Database", payload: dict[str, Any]
    ) -> "SchemaAnnotations":
        annotations = cls(database)
        for key, body in payload.items():
            table, __, column = key.partition(".")
            if not column:
                raise AnnotationError(f"malformed annotation key {key!r}")
            annotations.annotate(
                table,
                column,
                awareness_prior=body.get("awareness_prior"),
                never_ask=body.get("never_ask"),
                display_name=body.get("display_name"),
                synonyms=tuple(body.get("synonyms", ())),
            )
        return annotations
