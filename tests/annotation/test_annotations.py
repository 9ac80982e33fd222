"""Tests for schema annotations."""

import pytest

from repro.annotation import AttributeAnnotation, SchemaAnnotations
from repro.errors import AnnotationError


class TestDefaults:
    def test_primary_key_defaults_never_ask(self, movie_db):
        database, __ = movie_db
        annotations = SchemaAnnotations(database)
        assert not annotations.may_ask("movie", "movie_id")
        assert annotations.awareness_prior("movie", "movie_id") < 0.1

    def test_foreign_key_defaults_never_ask(self, movie_db):
        database, __ = movie_db
        annotations = SchemaAnnotations(database)
        assert not annotations.may_ask("screening", "movie_id")

    def test_plain_column_defaults_askable(self, movie_db):
        database, __ = movie_db
        annotations = SchemaAnnotations(database)
        assert annotations.may_ask("movie", "title")
        assert annotations.awareness_prior("movie", "title") == pytest.approx(0.5)


class TestAnnotate:
    def test_set_and_get(self, movie_db):
        database, __ = movie_db
        annotations = SchemaAnnotations(database)
        annotations.annotate("movie", "title", awareness_prior=0.9,
                             display_name="movie title")
        annotation = annotations.get("movie", "title")
        assert annotation.awareness_prior == 0.9
        assert annotations.display_name("movie", "title") == "movie title"

    def test_partial_update_preserves_other_fields(self, movie_db):
        database, __ = movie_db
        annotations = SchemaAnnotations(database)
        annotations.annotate("movie", "title", awareness_prior=0.9)
        annotations.annotate("movie", "title", display_name="the title")
        annotation = annotations.get("movie", "title")
        assert annotation.awareness_prior == 0.9
        assert annotation.display_name == "the title"

    def test_display_name_fallback_is_humanised(self, movie_db):
        database, __ = movie_db
        annotations = SchemaAnnotations(database)
        assert annotations.display_name("screening", "start_time") == "start time"

    def test_unknown_attribute_rejected(self, movie_db):
        database, __ = movie_db
        annotations = SchemaAnnotations(database)
        with pytest.raises(AnnotationError):
            annotations.annotate("movie", "ghost", awareness_prior=0.5)
        with pytest.raises(AnnotationError):
            annotations.get("ghost", "title")

    def test_prior_out_of_range_rejected(self, movie_db):
        database, __ = movie_db
        annotations = SchemaAnnotations(database)
        with pytest.raises(AnnotationError):
            annotations.annotate("movie", "title", awareness_prior=1.5)

    def test_bad_annotation_object(self):
        with pytest.raises(AnnotationError):
            AttributeAnnotation(awareness_prior=-0.1)

    def test_explicit_refs_lists_only_set(self, movie_db):
        database, __ = movie_db
        annotations = SchemaAnnotations(database)
        annotations.annotate("movie", "title", awareness_prior=0.9)
        refs = list(annotations.explicit_refs())
        assert [str(r) for r in refs] == ["movie.title"]


class TestLookupWork:
    """``get`` builds a default only for attributes without an annotation."""

    @pytest.fixture()
    def defaults(self, movie_db, monkeypatch):
        database, __ = movie_db
        annotations = SchemaAnnotations(database)
        annotations.annotate("movie", "title", awareness_prior=0.9)
        counter = {"calls": 0}
        default_for = SchemaAnnotations._default_for

        def counting(self, ref):
            counter["calls"] += 1
            return default_for(self, ref)

        monkeypatch.setattr(SchemaAnnotations, "_default_for", counting)
        return annotations, counter

    def test_annotated_attribute_builds_no_default(self, defaults):
        annotations, counter = defaults
        for __ in range(3):
            assert annotations.get("movie", "title").awareness_prior == 0.9
            assert annotations.may_ask("movie", "title")
            assert annotations.display_name("movie", "title") == "title"
        assert counter["calls"] == 0

    def test_unannotated_attribute_builds_its_default(self, defaults):
        annotations, counter = defaults
        assert not annotations.may_ask("movie", "movie_id")
        assert counter["calls"] == 1

    @pytest.mark.parametrize("table, column", [
        ("ghost", "title"), ("movie", "ghost"), ("ghost", "ghost"),
    ])
    def test_unknown_reference_still_raises(self, defaults, table, column):
        annotations, counter = defaults
        with pytest.raises(AnnotationError):
            annotations.get(table, column)
        assert counter["calls"] == 0


class TestSerialization:
    def test_roundtrip(self, movie_db):
        database, annotations = movie_db
        payload = annotations.to_dict()
        restored = SchemaAnnotations.from_dict(database, payload)
        assert restored.to_dict() == payload

    def test_malformed_key_rejected(self, movie_db):
        database, __ = movie_db
        with pytest.raises(AnnotationError):
            SchemaAnnotations.from_dict(database, {"nodot": {}})
