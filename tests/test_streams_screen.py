"""``classify_bad_record`` off its exact-type fast path.

``tests/test_streams_watermark.py`` pins the verdicts on builtin containers
(``dict`` attributes, ``tuple`` / ``str`` keywords); the screen must give the
same verdicts when it has to fall back to the ABC checks.
"""

from collections import OrderedDict
from types import MappingProxyType

from repro.streams.objects import SpatialObject
from repro.streams.watermark import classify_bad_record


def with_attributes(attributes):
    return SpatialObject(x=1.0, y=2.0, timestamp=3.0, weight=1.0, object_id=1, attributes=attributes)


def test_non_builtin_mappings_and_iterables_are_admitted():
    for attributes in (
        OrderedDict(keywords=["a", "b"]),
        MappingProxyType({"keywords": frozenset({"a"})}),
        {"keywords": {"a": 1}.keys()},
        {"keywords": (k for k in ("a", "b"))},
    ):
        assert classify_bad_record(with_attributes(attributes)) is None


def test_verdicts_do_not_depend_on_the_container_type():
    class Keywords(list):
        pass

    assert "non-string" in classify_bad_record(
        with_attributes(OrderedDict(keywords=Keywords(["ok", 3])))
    )
    assert "non-string" in classify_bad_record(with_attributes({"keywords": {"ok", 3}}))
    assert "not a string or iterable" in classify_bad_record(
        with_attributes(MappingProxyType({"keywords": 7}))
    )
    assert "not a mapping" in classify_bad_record(with_attributes(("keywords",)))
