"""JSON text of query results: ``as_json()`` is ``json.dumps(as_dict())``.

The server writes ``/v1/query`` replies from :meth:`Match.as_json` and
:meth:`QueryResult.as_json`; these properties pin that text to the
dict form byte for byte, over the values a hit can carry: ``None``,
NaN, infinities, negative zero, subnormals, strings with quotes,
backslashes, control characters, non-ASCII and lone surrogates, and
nested region dicts.
"""

import dataclasses
import json

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.api.types import QueryResult
from repro.index.match import EVIDENCE, KEYS, Match, encode_json

#: Any code point, lone surrogates included (JSON input can carry them
#: as ``\\ud800`` escapes).
TEXT = st.text(st.characters(exclude_categories=()), max_size=12)

FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                     float("nan"), float("inf"), float("-inf"),
                     1e300, 0.1]),
)

OPTIONAL_FLOATS = st.one_of(st.none(), FLOATS, FLOATS.map(np.float64))

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, TEXT)

REGIONS = st.one_of(
    st.none(),
    st.dictionaries(
        TEXT,
        st.recursive(SCALARS,
                     lambda inner: st.one_of(
                         st.lists(inner, max_size=3),
                         st.dictionaries(TEXT, inner, max_size=3)),
                     max_leaves=8),
        max_size=5),
)

NAMES = st.one_of(TEXT, st.sampled_from(["d000123", "fam7", "d000123.v"]))

MATCHES = st.builds(
    Match,
    rank=st.one_of(st.integers(1, 10**6), st.integers(), st.booleans()),
    name=NAMES,
    path=st.one_of(NAMES, st.none()),
    design=st.one_of(NAMES, st.none(), st.integers()),
    score=st.one_of(FLOATS, st.floats(width=32).map(np.float32),
                    FLOATS.map(np.float64)),
    is_piracy=st.one_of(st.booleans(), st.booleans().map(np.bool_)),
    via=st.sampled_from(["design", "chunk"]),
    region=REGIONS,
    query_region=REGIONS,
    coverage=OPTIONAL_FLOATS,
    struct=OPTIONAL_FLOATS,
    probability=OPTIONAL_FLOATS,
    confidence_low=OPTIONAL_FLOATS,
    confidence_high=OPTIONAL_FLOATS,
    calibrated_piracy=st.one_of(st.none(), st.booleans()),
)

#: Hits as the engine builds them for a plain vector query: the
#: template's fast path.
PLAIN_MATCHES = st.builds(
    Match,
    rank=st.integers(1, 1000),
    name=NAMES,
    path=NAMES,
    design=NAMES,
    score=FLOATS,
    is_piracy=st.booleans(),
    calibrated_piracy=st.one_of(st.none(), st.booleans()),
)


@settings(max_examples=250, deadline=None)
@given(MATCHES)
def test_match_text_is_json_dumps_of_its_dict(match):
    assert match.as_json() == json.dumps(match.as_dict())


@settings(max_examples=150, deadline=None)
@given(PLAIN_MATCHES)
def test_plain_match_text_is_json_dumps_of_its_dict(match):
    assert match.as_json() == json.dumps(match.as_dict())


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.none(), TEXT), st.lists(st.one_of(MATCHES, PLAIN_MATCHES),
                                            max_size=4))
def test_query_result_text_is_json_dumps_of_its_dict(label, matches):
    result = QueryResult(label=label, matches=matches)
    assert result.as_json() == json.dumps(result.as_dict())


@settings(max_examples=150, deadline=None)
@given(st.one_of(SCALARS, REGIONS))
def test_encode_json_is_json_dumps(value):
    assert encode_json(value) == json.dumps(value)


def test_keys_are_the_dict_keys_in_order():
    match = Match(1, "d", "d.v", "fam", 0.5, False)
    assert tuple(match.as_dict()) == KEYS
    fields = {f.name for f in dataclasses.fields(Match)}
    assert set(KEYS) - fields == {"verdict"}
    assert set(EVIDENCE) <= set(KEYS)


def test_control_characters_and_surrogates_are_escaped():
    match = Match(3, 'a"b\\c\x00\x1f\x7f', "\ud800é", "日本", -0.0, True,
                  region={"label": "\n", "span": [0, float("nan")]})
    text = match.as_json()
    assert text.isascii()
    assert '"a\\"b\\\\c\\u0000\\u001f\\u007f"' in text
    assert '"\\ud800\\u00e9"' in text
    assert '"score": -0.0' in text
    assert '"region": {"label": "\\n", "span": [0, NaN]}' in text
    assert text == json.dumps(match.as_dict())
