"""Schema validation: malformed payloads fail loudly, with a path."""

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import reference
from repro.api import (CompressRequest, ForecastRequest, GridRequest,
                       ValidationError, encode)
from repro.api.schema import SCHEMAS, validate, validate_payload
from tests.api.test_codec import EXAMPLES


def _payload(**overrides):
    payload = encode(CompressRequest("ETTm1", "PMC", 0.1))
    payload.update(overrides)
    return payload


def test_valid_payload_passes():
    validate_payload(_payload())


def test_every_api_type_has_a_schema():
    from repro.api import API_TYPES

    assert set(SCHEMAS) == set(API_TYPES)


def test_missing_required_field_names_the_path():
    payload = _payload()
    del payload["dataset"]
    with pytest.raises(ValidationError, match="dataset"):
        validate_payload(payload)


def test_wrong_field_type_is_rejected():
    with pytest.raises(ValidationError, match="error_bound"):
        validate_payload(_payload(error_bound="lots"))


def test_unknown_tag_is_rejected():
    with pytest.raises(ValidationError, match="type"):
        validate_payload(_payload(type="Mystery"))


def test_missing_version_is_rejected():
    payload = _payload()
    del payload["v"]
    with pytest.raises(ValidationError):
        validate_payload(payload)


def test_future_version_is_rejected():
    with pytest.raises(ValidationError, match="version"):
        validate_payload(_payload(v=99))


def test_non_dict_payload_is_rejected():
    with pytest.raises(ValidationError):
        validate_payload(["not", "an", "object"])


# -- semantic validation (request.validate) ------------------------------------


def test_unknown_method_is_rejected():
    with pytest.raises(ValidationError, match="method"):
        CompressRequest("ETTm1", "BOGUS", 0.1).validate()


def test_unknown_part_is_rejected():
    with pytest.raises(ValidationError, match="part"):
        CompressRequest("ETTm1", "PMC", 0.1, part="middle").validate()


def test_negative_error_bound_is_rejected():
    with pytest.raises(ValidationError, match="error_bound"):
        CompressRequest("ETTm1", "PMC", -0.1).validate()


def test_retraining_requires_a_lossy_method():
    with pytest.raises(ValidationError, match="retrain"):
        ForecastRequest("Arima", "ETTm1", retrained=True).validate()


def test_grid_request_accepts_defaults():
    GridRequest().validate()


def test_grid_request_rejects_unknown_axis_entries():
    with pytest.raises(ValidationError):
        GridRequest(methods=("BOGUS",)).validate()


# -- the one-pass array check against its per-element twin --------------------
#
# ``schema.validate`` checks an array of scalars with one scan of its
# element types and builds the ``$.name[i]`` path only for the first
# failing element;
# ``reference.validate`` walks every element.  Both must accept the same
# payloads and reject the rest with the same message and key.

PAYLOADS = [encode(example) for example in EXAMPLES]

#: the arrays a bad element is planted in: every number and string array
#: of the contract
ARRAYS = ("values", "params", "forecast", "error_bounds", "datasets",
          "models", "methods", "lines")

BAD_ELEMENTS = [True, False, None, [1.0], [], {"x": 1.0}, "1.0", "",
                float("nan"), float("inf"), 7, 2.5]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=3)),
    max_leaves=6)


def _outcome(validator, payload):
    """``None`` if the payload passes, else the error's envelope."""
    try:
        validator(payload, SCHEMAS[payload["type"]])
    except ValidationError as error:
        return error.envelope
    return None


def _assert_twins_agree(payload):
    expected = _outcome(reference.validate, payload)
    assert _outcome(validate, payload) == expected
    return expected


def _sites(node, kind):
    """Every container of ``kind`` in a payload, parent key attached."""
    found = []

    def walk(value, name):
        if isinstance(value, kind):
            found.append((name, value))
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, key)
        elif isinstance(value, list):
            for item in value:
                walk(item, name)

    walk(node, None)
    return found


@pytest.mark.parametrize("payload", PAYLOADS, ids=lambda p: p["type"])
def test_every_codec_example_passes_both_validators(payload):
    assert _assert_twins_agree(payload) is None


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_bad_element_at_a_random_index_gets_the_twins_error(data):
    payload = copy.deepcopy(data.draw(st.sampled_from(
        [p for p in PAYLOADS
         if any(name in ARRAYS for name, _ in _sites(p, list))])))
    arrays = [array for name, array in _sites(payload, list)
              if name in ARRAYS]
    array = data.draw(st.sampled_from(arrays))
    number = bool(array) and not isinstance(array[0], str)
    filler = st.floats(-1e6, 1e6) if number else st.text(max_size=3)
    array.extend(data.draw(st.lists(filler, max_size=40)))
    index = data.draw(st.integers(0, len(array)))
    array.insert(index, data.draw(st.sampled_from(BAD_ELEMENTS)))
    _assert_twins_agree(payload)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_arbitrary_mutations_get_the_twins_verdict(data):
    payload = copy.deepcopy(data.draw(st.sampled_from(PAYLOADS)))
    for _ in range(data.draw(st.integers(1, 3))):
        containers = _sites(payload, (list, dict))
        _, container = data.draw(st.sampled_from(containers))
        if isinstance(container, list):
            index = data.draw(st.integers(0, len(container)))
            container.insert(index, data.draw(json_values))
        elif container and data.draw(st.booleans()):
            del container[data.draw(st.sampled_from(sorted(container)))]
        else:
            key = data.draw(st.sampled_from(sorted(container) + ["extra"]))
            container[key] = data.draw(json_values)
    if isinstance(payload.get("type"), str) and payload["type"] in SCHEMAS:
        _assert_twins_agree(payload)


def _status_with(record):
    payload = encode(next(e for e in EXAMPLES
                          if type(e).__name__ == "RunStatusResponse"))
    payload["records"] = [payload["records"][0], record]
    return payload


_DROP = object()


def _record(**changes):
    record = encode(next(e for e in EXAMPLES
                         if type(e).__name__ == "ForecastResponse"))
    record.update(changes)
    return {key: value for key, value in record.items()
            if value is not _DROP}


@pytest.mark.parametrize("record", [
    _record(model=_DROP), _record(seed="0"), _record(retrained=None),
    _record(metrics={"NRMSE": "x"}), _record(metrics=[0.2]),
    _record(type=7), _record(v=True), _record(v=99),
    _record(type="CompressResponse"), "not a record", None, [],
], ids=["missing-model", "string-seed", "null-flag", "string-metric",
        "list-metrics", "int-tag", "bool-version", "future-version",
        "other-type", "string", "null", "list"])
def test_malformed_record_gets_the_twins_error(record):
    _assert_twins_agree(_status_with(record))
