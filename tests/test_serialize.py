"""The schema validator of ``serialize`` against ``jsonschema``, the
reference implementation: on valid and mutated documents of every shipped
schema, both give the same verdict and the same message."""

import json
from importlib import resources

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdofkit import serialize
from sdofkit.errors import SchemaViolation

SCHEMAS = sorted(path.name.removesuffix(".schema.json")
                 for path in resources.files("sdofkit.schemas").iterdir()
                 if path.name.endswith(".schema.json"))

# jsonschema.validate checks the schema and then reports best_match of its
# validator's errors; the schemas are checked once, in
# test_schema_meets_its_metaschema
ORACLES = {name: jsonschema.validators.validator_for(serialize._schema(name))(
    serialize._schema(name)) for name in SCHEMAS}


def oracle(doc, name: str) -> str | None:
    """``jsonschema.validate``'s message for ``doc``, with the JSON Pointer
    of the failing field below the root, or None if it passes."""
    error = jsonschema.exceptions.best_match(ORACLES[name].iter_errors(doc))
    if error is None:
        return None
    at = "".join(f"/{p}" for p in error.path)
    return f"{name}: {error.message}" + (f" (at {at})" if at else "")


def verdict(doc, name: str) -> str | None:
    try:
        serialize.validate_document(doc, name)
    except SchemaViolation as exc:
        return str(exc)
    return None


def resolve(schema: dict, root: dict) -> dict:
    while "$ref" in schema:
        schema = root["$defs"][schema["$ref"].removeprefix("#/$defs/")]
    return schema


def subschemas(schema: dict):
    """``schema`` and every schema inside it."""
    yield schema
    for key in ("properties", "$defs"):
        for sub in schema.get(key, {}).values():
            yield from subschemas(sub)
    if "items" in schema:
        yield from subschemas(schema["items"])


# ---------------------------------------------------------------------------
# documents


def valid(schema: dict, root: dict, full: bool = False) -> st.SearchStrategy:
    """Documents that meet ``schema``, with small arrays; ``full`` ones set
    every property and hold an item in every array."""
    schema = resolve(schema, root)
    if "const" in schema:
        return st.just(schema["const"])
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    types = schema["type"]
    return st.one_of([of_type(t, schema, root, full)
                      for t in ([types] if isinstance(types, str) else types)])


def of_type(name: str, schema: dict, root: dict, full: bool) -> st.SearchStrategy:
    if name == "object":
        props = {key: valid(sub, root, full) for key, sub in schema.get("properties", {}).items()}
        required = props if full else schema.get("required", [])
        return st.fixed_dictionaries({key: props[key] for key in required},
                                     optional={k: v for k, v in props.items() if k not in required})
    if name == "array":
        low = schema.get("minItems", 0)
        return st.lists(valid(schema["items"], root, full), min_size=max(low, int(full)),
                        max_size=schema.get("maxItems", low + 2))
    if name in ("integer", "number"):
        low, high = schema.get("minimum"), schema.get("maximum")
        if "exclusiveMinimum" in schema:
            low = schema["exclusiveMinimum"] + 1
        ints = st.integers(low, high)
        if name == "integer":  # 1.0 is an integer too
            return ints | ints.map(float)
        floats = st.floats(schema.get("exclusiveMinimum", low), high, allow_nan=False,
                           allow_infinity=False, exclude_min="exclusiveMinimum" in schema)
        return ints | floats
    return {"string": st.text(max_size=3), "boolean": st.booleans(), "null": st.none()}[name]


def locations(doc, schema: dict, root: dict, path=()):
    """``(path, schema)`` of ``doc`` and of every value inside it that its
    schema describes."""
    schema = resolve(schema, root)
    yield path, schema
    if isinstance(doc, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in doc:
                yield from locations(doc[key], sub, root, path + (key,))
    elif isinstance(doc, list) and "items" in schema:
        for i, item in enumerate(doc):
            yield from locations(item, schema["items"], root, path + (i,))


# a wrong type or null, a bool for a number, 1.0 for an integer
OTHER_VALUES = [None, True, False, 0, 1, -1, 1.0, 1.5, "x", [], {}]


def mutations(value, schema: dict) -> list:
    """Values to put in place of ``value``: the ones above, each bound
    crossed by one and met, a wrong ``const`` or ``enum`` value, a key
    dropped or added, and an array one item too short or too long."""
    out = list(OTHER_VALUES)
    for key in ("minimum", "maximum", "exclusiveMinimum"):
        if key in schema:
            bound = schema[key]
            out += [bound - 1, bound, bound + 1, bound - 0.5, bound + 0.5, float(bound)]
    if "const" in schema:
        out += [schema["const"] + "x", schema["const"].upper()]
    if "enum" in schema:
        out += [schema["enum"][0] + "x", *schema["enum"]]
    if isinstance(value, dict):
        out += [{k: v for k, v in value.items() if k != key} for key in value]
        out.append({**value, "extra": 1})
    if isinstance(value, list):
        if schema.get("minItems"):
            out.append(value[:schema["minItems"] - 1])
        if "maxItems" in schema and value:
            out.append(value + value[:1] * (schema["maxItems"] + 1 - len(value)))
        if value:
            out += [value[:-1], value + value[-1:]]
    return out


def replaced(doc, path: tuple, new):
    if not path:
        return new
    head, *rest = path
    if isinstance(doc, dict):
        return {**doc, head: replaced(doc[head], tuple(rest), new)}
    return [replaced(item, tuple(rest), new) if i == head else item for i, item in enumerate(doc)]


def value_at(doc, path: tuple):
    for key in path:
        doc = doc[key]
    return doc


def mutated(data, name: str, faults: int):
    root = serialize._schema(name)
    doc = data.draw(valid(root, root))
    for _ in range(faults):
        path, schema = data.draw(st.sampled_from(list(locations(doc, root, root))))
        doc = replaced(doc, path, data.draw(st.sampled_from(mutations(value_at(doc, path), schema))))
    # the document survives a JSON round trip, as the CLI reads it
    assert json.loads(json.dumps(doc)) == doc
    return doc


DIFFERENTIAL = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                              HealthCheck.data_too_large])


@pytest.mark.parametrize("name", SCHEMAS)
class TestAgainstJsonschema:
    @given(data=st.data())
    @settings(DIFFERENTIAL, max_examples=25)
    def test_valid_documents_pass(self, name, data):
        root = serialize._schema(name)
        doc = data.draw(valid(root, root))
        assert oracle(doc, name) is None
        serialize.validate_document(doc, name)

    @given(data=st.data())
    @settings(DIFFERENTIAL, max_examples=50)
    def test_one_fault_gets_the_same_verdict_and_message(self, name, data):
        doc = mutated(data, name, 1)
        assert verdict(doc, name) == oracle(doc, name)

    @given(data=st.data())
    @settings(DIFFERENTIAL, max_examples=3)
    def test_every_single_fault_gets_the_same_verdict_and_message(self, name, data):
        # each mutation at each location of a document that sets every
        # field; the first item of an array stands for the others
        root = serialize._schema(name)
        doc = data.draw(valid(root, root, full=True))
        for path, schema in locations(doc, root, root):
            if any(key != 0 for key in path if isinstance(key, int)):
                continue
            for new in mutations(value_at(doc, path), schema):
                bad = replaced(doc, path, new)
                assert verdict(bad, name) == oracle(bad, name), path

    @given(data=st.data())
    @settings(DIFFERENTIAL, max_examples=40)
    def test_several_faults_get_the_same_verdict_and_message(self, name, data):
        doc = mutated(data, name, data.draw(st.integers(2, 4)))
        assert verdict(doc, name) == oracle(doc, name)


class TestValidator:
    SCENARIO = {"antennas": {"ns1": 4, "ns2": 2, "nd1": 4, "nd2": 2, "ne": 4}, "target": [1, 1]}

    @pytest.mark.parametrize("doc, message", [
        ({"target": [1.0, 0]}, None),  # 1.0 is an integer
        ({"target": [True, 0]}, "True is not of type 'integer' (at /target/0)"),
        ({"geometry": None, "sweep": None}, None),  # null skips the object keywords
        ({"geometry": {"s1": [0, 0], "s2": [9, False]}},
         "False is not of type 'number' (at /geometry/s2/1)"),
        ({"geometry": {"s1": [0, 0], "s2": [9, 0], "ring_radius": 10.5}},
         "10.5 is greater than the maximum of 10 (at /geometry/ring_radius)"),
        ({"pathloss_exponent": 0},
         "0 is less than or equal to the minimum of 0 (at /pathloss_exponent)"),
        ({"seed": -1}, "-1 is less than the minimum of 0 (at /seed)"),
        ({"sweep": {"variable": "power_dbm", "values": []}},
         "[] should be non-empty (at /sweep/values)"),
        ({"target": [1, 1, 1]}, "[1, 1, 1] is too long (at /target)"),
        ({"sweep": {"variable": "distance", "values": [1]}},
         "'distance' is not one of ['s1_s2_distance', 'uncertainty_alpha', 'power_dbm', "
         "'noise_power_dbm'] (at /sweep/variable)"),
        # the least deep error is reported, as jsonschema reports it
        ({"trials": 0, "antennas": {"ns1": 0}}, "0 is less than the minimum of 1 (at /trials)"),
    ], ids=["1.0_is_integer", "bool_is_no_integer", "null_object", "bool_is_no_number",
            "maximum", "exclusive_minimum", "negative_seed", "min_items", "max_items", "enum",
            "least_deep"])
    def test_scenario(self, doc, message):
        doc = {**self.SCENARIO, **doc}
        expected = None if message is None else f"scenario: {message}"
        assert verdict(doc, "scenario") == oracle(doc, "scenario") == expected

    def test_root_error_names_no_field(self):
        doc = {"antennas": self.SCENARIO["antennas"]}
        expected = "scenario: 'target' is a required property"
        assert verdict(doc, "scenario") == oracle(doc, "scenario") == expected

    def test_each_schema_is_parsed_once(self):
        assert serialize._schema("scenario") is serialize._schema("scenario")


@pytest.mark.parametrize("name", SCHEMAS)
def test_schema_uses_only_implemented_keywords(name):
    root = serialize._schema(name)
    keywords = set().union(*(sub.keys() for sub in subschemas(root)))
    assert keywords <= serialize._KEYWORDS | serialize._ANNOTATIONS
    for sub in subschemas(root):
        # local references only, and string constants, for which Python's
        # == is JSON's equality
        if "$ref" in sub:
            assert sub["$ref"].removeprefix("#/$defs/") in root["$defs"]
        assert all(isinstance(v, str) for v in [sub.get("const", ""), *sub.get("enum", [])])


def test_keyword_walk_reaches_nested_schemas():
    schema = {"type": "object", "properties": {"a": {"items": {"pattern": "x"}}},
              "$defs": {"b": {"allOf": []}}}
    keywords = set().union(*(sub.keys() for sub in subschemas(schema)))
    assert {"pattern", "allOf"} <= keywords


@pytest.mark.parametrize("name", SCHEMAS)
def test_schema_meets_its_metaschema(name):
    jsonschema.validators.validator_for(serialize._schema(name)).check_schema(
        serialize._schema(name))


def test_every_shipped_schema_is_covered():
    assert SCHEMAS == ["channel_set", "construct_result", "precoder_pair", "region_result",
                       "scenario", "simulate_result", "verify_result"]
