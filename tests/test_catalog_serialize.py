"""Built-in surface catalog, lossless JSON round-trips, and the JSON
writer against ``json.dumps``."""
import enum
import json
import math
from pathlib import Path

from hypothesis import example, given, settings, strategies as st
import pytest

from hilb2 import permgroup, serialize
from hilb2.catalog import get_surface, surface_names
from hilb2.errors import UnknownCatalogEntry
from hilb2.fpgroup import AbelianInvariants, abelianization
from hilb2.monodromy import cover_from_subgroup
from hilb2.permgroup import Permutation


def test_surface_names_sorted_and_complete():
    names = surface_names()
    assert names == tuple(sorted(names))
    assert len(names) == 12
    assert "simply-connected" in names
    assert "quaternion" in names
    assert all(f"cyclic-{n}" in names for n in range(2, 9))


def test_catalog_entry_fields():
    enriques = get_surface("enriques-type")
    assert enriques.singular_points == (("p1", "A1"),)
    assert enriques.singular_labels == ("p1",)
    assert enriques.hodge == (1, 0, 0)
    assert not enriques.is_smooth
    assert get_surface("smooth-enriques").is_smooth
    assert get_surface("cyclic-5").singular_points == (("p1", "A4"),)
    quaternion = abelianization(get_surface("quaternion").pi1_smooth)
    assert quaternion.rank == 0
    assert quaternion.torsion == (2, 2)


def test_unknown_catalog_entry():
    with pytest.raises(UnknownCatalogEntry):
        get_surface("mystery-surface")


def s3_cover():
    group = permgroup.generate(
        (Permutation((1, 0, 2)), Permutation((1, 2, 0))), domain_size=3
    )
    sub = permgroup.generate((Permutation((1, 0, 2)),), domain_size=3)
    return cover_from_subgroup(group, sub)


def test_group_round_trip():
    group = s3_cover().monodromy
    data = serialize.group_to_dict(group)
    assert serialize.group_from_dict(data) == group
    assert all(
        isinstance(v, int) for images in data["generators"] for v in images
    )


def test_cover_round_trip_through_json_text():
    cover = s3_cover()
    text = serialize.emit(serialize.to_dict(cover))
    decoded = serialize.from_dict(serialize.parse(text))
    assert decoded == cover
    assert serialize.parse(text)["type"] == "cover"


def test_surface_round_trip_all_catalog_entries():
    for name in surface_names():
        surface = get_surface(name)
        decoded = serialize.from_dict(
            serialize.parse(serialize.emit(serialize.to_dict(surface)))
        )
        assert decoded == surface, name


def test_invariants_round_trip():
    invariants = AbelianInvariants(rank=2, torsion=(2, 6))
    data = serialize.to_dict(invariants)
    assert data == {"type": "abelian_invariants", "rank": 2, "torsion": [2, 6]}
    assert serialize.from_dict(data) == invariants


def test_dispatch_errors():
    with pytest.raises(TypeError):
        serialize.to_dict(object())
    with pytest.raises(ValueError):
        serialize.from_dict({"type": "mystery"})


def test_envelope_schema():
    env = serialize.envelope("construct", [{"type": "cover"}])
    assert env["schema_version"] == 1
    assert env["command"] == "construct"
    assert serialize.parse(serialize.emit(env)) == env


def dumps(data) -> str:
    """The reference ``emit`` must reproduce byte for byte."""
    return json.dumps(data, indent=2, sort_keys=True)


SCALARS = (
    st.none() | st.booleans()
    | st.integers() | st.integers(min_value=-10 ** 40, max_value=10 ** 40)
    | st.floats(allow_nan=True, allow_infinity=True)
    # Non-ASCII, surrogate and control characters all need escapes.
    | st.text() | st.text(st.characters(max_codepoint=0x1f))
)


def _containers(children):
    values = st.lists(children, max_size=5)
    return (
        values | values.map(tuple)
        | st.dictionaries(st.text(max_size=4), children, max_size=5)
        # Keys of one comparable kind per dict, as sort_keys needs.
        | st.dictionaries(st.integers(), children, max_size=4)
        | st.dictionaries(st.floats() | st.integers() | st.booleans(),
                          children, max_size=4)
        | st.dictionaries(st.none(), children, max_size=1)
    )


JSON_VALUES = st.recursive(SCALARS, _containers, max_leaves=25)


class Level(enum.IntEnum):
    HIGH = 7


class Label(str):
    pass


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example(float("nan"))
@example([math.inf, -math.inf, -0.0, 1e-320, 1.5e300])
@example({"\u00e9\u2603\ud800": ["\x00\x1f\n\"\\", "\U0001f600"]})
@example([{Level.HIGH: Level.HIGH, 2.5: 1.0}, {Label("k"): Label("v")}])
@example([{False: [], True: {}}, {None: [[], {}]}])
@example([10 ** 100, -10 ** 100, 0, -1])
def test_emit_is_json_dumps(data):
    assert serialize.emit(data) == dumps(data)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.text(max_size=4), JSON_VALUES, min_size=1,
                       max_size=4),
       JSON_VALUES, st.lists(st.integers(0, 2), max_size=8))
def test_emit_encodes_repeated_records_as_json_dumps_does(record, other,
                                                          pattern):
    # The same record object recurs in results and at other depths; the
    # writer encodes it once per depth, by identity.
    results = [(record, other, [record])[i] for i in pattern]
    envelope = serialize.envelope("classify", results)
    envelope["nested"] = {"again": record, "list": [record, [record]]}
    assert serialize.emit(envelope) == dumps(envelope)


GOLDEN_JSON = [
    record for record in json.loads(
        (Path(__file__).resolve().parent / "data" / "cli_golden.json")
        .read_text(encoding="utf-8"))
    if "json" in record["argv"] and record["exit"] == 0
]


@pytest.mark.parametrize("record", GOLDEN_JSON,
                         ids=[" ".join(r["argv"]) for r in GOLDEN_JSON])
def test_emit_rewrites_every_golden_json_record(record):
    data = json.loads(record["stdout"])
    assert serialize.emit(data) + "\n" == record["stdout"]
    assert serialize.emit(data) == dumps(data)


@pytest.mark.parametrize("data, error", [
    ({"a": object()}, TypeError),
    ({1: "int key", "a": "str key"}, TypeError),
    ({(1, 2): "tuple key"}, TypeError),
])
def test_emit_refuses_what_json_dumps_refuses(data, error):
    with pytest.raises(error) as expected:
        dumps(data)
    with pytest.raises(error, match=f"^{expected.value}$"):
        serialize.emit(data)


def test_emit_refuses_a_circular_container():
    looped: list = [1]
    looped.append({"back": looped})
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        serialize.emit(looped)
