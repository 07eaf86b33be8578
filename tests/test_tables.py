"""Multiplication-table groups: constructors, invariants, quotients."""
from hypothesis import given, settings, strategies as st
import pytest

from hilb2 import permgroup
from hilb2.cli import main
from hilb2.errors import NotAGroup
from hilb2.fpgroup import smith_invariant_factors
from hilb2.permgroup import Permutation
from hilb2.tables import (
    GroupTable,
    abelian_group_tables,
    abelian_table,
    cyclic_table,
    direct_product,
    group_from_spec,
    parse_group_spec,
    quaternion_table,
    symmetric_table,
    validate_ade,
)


def test_cyclic_table_basics():
    z4 = cyclic_table(4)
    assert z4.order == 4
    assert z4.identity == 0
    assert z4.mul(3, 2) == 1
    assert z4.inv(1) == 3
    assert z4.order_of(1) == 4
    assert z4.order_of(2) == 2
    assert z4.is_abelian
    assert cyclic_table(1).order == 1


def test_table_validation():
    with pytest.raises(NotAGroup):
        GroupTable(((0, 1), (1, 1)))


class HidingIdentity(tuple):
    """A row that holds the identity but answers ``in`` as if it did not,
    the one way a table with bijective rows can lack an inverse."""

    def __contains__(self, value):
        return False


Z3_ROWS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


@pytest.mark.parametrize("rows, message", [
    ((), "a group has at least one element"),
    (((0, 1), (1,)), "table is not square over valid element indices"),
    (((0, 1), (1, 2)), "table is not square over valid element indices"),
    (((0, -1), (1, 0)), "table is not square over valid element indices"),
    # Row 2 repeats a value (so does column 2); rows and columns 0-1 are
    # bijections.
    (((0, 1, 2), (1, 2, 0), (2, 0, 0)), "row 2 is not a bijection"),
    # Every row is a bijection; column 1 is the first column that is not.
    (((0, 1, 2), (1, 2, 0), (2, 1, 0)), "column 1 is not a bijection"),
    # Row 2 and column 1 both fail: index 1 comes first.
    (((0, 1, 2), (1, 2, 0), (2, 2, 1)), "column 1 is not a bijection"),
    # Row 0 fails before column 0 at the same index.
    (((0, 0), (1, 0)), "row 0 is not a bijection"),
    # Latin squares: x·y = -x - y has no identity row; x·y = y - x has the
    # identity row 0 but not the identity column.
    (((0, 2, 1), (2, 1, 0), (1, 0, 2)), "no two-sided identity element"),
    (((0, 1, 2), (2, 0, 1), (1, 2, 0)), "no two-sided identity element"),
    ((Z3_ROWS[0], HidingIdentity(Z3_ROWS[1]), Z3_ROWS[2]),
     "element 1 has no inverse"),
])
def test_each_validation_message_names_its_index(rows, message):
    with pytest.raises(NotAGroup, match=f"^{message}$"):
        GroupTable(rows)


def reversed_z6():
    """Z6 with element i renamed 5 - i, so the identity is element 5."""
    return GroupTable(tuple(tuple(5 - (5 - a + 5 - b) % 6 for b in range(6))
                            for a in range(6)))


def test_derived_fields_match_their_definitions():
    for table in ORACLE_TABLES:
        rows, n = table.table, table.order
        e = table.identity
        assert all(rows[e][x] == x == rows[x][e] for x in range(n))
        assert all(rows[a][table.inv(a)] == e for a in range(n))
        assert table.is_abelian == all(
            rows[a][b] == rows[b][a] for a in range(n) for b in range(n))
        commutators = {rows[rows[table.inv(a)][table.inv(b)]][rows[a][b]]
                       for a in range(n) for b in range(n)}
        assert table.commutator_subgroup() == \
            table.subgroup_closure(commutators)
    assert reversed_z6().identity == 5


def test_small_generating_set_is_computed_once_per_table():
    # Light's test in the validation computed it; later calls read it.
    table = abelian_table((2, 2, 2, 2, 2, 2))
    gens = vars(table)["_small_generating_set"]
    assert gens == (1, 2, 4, 8, 16, 32)
    assert table.small_generating_set() is gens


def associative_by_exhaustion(rows) -> bool:
    """The n³ oracle for Light's test in ``GroupTable.__post_init__``."""
    n = len(rows)
    return all(
        rows[rows[a][b]][c] == rows[a][rows[b][c]]
        for a in range(n) for b in range(n) for c in range(n)
    )


def light_accepts(rows) -> bool:
    try:
        GroupTable(rows)
    except NotAGroup as refused:
        assert "associativity fails" in str(refused)
        a, b, c = map(int, str(refused).split("(")[1].rstrip(")").split(","))
        assert rows[rows[a][b]][c] != rows[a][rows[b][c]]
        return False
    return True


ORACLE_TABLES = [table for _, table in abelian_group_tables(12)] + [
    symmetric_table(3), symmetric_table(4), quaternion_table()
]


# (table, t, <t>) for every t generating a proper nontrivial subgroup.
PROPER_CYCLIC_SUBGROUPS = [
    (table, t, cyclic) for table in ORACLE_TABLES
    for t in range(table.order) if t != table.identity
    for cyclic in [table.subgroup_closure([t])] if len(cyclic) < table.order
]


def test_light_test_agrees_with_the_exhaustive_oracle_on_groups():
    for table in ORACLE_TABLES:
        assert associative_by_exhaustion(table.table)
        assert light_accepts(table.table)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_light_test_agrees_with_the_exhaustive_oracle_off_groups(data):
    """Exchange rows a and b of a group table on one row cycle.

    Row a holds a·c where row b holds b·c' for c' = t·c, t = b⁻¹·a, so on
    the columns of a coset ⟨t⟩·c the two rows hold the same symbols and
    exchanging them there keeps every row and column a bijection.  With a,
    b and the coset away from the identity, the identity row and column
    stay too, so associativity alone decides both verdicts.
    """
    table, t, cyclic = data.draw(st.sampled_from(PROPER_CYCLIC_SUBGROUPS))
    e, n = table.identity, table.order
    a = data.draw(st.sampled_from(
        [x for x in range(n) if x not in (e, t)]))
    c = data.draw(st.sampled_from(
        [x for x in range(n) if x not in cyclic]))
    b = table.mul(a, table.inv(t))
    coset = {table.mul(s, c) for s in cyclic}
    rows = [list(row) for row in table.table]
    for col in coset:
        rows[a][col], rows[b][col] = rows[b][col], rows[a][col]
    rows = tuple(map(tuple, rows))
    assert all(len(set(row)) == n for row in rows)
    assert all(len({row[col] for row in rows}) == n for col in range(n))
    assert rows[e] == tuple(range(n))
    assert all(row[e] == x for x, row in enumerate(rows))
    assert light_accepts(rows) == associative_by_exhaustion(rows)


def test_direct_product_of_coprime_cyclics_is_cyclic():
    z6 = direct_product(cyclic_table(2), cyclic_table(3))
    assert z6.order == 6
    assert z6.is_abelian
    assert z6.abelian_invariants() == (6,)


def test_symmetric_table():
    s3 = symmetric_table(3)
    assert s3.order == 6
    assert not s3.is_abelian
    assert sorted(s3.order_of(g) for g in range(6)) == [1, 2, 2, 2, 3, 3]
    assert s3.commutator_subgroup() == (0, 3, 4)
    assert len(s3.commutator_subgroup()) == 3
    assert symmetric_table(1).order == 1
    assert symmetric_table(4).order == 24


def test_quaternion_table():
    q8 = quaternion_table()
    assert q8.order == 8
    assert not q8.is_abelian
    assert sorted(q8.order_of(g) for g in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert len(q8.commutator_subgroup()) == 2
    quotient, _ = q8.quotient_by(q8.commutator_subgroup())
    assert quotient.abelian_invariants() == (2, 2)


def name_chain(name):
    """The invariant factors, ascending, that a catalog name lists largest
    first: ``Z4xZ2`` gives (2, 4), and ``Z1`` the empty chain."""
    return tuple(int(z[1:]) for z in reversed(name.split("x")) if z != "Z1")


CATALOG_64 = abelian_group_tables(64)


def test_abelian_table_and_invariants():
    assert abelian_table(()).order == 1
    assert abelian_table((2, 4)).abelian_invariants() == (2, 4)
    assert abelian_table((2, 3)).abelian_invariants() == (6,)
    assert abelian_table((2, 2, 2)).abelian_invariants() == (2, 2, 2)
    assert cyclic_table(12).abelian_invariants() == (12,)
    assert cyclic_table(1).abelian_invariants() == ()
    # The element-order reading against the catalog's names and against
    # the Smith form of the named factors, taken in the name's order.
    for name, table in CATALOG_64:
        factors = [int(z[1:]) for z in name.split("x")]
        diagonal = [[d if i == j else 0 for j in range(len(factors))]
                    for i, d in enumerate(factors)]
        smith = tuple(d for d in smith_invariant_factors(diagonal) if d != 1)
        assert table.abelian_invariants() == name_chain(name) == smith, name
    with pytest.raises(NotAGroup,
                       match="^invariant factors are defined for abelian groups$"):
        symmetric_table(3).abelian_invariants()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_abelian_invariants_do_not_depend_on_the_labelling(data):
    name, table = data.draw(st.sampled_from(CATALOG_64))
    sigma = data.draw(st.permutations(range(table.order)))
    rows = [[0] * table.order for _ in range(table.order)]
    for a, row in enumerate(table.table):
        for b, ab in enumerate(row):
            rows[sigma[a]][sigma[b]] = sigma[ab]
    relabelled = GroupTable(tuple(map(tuple, rows)))
    assert relabelled.abelian_invariants() == name_chain(name)


def test_abelian_invariants_build_no_table(monkeypatch):
    table = abelian_table((2, 4, 8))
    regular = permgroup.generate(
        [Permutation(table.columns[g]) for g in table.small_generating_set()],
        domain_size=table.order,
    )
    built = []
    validate = GroupTable.__post_init__

    def counted(self):
        built.append(self.order)
        validate(self)

    monkeypatch.setattr(GroupTable, "__post_init__", counted)
    assert table.abelian_invariants() == (2, 4, 8)
    from_table = len(built)
    assert permgroup.abelian_invariants(regular) == (2, 4, 8)
    assert (from_table, len(built) - from_table) == (0, 0)


def test_abelian_group_tables_catalog():
    names = [name for name, _ in abelian_group_tables(6)]
    assert names == ["Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6"]
    for name, table in abelian_group_tables(6):
        assert table.is_abelian
    assert len(abelian_group_tables(12)) == 17


def test_small_generating_set_generates():
    for table in (cyclic_table(12), abelian_table((2, 2, 3)),
                  symmetric_table(4), quaternion_table()):
        gens = table.small_generating_set()
        assert table.subgroup_closure(gens) == tuple(range(table.order))


def test_quotient_by_requires_normal_subgroup():
    s3 = symmetric_table(3)
    quotient, coset_of = s3.quotient_by(s3.commutator_subgroup())
    assert quotient.order == 2
    assert coset_of[s3.identity] == quotient.identity
    assert quotient.abelian_invariants() == (2,)
    flip = next(g for g in range(6) if s3.order_of(g) == 2)
    with pytest.raises(NotAGroup):
        s3.quotient_by((s3.identity, flip))


def test_quotient_by_trivial_subgroup_is_the_table(monkeypatch, capsys):
    s3 = symmetric_table(3)
    quotient, coset_of = s3.quotient_by((s3.identity,))
    assert quotient is s3
    assert coset_of == tuple(range(6))
    with pytest.raises(NotAGroup):
        s3.quotient_by((1,))

    built = []
    validate = GroupTable.__post_init__

    def counted(self):
        built.append(self.order)
        validate(self)

    monkeypatch.setattr(GroupTable, "__post_init__", counted)
    assert main(["construct", "--group", "Z11"]) == 0
    capsys.readouterr()
    # Only the spec's table: the abelianization of Z11 is Z11 itself, which
    # was a second, revalidated copy of the table.
    assert built == [11]


def test_group_from_spec():
    name, table = group_from_spec("Z4")
    assert name == "Z4" and table.order == 4
    name, table = group_from_spec("Z2xZ2")
    assert table.abelian_invariants() == (2, 2)
    name, table = group_from_spec("S3")
    assert table.order == 6 and not table.is_abelian
    name, table = group_from_spec("Q8")
    assert table.order == 8
    name, table = group_from_spec("Z2xZ3")
    assert table.abelian_invariants() == (6,)
    for bad in ("", "Z0", "K5", "Z2x", "S6"):
        with pytest.raises(ValueError):
            group_from_spec(bad)


def test_parse_group_spec_predicts_without_building_a_table(monkeypatch):
    def refuse(self):
        raise AssertionError("a table was built while parsing the spec")

    monkeypatch.setattr(GroupTable, "__post_init__", refuse)
    for text, order, abelian in (
        ("Z2000", 2000, True), ("S2xZ3", 6, True), ("S3", 6, False),
        ("Q8", 8, False), ("S4xZ1000", 24000, False),
        ("Z2xZ2xZ2", 8, True),
    ):
        spec = parse_group_spec(text)
        assert (spec.name, spec.order, spec.is_abelian) == (
            text, order, abelian
        )
    # Every token is checked before any table, in token order.
    for bad, message in (("Z2000x", "cannot parse group spec token ''"),
                         ("Z0xK5", "cyclic order must be positive"),
                         ("Z7xS6", "symmetric groups are supported")):
        with pytest.raises(ValueError, match=message):
            parse_group_spec(bad)


def test_group_spec_table_matches_its_prediction():
    for text in ("Z1", "Z4", "S1xZ3", "S2", "S3", "Q8", "Z2xS3", "Z2xZ4"):
        spec = parse_group_spec(text)
        table = spec.table()
        assert table.order == spec.order
        assert table.is_abelian == spec.is_abelian
        assert group_from_spec(text) == (text, table)


def test_validate_ade():
    for good in ("A1", "A8", "A12", "D4", "D9", "D10", "E6", "E7", "E8"):
        validate_ade(good)
    for bad in ("A0", "D3", "E5", "E9", "B2", "a1", ""):
        with pytest.raises(ValueError):
            validate_ade(bad)
