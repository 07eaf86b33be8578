"""Multiplication-table groups: constructors, invariants, quotients."""
from hypothesis import given, settings, strategies as st
import pytest

from hilb2.cli import main
from hilb2.errors import NotAGroup
from hilb2.tables import (
    GroupTable,
    abelian_group_tables,
    abelian_table,
    cyclic_table,
    direct_product,
    group_from_spec,
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


def test_abelian_table_and_invariants():
    assert abelian_table(()).order == 1
    assert abelian_table((2, 4)).abelian_invariants() == (2, 4)
    assert abelian_table((2, 3)).abelian_invariants() == (6,)
    assert abelian_table((2, 2, 2)).abelian_invariants() == (2, 2, 2)
    assert cyclic_table(12).abelian_invariants() == (12,)
    assert cyclic_table(1).abelian_invariants() == ()


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


def test_validate_ade():
    for good in ("A1", "A8", "A12", "D4", "D9", "D10", "E6", "E7", "E8"):
        validate_ade(good)
    for bad in ("A0", "D3", "E5", "E9", "B2", "a1", ""):
        with pytest.raises(ValueError):
            validate_ade(bad)
