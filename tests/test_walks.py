"""The closure walk, the greedy-generator rule, the coset numbering and the
coset table shared by every group representation (``tables._closure``,
``_greedy_generators``, ``_number_cosets`` and ``_coset_table``), checked
against the per-representation loops they replaced, kept here as reference
copies, and against a closure by ``*``: the walks compose permutations
through right-multiplication maps on plain image tuples, and every element
they hand out must still be a ``Permutation``."""
import itertools
from math import prod

from hypothesis import given, settings, strategies as st
import pytest

from hilb2 import fpgroup, permgroup
from hilb2.errors import CapExceeded, HomomorphismFailure
from hilb2.fpgroup import (
    AbelianInvariants,
    AbelianSubgroup,
    smith_invariant_factors,
    subgroups_of_abelian,
)
from hilb2.monodromy import cover_from_subgroup
from hilb2.permgroup import Group, Permutation
from hilb2.tables import (
    GroupTable,
    _closure,
    _number_cosets,
    abelian_group_tables,
    direct_product,
    quaternion_table,
    symmetric_table,
)


# --- reference copies -------------------------------------------------------

def reference_subgroup_closure(table: GroupTable, seed) -> tuple[int, ...]:
    """Closure under products with every member on both sides."""
    members = {table.identity} | set(seed)
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        for g in members.copy():
            for y in (table.table[x][g], table.table[g][x]):
                if y not in members:
                    members.add(y)
                    frontier.append(y)
    return tuple(sorted(members))


def reference_table_generators(table: GroupTable) -> tuple[int, ...]:
    """The greedy rule stated through the reference closure."""
    gens: list[int] = []
    for x in range(table.order):
        if x not in reference_subgroup_closure(table, gens):
            gens.append(x)
    return tuple(gens)


def reference_quotient_by(table: GroupTable, sub):
    """The index-array coset loop of ``GroupTable.quotient_by``."""
    coset_of = [-1] * table.order
    reps = []
    for e in range(table.order):
        if coset_of[e] != -1:
            continue
        k = len(reps)
        reps.append(e)
        for m in sub:
            coset_of[table.table[e][m]] = k
    rows = tuple(
        tuple(coset_of[table.table[reps[i]][reps[j]]]
              for j in range(len(reps)))
        for i in range(len(reps))
    )
    return rows, tuple(coset_of)


def reference_small_generating_set(element_list, domain_size):
    """Greedy generators by a fresh ``generate`` for every new one."""
    gens: list[Permutation] = []
    sub = {Permutation.identity(domain_size)}
    for x in element_list:
        if x not in sub:
            gens.append(x)
            sub = permgroup.generate(gens, domain_size=domain_size,
                                     cap=max(len(element_list), 1)).elements
    return tuple(gens)


def reference_quotient_table(group: Group, normal_sub: Group):
    """The dictionary coset loop of ``permgroup.quotient_table``."""
    reps: list[Permutation] = []
    coset_of: dict[Permutation, int] = {}
    for e in group.element_list:
        if e in coset_of:
            continue
        k = len(reps)
        reps.append(e)
        for m in normal_sub.element_list:
            coset_of[e * m] = k
    size = len(reps)
    rows = tuple(
        tuple(coset_of[reps[i] * reps[j]] for j in range(size))
        for i in range(size)
    )
    return rows, coset_of, tuple(reps)


def reference_right_cosets(group: Group, sub: Group):
    """The right-coset loop of ``monodromy.cover_from_subgroup``."""
    coset_of: dict[Permutation, int] = {}
    reps: list[Permutation] = []
    for x in group.element_list:
        if x in coset_of:
            continue
        k = len(reps)
        reps.append(x)
        for m in sub.element_list:
            coset_of[m * x] = k
    return coset_of, reps


def reference_subgroups_of_abelian(moduli):
    """``subgroups_of_abelian`` with its own depth-first closure and Smith
    forms: each record, sorted by order and element list, with the
    elements, generators and invariants it must read lazily."""
    total = prod(moduli)
    zero = (0,) * len(moduli)

    def add(u, v):
        return tuple((a + b) % m for a, b, m in zip(u, v, moduli))

    def closure(gens) -> tuple:
        members = {zero}
        frontier = [zero]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = add(x, g)
                if y not in members:
                    members.add(y)
                    frontier.append(y)
        return tuple(sorted(members))

    def factors(matrix) -> tuple[int, ...]:
        return tuple(d for d in smith_invariant_factors(matrix) if d > 1)

    out = []
    for basis, coords in fpgroup._hermite_bases(moduli):
        reduced = (tuple(v % m for v, m in zip(row, moduli)) for row in basis)
        gens = tuple(row for row in reduced if row != zero)
        elements = closure(gens)
        quotient = AbelianInvariants(rank=0, torsion=factors(basis))
        assert len(elements) * quotient.order == total
        record = AbelianSubgroup(moduli, basis, coords, len(elements),
                                 quotient)
        out.append((record, elements, gens, factors(coords)))
    out.sort(key=lambda row: (row[0].order, row[1]))
    return out


# --- groups -----------------------------------------------------------------

def table_corpus():
    tables = [(name, table) for name, table in abelian_group_tables(24)]
    s3, q8 = symmetric_table(3), quaternion_table()
    return tables + [("S3", s3), ("S4", symmetric_table(4)), ("Q8", q8),
                     ("S3xQ8", direct_product(s3, q8))]


TABLES = table_corpus()


def realized(text):
    table = fpgroup.coset_enumeration(fpgroup.parse_presentation(text))
    return fpgroup.permutation_realization(table)


def permutation_corpus():
    s5 = permgroup.generate(
        (Permutation((1, 0, 2, 3, 4)), Permutation((1, 2, 3, 4, 0))))
    a5_z2 = realized("< a b c | a^2, b^3, a b a b a b a b a b, c^2, "
                     "a c a^-1 c^-1, b c b^-1 c^-1 >")
    d12 = realized("< r s | r^12, s^2, s r s r >")
    z2_5 = permgroup.generate(
        [Permutation.from_cycles(10, [(2 * i, 2 * i + 1)]) for i in range(5)])
    return {"S5": s5, "A5xZ2": a5_z2, "D12": d12, "Z2^5": z2_5}


GROUPS = permutation_corpus()


# --- tables -----------------------------------------------------------------

def seeds(order):
    """Every single element, and every pair on tables of order at most 12
    (consecutive pairs above that)."""
    yield from ([x] for x in range(order))
    if order <= 12:
        yield from itertools.combinations(range(order), 2)
    else:
        yield from ((x, (x + 1) % order) for x in range(order))


@pytest.mark.parametrize("name,table", TABLES, ids=[n for n, _ in TABLES])
def test_table_walks_match_the_reference_loops(name, table):
    assert table.small_generating_set() == reference_table_generators(table)
    for seed in seeds(table.order):
        assert table.subgroup_closure(seed) == \
            reference_subgroup_closure(table, seed), (name, seed)
    cyclic = {table.subgroup_closure([x]) for x in range(table.order)}
    normal = [sub for sub in cyclic | {table.commutator_subgroup()}
              if all(table.mul(table.mul(g, m), table.inv(g)) in sub
                     for g in range(table.order) for m in sub)]
    assert table.commutator_subgroup() in normal
    for sub in normal:
        quotient, coset_of = table.quotient_by(sub)
        if len(sub) > 1:
            assert (quotient.table, coset_of) == \
                reference_quotient_by(table, sub), (name, sub)


# --- permutations -----------------------------------------------------------

@pytest.mark.parametrize("name", list(GROUPS))
def test_permutation_walks_match_the_reference_loops(name):
    group = GROUPS[name]
    elements = group.element_list
    assert permgroup.small_generating_set(elements, group.domain_size) == \
        reference_small_generating_set(elements, group.domain_size)
    trivial = Group.trivial(group.domain_size)
    for sub in (trivial, permgroup.commutator_subgroup(group), group):
        table, coset_of, reps = permgroup.quotient_table(group, sub)
        assert (table.table, coset_of, reps) == \
            reference_quotient_table(group, sub), name


@pytest.mark.parametrize("name", list(GROUPS))
def test_right_coset_covers_match_the_reference_loop(name):
    group = GROUPS[name]
    n = group.domain_size
    subs = [Group.trivial(n), permgroup.commutator_subgroup(group), group] + [
        permgroup.generate((x,), domain_size=n) for x in group.generators]
    normal = []
    for sub in subs:
        coset_of, reps = reference_right_cosets(group, sub)
        assert _number_cosets(group.element_list, sub.element_list,
                              permgroup._right_multiplication) == \
            (coset_of, reps)
        # The cover is read off that numbering: labels, monodromy and deck.
        cover = cover_from_subgroup(group, sub)
        degree = len(reps)
        assert cover.total_points == tuple(f"c{i}" for i in range(degree))
        monodromy = permgroup.generate(
            [Permutation(tuple(coset_of[r * x] for r in reps))
             for x in group.generators], domain_size=degree)
        assert cover.monodromy.generators == monodromy.generators
        assert cover.monodromy.elements == monodromy.elements
        assert cover.deck_group.elements == {
            Permutation(tuple(coset_of[x * r] for r in reps))
            for x in permgroup.normalizer(group, sub).element_list}
        normal.append(cover.galois)
    assert all(normal) == (name == "Z2^5")


@pytest.mark.parametrize("name,count", [("S5", 566), ("Z2^5", 258),
                                        ("D12", 60)])
def test_greedy_generators_compose_as_before(name, count, compositions):
    group = GROUPS[name]
    elements, n = group.element_list, group.domain_size
    compositions.count = 0
    gens = permgroup.small_generating_set(elements, n)
    assert compositions.count == count
    compositions.count = 0
    assert reference_small_generating_set(elements, n) == gens
    assert compositions.count == count


def test_closure_cap_refuses_at_the_same_point():
    cycle = Permutation(tuple((x + 1) % 12 for x in range(12)))
    with pytest.raises(CapExceeded,
                       match="^group closure exceeded cap of 11 elements$"):
        permgroup.generate((cycle,), cap=11)
    assert permgroup.generate((cycle,), cap=12).order == 12
    members = _closure([0], [lambda a: (a + 1) % 12])
    assert members == list(range(12))
    with pytest.raises(CapExceeded):
        _closure([0], [lambda a: (a + 1) % 12], 11)


def test_certified_order_still_checked_through_the_shared_walk():
    cycle = Permutation(tuple((x + 1) % 12 for x in range(12)))
    for wrong in (6, 24):
        group = Group(12, (cycle,), wrong)
        with pytest.raises(HomomorphismFailure,
                           match="^the generators do not close to the "
                                 f"certified order {wrong}$"):
            group.elements


# --- the permutation type boundary -----------------------------------------

def mul_closure(gens, n) -> list:
    """Closure by right multiplication with ``*``, in the order reached."""
    members = [Permutation.identity(n)]
    seen = set(members)
    for x in members:
        for g in gens:
            y = x * g
            if y not in seen:
                seen.add(y)
                members.append(y)
    return members


def assert_closed_permutations(group: Group) -> None:
    """Every generator and element is a ``Permutation``, and the elements
    are the ``*`` closure of the generators."""
    for x in group.generators + group.element_list:
        assert type(x) is Permutation
    oracle = mul_closure(group.generators, group.domain_size)
    assert group.element_list == tuple(sorted(oracle))


def check_type_boundary(gens, n) -> None:
    group = permgroup.generate(gens, domain_size=n)
    oracle = mul_closure(group.generators, n)
    # The walk on right-multiplication maps reaches what ``*`` reaches, in
    # the same order.
    steps = list(map(permgroup._right_multiplication, group.generators))
    assert _closure([Permutation.identity(n)], steps) == oracle
    certified = Group(n, group.generators, len(oracle))
    derived = permgroup.commutator_subgroup(group)
    groups = [group, certified, derived,
              permgroup.group_from_elements(n, oracle),
              *(permgroup.normal_closure(group, (g,))
                for g in group.generators)]
    if group.order <= 24:
        groups.extend(permgroup.subgroups(group))
    for each in groups:
        assert_closed_permutations(each)
    assert certified.elements == group.elements
    table, coset_of, reps = permgroup.quotient_table(group, derived)
    assert (table.table, coset_of, reps) == \
        reference_quotient_table(group, derived)
    for x in reps + tuple(coset_of):
        assert type(x) is Permutation


@st.composite
def block_generators(draw):
    """Up to three permutations of at most 8 points, each permuting the
    points of every block of ``size`` consecutive points among themselves,
    so that the group they generate has at most 5!·3! = 720 elements."""
    n = draw(st.integers(1, 8))
    size = draw(st.integers(1, 5))
    blocks = [list(range(start, min(start + size, n)))
              for start in range(0, n, size)]
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        images = []
        for block in blocks:
            images.extend(draw(st.permutations(block)))
        gens.append(Permutation(tuple(images)))
    return n, gens


@settings(max_examples=60, deadline=None)
@given(block_generators())
def test_walks_make_permutations_as_the_product_closure_does(case):
    n, gens = case
    check_type_boundary(gens, n)


@pytest.mark.parametrize("name", list(GROUPS))
def test_corpus_walks_make_permutations_as_the_product_closure_does(name):
    group = GROUPS[name]
    check_type_boundary(group.generators, group.domain_size)


# --- exponent vectors -------------------------------------------------------

@pytest.mark.parametrize("moduli", [(2, 2, 2, 2), (2, 4, 8), (3, 9)], ids=str)
def test_abelian_subgroup_records_match_the_reference(moduli):
    subs = subgroups_of_abelian(AbelianInvariants(0, moduli))
    want = reference_subgroups_of_abelian(moduli)
    assert subs == tuple(record for record, *_ in want)
    assert [(s.elements, s.generators, s.invariants) for s in subs] == \
        [tuple(lazy) for _, *lazy in want]
