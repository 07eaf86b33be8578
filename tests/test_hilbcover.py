"""The squared-model construction: symmetric quotients, the three
symmetry groups of the square, fiber laws, diagonal copies, and the
induced cover of the Hilbert square."""
from dataclasses import fields, replace
import functools
import itertools
from pathlib import Path
import subprocess
import sys
import tracemalloc

from hypothesis import given, settings, strategies as st
import pytest

import hilb2
from hilb2 import cli, hilbcover, permgroup
from hilb2.descriptors import CoverDescriptor
from hilb2.errors import (
    CapExceeded,
    EmptyBase,
    HomomorphismFailure,
    NonAbelianDeckGroup,
    NotAGroup,
    NotGalois,
    UnknownPoint,
)
from hilb2.hilbcover import (
    SymPoint,
    SymQuotient,
    build_construction,
    diagonal_components,
    fixed_components,
    free_gset,
    hilb_square_cover,
    square_cover,
    symmetric_quotient,
)
from hilb2.monodromy import cover_from_subgroup
from hilb2.permgroup import Permutation
from hilb2.tables import (
    GroupTable,
    abelian_group_tables,
    abelian_table,
    cyclic_table,
    quaternion_table,
    symmetric_table,
)


def build(table, base):
    return build_construction(free_gset(table, base))


@functools.cache
def transversal_index(n):
    return {frozenset((z, n + w)): z * n + w
            for z in range(n) for w in range(n)}


def rho(x, n):
    """Test-local square action of a permutation of Z ⊔ Z that maps copies
    onto copies: the pair (z, w) is the two-point set {z, n + w}."""
    index = transversal_index(n)
    return Permutation(tuple(
        index[frozenset((x(z), x(n + w)))]
        for z in range(n) for w in range(n)
    ))


def sign(x, n):
    """-1 if x exchanges the two copies of Z ⊔ Z, 1 if it keeps them."""
    return 1 if set(x.images[:n]) == set(range(n)) else -1


def assert_sign_splits(c):
    """The sign splits on the pair group: |J| = 2 d^2, its copy-keeping
    half has order d^2, and the swap exchanges the copies and squares to
    the identity."""
    d, n = c.d, c.gset.size
    assert len(c.pair_group) == 2 * d * d
    assert sum(sign(x, n) == 1 for x in c.pair_group) == d * d
    assert sign(c.swap, n) == -1
    assert (c.swap * c.swap).is_identity


def translations(gset):
    """The sheet translations (h, b) -> (g h, b) for every g, read off the
    rows of the table as the build reads them."""
    return [hilbcover._left_translation(gset.group, len(gset.base), g)
            for g in range(gset.group.order)]


def slot_maps(c):
    """The second-slot maps pair(e, g) of ``c``, in g order."""
    e = c.gset.group.identity
    return [c.model.vector((e, g)) for g in range(c.d)]


def antidiagonal_maps(c):
    """The antidiagonal maps pair(g, g^-1) of ``c``, in g order."""
    return [c.model.vector((g, c.gset.group.inv(g))) for g in range(c.d)]


def marker_square_action(c):
    """The pair group on the square as the marker-point model listed it:
    every (z, w) -> (g1.z, g.w) and its composite with the swap."""
    n, d = c.gset.size, c.d
    tr = translations(c.gset)
    maps = set()
    for g1 in range(d):
        for g in range(d):
            maps.add(Permutation(tuple(
                tr[g1][z] * n + tr[g][w] for z in range(n) for w in range(n)
            )))
            maps.add(Permutation(tuple(
                tr[g][w] * n + tr[g1][z] for z in range(n) for w in range(n)
            )))
    return maps


def test_sym_points_and_labels():
    sym = symmetric_quotient(("a", "b"))
    assert [p.label for p in sym.points] == ["2a", "a+b", "2b"]
    assert sym.points[0].is_diagonal
    assert not sym.points[1].is_diagonal
    assert sym.index_of("a+b") == 1
    assert sym.index_of(SymPoint("b", "b")) == 2
    with pytest.raises(UnknownPoint):
        sym.index_of("2c")
    assert len(symmetric_quotient(("a", "b", "c")).points) == 6
    with pytest.raises(ValueError):
        SymQuotient(("a", "b"), (SymPoint("a", "a"),))


def test_free_gset_validation():
    with pytest.raises(EmptyBase):
        free_gset(cyclic_table(2), ())
    with pytest.raises(ValueError):
        free_gset(cyclic_table(2), ("a", "a"))
    gset = free_gset(cyclic_table(2), ("a", "b"))
    assert gset.size == 4
    assert gset.labels == ("a", "b", "a.1", "b.1")
    assert translations(gset)[1] == (2, 3, 0, 1)


@pytest.mark.parametrize("group, base, error, message", [
    (cyclic_table(2).table, ("a",), TypeError,
     "the group of a GSet must be a GroupTable"),
    (cyclic_table(2), (), EmptyBase, "the base needs at least one point"),
    (cyclic_table(2), ("a", "a"), ValueError, "duplicate base labels"),
])
def test_every_gset_is_over_a_table_and_distinct_labels(group, base, error,
                                                         message):
    # GSet itself refuses, so free_gset only builds one and the table's
    # axioms are in force for every sheet action.
    with pytest.raises(error, match=f"^{message}$"):
        hilbcover.GSet(group, base)
    with pytest.raises(error, match=f"^{message}$"):
        free_gset(group, base)


def test_a_nonassociative_loop_is_no_table():
    # A Latin square with a two-sided identity in which every element is
    # its own inverse, which no group of order 5 allows: only Light's test
    # refuses it, so no GSet, and no sheet action, is built over it.
    loop = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
    with pytest.raises(NotAGroup,
                       match=r"^associativity fails at \(1, 1, 2\)$"):
        replace(cyclic_table(5), table=loop)


def test_two_sheet_model_frozen_values():
    c = build(cyclic_table(2), ("a",))
    assert c.d == 2 and c.gset.size ** 2 == 4
    assert len(c.pair_group) == 8
    assert len(c.diagonal_group) == 4
    assert len(c.antidiagonal_group) == 4
    assert c.antidiagonal_group.elements == c.diagonal_group.elements
    assert c.diagonal_copies == ((0, 3), (1, 2))
    assert c.sym_fibers == ((0, 1, 2, 3),)
    assert c.diagonal_orbit_fibers == (((0, 3), (1, 2)),)
    assert c.antidiagonal_orbit_fibers == (((0, 3), (1, 2)),)
    assert fixed_components(c) == frozenset({0, 1})


def test_two_point_base_fiber_sizes():
    c = build(cyclic_table(2), ("a", "b"))
    assert [len(f) for f in c.sym_fibers] == [4, 8, 4]
    assert [len(f) for f in c.diagonal_orbit_fibers] == [2, 2, 2]
    assert c.sym.index_of("a+b") == 1
    assert c.sym.index_of(SymPoint("a", "a")) == 0
    with pytest.raises(UnknownPoint):
        c.sym.index_of("2c")


def test_three_sheet_model_distinguishes_the_two_subgroups():
    c = build(cyclic_table(3), ("a",))
    # Swap-plus-diagonal orbits: the two inverse translation classes merge,
    # leaving 2 orbits instead of 3.
    assert c.diagonal_orbit_fibers == (((0, 4, 8), (1, 2, 3, 5, 6, 7)),)
    # Swap-plus-antidiagonal orbits: the slot product separates all 3
    # classes, so the intermediate quotient has constant degree 3.
    assert c.antidiagonal_orbit_fibers == \
        (((0, 5, 7), (1, 3, 8), (2, 4, 6)),)
    assert [p.label for p in c.sym.points] == ["2a"]
    assert not permgroup.is_normal(c.diagonal_group, c.pair_group)
    assert permgroup.is_normal(c.antidiagonal_group, c.pair_group)
    assert fixed_components(c) == frozenset({0})


def test_orbit_count_laws_across_group_types():
    cases = [
        (cyclic_table(1), ("a",)),
        (cyclic_table(1), ("a", "b")),
        (cyclic_table(2), ("a",)),
        (cyclic_table(4), ("a", "b")),
        (cyclic_table(5), ("a",)),
        (cyclic_table(6), ("a",)),
        (abelian_table((2, 2)), ("a",)),
        (abelian_table((2, 4)), ("a",)),
        (symmetric_table(3), ("a", "b")),
        (quaternion_table(), ("a",)),
    ]
    for table, base in cases:
        c = build(table, base)
        d = table.order
        t = sum(1 for g in range(d) if table.mul(g, g) == table.identity)
        ab_order = d // len(table.commutator_subgroup())
        assert c.swap.domain_size == 2 * c.gset.size
        fixed_components(c)
        # The build certifies |J| and never lists J; the oracle below
        # closes it on demand, which checks the certified order.
        assert "elements" not in c.pair_group.__dict__
        assert_sign_splits(c)
        assert {rho(x, c.gset.size) for x in c.pair_group} \
            == marker_square_action(c)
        for i, point in enumerate(c.sym.points):
            assert len(c.sym_fibers[i]) == \
                (d * d if point.is_diagonal else 2 * d * d)
            assert len(c.diagonal_orbit_fibers[i]) == \
                ((d + t) // 2 if point.is_diagonal else d)
            assert len(c.antidiagonal_orbit_fibers[i]) == ab_order


def test_subgroup_orders_and_normality():
    s3 = build(symmetric_table(3), ("a",))
    assert len(s3.pair_group) == 72
    assert len(s3.diagonal_group) == 12
    assert len(s3.antidiagonal_group) == 36
    assert not permgroup.is_normal(s3.diagonal_group, s3.pair_group)
    assert permgroup.is_normal(s3.antidiagonal_group, s3.pair_group)
    v4 = build(abelian_table((2, 2)), ("a",))
    assert v4.antidiagonal_group.elements == v4.diagonal_group.elements
    assert permgroup.is_normal(v4.diagonal_group, v4.pair_group)
    # One sheet over one point: the square has one point, but Z ⊔ Z has
    # two, so the swap stays nontrivial.
    z1 = build(cyclic_table(1), ("a",))
    assert len(z1.pair_group) == 2
    assert len(z1.antidiagonal_group) == 2
    assert_sign_splits(z1)


def test_sign_splits_with_kernel_the_pair_translations():
    # The copy-keeping half is the injective image of G x G: g1's
    # translation on the first copy and g's on the second, for all d^2
    # pairs (g1, g); the swap splits the sign.  Also for a nonabelian G.
    for table, base in ((cyclic_table(2), ("a", "b")),
                        (symmetric_table(3), ("a",))):
        c = build(table, base)
        assert_sign_splits(c)
        n, tr = c.gset.size, translations(c.gset)
        assert {x for x in c.pair_group if sign(x, n) == 1} == {
            Permutation(tr[g1] + tuple(n + t for t in tr[g]))
            for g1 in range(c.d) for g in range(c.d)
        }


def test_diagonal_components_and_fixers():
    c = build(cyclic_table(4), ("a", "b"))
    components = diagonal_components(c)
    assert sorted(components) == [0, 1, 2, 3]
    seen = set()
    for g, block in components.items():
        assert len(block) == c.gset.size
        assert not (set(block) & seen)
        seen |= set(block)
    assert fixed_components(c) == frozenset({0, 2})
    assert fixed_components(build(quaternion_table(), ("a",))) \
        == frozenset({0, 1})
    assert fixed_components(build(abelian_table((2, 2)), ("a",))) \
        == frozenset({0, 1, 2, 3})


def regular_cover(table):
    mul = table.mul
    gens = tuple(
        Permutation(tuple(mul(g, x) for x in range(table.order)))
        for g in table.small_generating_set()
    )
    group = permgroup.generate(gens, domain_size=max(table.order, 1))
    return cover_from_subgroup(group, permgroup.Group.trivial(group.domain_size))


def test_hilb_square_cover_of_a_double_cover():
    cover = regular_cover(cyclic_table(2))
    squared = hilb_square_cover(cover)
    assert squared.degree == 2
    assert squared.galois
    assert len(squared.total_points) == 2
    assert squared.center_labels == squared.total_points
    assert len(squared.deck_group) == 2
    assert squared.base_label.startswith("Hilb2(")


def test_hilb_square_cover_of_a_triple_cover():
    squared = hilb_square_cover(regular_cover(cyclic_table(3)))
    assert squared.degree == 3
    assert len(squared.total_points) == 3
    assert squared.center_labels == squared.total_points
    assert permgroup.abelian_invariants(squared.deck_group) == (3,)
    orbit = permgroup.orbits(squared.deck_group)
    assert len(orbit) == 1 and len(orbit[0]) == 3


def test_hilb_square_cover_rejects_bad_inputs():
    s3 = permgroup.generate(
        (Permutation((1, 0, 2)), Permutation((1, 2, 0))), domain_size=3
    )
    flip = permgroup.generate((Permutation((1, 0, 2)),), domain_size=3)
    with pytest.raises(NotGalois):
        hilb_square_cover(cover_from_subgroup(s3, flip))
    with pytest.raises(NonAbelianDeckGroup,
                       match=f"^{hilbcover._NONABELIAN_DECK}$"):
        hilb_square_cover(regular_cover(symmetric_table(3)))
    with pytest.raises(NonAbelianDeckGroup,
                       match=f"^{hilbcover._NONABELIAN_DECK}$"):
        square_cover(free_gset(symmetric_table(3), ("a",)), "X")


def test_hilb_square_cover_rejects_a_deck_group_with_fixed_sheets():
    flip = permgroup.generate((Permutation((1, 0, 2)),), domain_size=3)
    cover = CoverDescriptor(base_label="X", total_points=("p", "q", "r"),
                            monodromy=flip, degree=3, deck_group=flip,
                            galois=True)
    with pytest.raises(NotGalois, match="does not act freely"):
        hilb_square_cover(cover)


def test_hilb_square_cover_names_a_nonabelian_deck_group_first():
    # S3 on three points is nonabelian and fixes sheets: the abelian
    # check comes before the freeness check, so it names the first.
    s3 = permgroup.generate(
        (Permutation((1, 0, 2)), Permutation((1, 2, 0))), domain_size=3
    )
    cover = CoverDescriptor(base_label="X", total_points=("p", "q", "r"),
                            monodromy=s3, degree=3, deck_group=s3,
                            galois=True)
    with pytest.raises(NonAbelianDeckGroup,
                       match=f"^{hilbcover._NONABELIAN_DECK}$"):
        hilb_square_cover(cover)


def test_deck_orbits_of_a_cover_have_distinct_smallest_labels():
    # Orbits {0, 1} and {2, 3} would both be labeled "a"; the descriptor
    # refuses repeated sheet labels, so no cover reaches
    # hilb_square_cover with two deck orbits sharing a smallest label.
    halves = permgroup.generate((Permutation((1, 0, 3, 2)),), domain_size=4)
    with pytest.raises(ValueError, match="duplicate sheet labels"):
        CoverDescriptor(base_label="X", total_points=("a", "b", "a", "c"),
                        monodromy=halves, degree=2, deck_group=halves,
                        galois=True)


def reference_pair_image(images, n, k):
    """rho(x)(k) for the pair index k, read from x's images on Z ⊔ Z."""
    z, w = divmod(k, n)
    a, b = images[z], images[n + w]
    return a * n + b - n if a < n else b * n + a - n


def reference_deck_maps(c):
    """The sheet labels, the center labels and the deck permutation of
    every g, as the deck side read them before the table did: each slot
    map read at every orbit leader through the pair image, the orbits
    numbered from the bucketed fibers."""
    total, center, leaders = [], [], []
    orbit_of_point = {}
    for i, p in enumerate(c.sym.points):
        for k, orbit in enumerate(c.antidiagonal_orbit_fibers[i]):
            label = f"{p.label}#{k}"
            orbit_of_point.update(dict.fromkeys(orbit, len(total)))
            leaders.append(orbit[0])
            total.append(label)
            if p.is_diagonal:
                center.append(label)
    n = c.gset.size
    deck = [
        Permutation(tuple(
            orbit_of_point[reference_pair_image(mover.images, n, k)]
            for k in leaders
        ))
        for mover in slot_maps(c)
    ]
    return tuple(total), tuple(center), deck


def reference_deck_side(c):
    """The geometric deck side: the reference deck maps, with the deck
    group's generators closed over the sorted permutations."""
    total, center, deck = reference_deck_maps(c)
    return total, center, permgroup.group_from_elements(len(total), deck)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_deck_side_matches_the_pair_image_reading(size):
    base = ("a", "b", "c")[:size]
    for _, table in abelian_group_tables(12):
        gset = free_gset(table, base)
        total, center, group = reference_deck_side(build_construction(gset))
        cover = square_cover(gset, "X")
        assert cover.total_points == total
        assert cover.center_labels == center
        assert cover.deck_group.elements == group.elements
        assert cover.deck_group.generators == group.generators
        assert cover.monodromy is cover.deck_group


IMPLIED_LAW_CASES = [
    (name, table, base)
    for name, table in abelian_group_tables(12)
    for base in (("a",), ("a", "b"))
]


@pytest.mark.parametrize(
    "table, base", [case[1:] for case in IMPLIED_LAW_CASES],
    ids=[f"{name}-b{len(base)}" for name, _, base in IMPLIED_LAW_CASES],
)
def test_the_laws_the_checks_imply_hold_by_exhaustion(table, base):
    # What the slot-product law and the validated table imply, with no
    # check of its own, restated over every element: H is normal in J,
    # each of H's swap members fixes its diagonal copy, and the deck
    # action read geometrically is a faithful homomorphism (its image is
    # square_cover's deck group, see
    # test_deck_side_matches_the_pair_image_reading).
    c = build(table, base)
    n, d, mul = c.gset.size, c.d, table.mul
    anti, pair = c.antidiagonal_group, c.pair_group
    assert permgroup.is_normal(anti, pair)
    assert all(a * h * a.inverse() in anti for a in pair for h in anti)
    for tr in translations(c.gset):
        fixer = anti.member_at(n + tr[0])
        assert fixer in anti and sign(fixer, n) == -1
        square = rho(fixer, n).images
        assert all(square[z * n + tr[z]] == z * n + tr[z] for z in range(n))
    _, _, deck = reference_deck_maps(c)
    for g, h in itertools.product(range(d), repeat=2):
        assert deck[g] * deck[h] == deck[mul(g, h)]
    assert len(set(deck)) == d


def test_sheets_are_numbered_by_smallest_member():
    # Over one point, labels 1, 0, 2 first occur at pairs 0, 1, 2, so they
    # are sheets 0, 1, 2; the reversed labels would meet 2 first.
    sheet_of = hilbcover._sheets([1, 0, 2, 0, 1, 2], 3)
    assert list(sheet_of.items()) == [(1, 0), (0, 1), (2, 2)]
    # Two points: point 0's labels first, each point's by first occurrence.
    sheet_of = hilbcover._sheets([3, 1, 0, 4, 5, 2], 3)
    assert list(sheet_of.items()) == [(1, 0), (0, 1), (2, 2), (3, 3), (4, 4),
                                      (5, 5)]


@pytest.mark.parametrize("table, base", [
    (cyclic_table(3), ("a",)), (cyclic_table(5), ("a", "b")),
    (abelian_table((2, 4)), ("a", "b", "c")), (cyclic_table(12), ("a", "b")),
])
def test_sheet_k_is_the_orbit_with_the_kth_smallest_member(table, base):
    c = build(table, base)
    labels = c.antidiagonal_labels
    sheet_of = hilbcover._sheets(labels, c.d)
    orbits = [orbit for fibers in c.antidiagonal_orbit_fibers
              for orbit in fibers]
    assert list(sheet_of) == [labels[orbit[0]] for orbit in orbits]
    for k, orbit in enumerate(orbits):
        assert {sheet_of[labels[pair]] for pair in orbit} == {k}


RELABELLED_TABLES = [table for _, table in abelian_group_tables(8)] + [
    symmetric_table(3)]


def relabel(table, sigma):
    """The table with element a renamed sigma[a]; its identity is
    sigma[e], wherever that falls."""
    n = table.order
    rows = [[0] * n for _ in range(n)]
    for a, row in enumerate(table.table):
        for b, ab in enumerate(row):
            rows[sigma[a]][sigma[b]] = sigma[ab]
    return GroupTable(tuple(map(tuple, rows)))


def labelling_invariants(table, base):
    """What must not depend on how the group and the base are written
    down: the build's group orders, fiber sizes, orbit counts, copy sizes
    and fixed-copy count, and, for abelian G, the cover's degree, center
    count and deck invariants."""
    c = build(table, base)
    found = (
        len(c.pair_group), len(c.diagonal_group), len(c.antidiagonal_group),
        c.xi_fiber_sizes, c.antidiagonal_orbit_counts,
        tuple(map(len, c.diagonal_orbit_fibers)),
        tuple(map(len, c.diagonal_copies)), len(fixed_components(c)),
    )
    if table.is_abelian:
        cover = square_cover(free_gset(table, base), "X")
        found += (cover.degree, len(cover.center_labels),
                  permgroup.abelian_invariants(cover.deck_group))
    return found


@functools.cache
def plain_invariants(index, size):
    return labelling_invariants(RELABELLED_TABLES[index],
                                ("a", "b", "c")[:size])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_answers_do_not_depend_on_the_labelling(data):
    index = data.draw(st.integers(0, len(RELABELLED_TABLES) - 1))
    table = RELABELLED_TABLES[index]
    sigma = data.draw(st.permutations(range(table.order)))
    base = data.draw(st.lists(st.text("abcxyz", min_size=1, max_size=3),
                              min_size=1, max_size=3, unique=True))
    assert labelling_invariants(relabel(table, sigma), tuple(base)) == \
        plain_invariants(index, len(base))


def assert_laws_exhaustively(c):
    """Every law that ``build_construction`` checks on generators or
    certifies, restated over all pairs of elements, with the
    square action and the sign computed test-locally."""
    table = c.gset.group
    d, n = c.d, c.gset.size
    mul = table.mul
    swap = c.swap
    slot = slot_maps(c)
    diag = [c.model.vector((g, g)) for g in range(d)]
    anti = antidiagonal_maps(c)
    tr = translations(c.gset)
    # Pair translation (g1, g): g1's translation on the first copy, g's on
    # the second, built here independently of the library's words.
    pair = [Permutation(tr[g1] + tuple(n + t for t in tr[g]))
            for g1 in range(d) for g in range(d)]
    pairs_of_g = [(a, b) for a in range(d) for b in range(d)]

    for g, h in pairs_of_g:
        assert slot[g] * slot[h] == slot[mul(g, h)]
        assert diag[g] * diag[h] == diag[mul(g, h)]
    anti_hom = all(anti[a] * anti[b] == anti[mul(a, b)]
                   for a, b in pairs_of_g)
    assert anti_hom == table.is_abelian
    assert (swap * swap).is_identity
    for g in range(d):
        assert swap * slot[g] * swap * slot[g] == diag[g]
    conjugated = [swap * slot[g1] * swap for g1 in range(d)]
    for g1, g in pairs_of_g:
        assert slot[g] * conjugated[g1] == pair[g1 * d + g]
        assert conjugated[g1] * slot[g] == pair[g1 * d + g]
        assert rho(pair[g1 * d + g], n).images == tuple(
            tr[g1][z] * n + tr[g][w] for z in range(n) for w in range(n)
        )
        for h in range(d):
            assert slot[h] * pair[g1 * d + g] == pair[g1 * d + mul(h, g)]

    assert c.pair_group.elements == set(pair) | {swap * x for x in pair}
    assert c.diagonal_group.elements == set(diag) | {swap * x for x in diag}
    if table.is_abelian:
        assert c.antidiagonal_group.elements == \
            set(anti) | {swap * x for x in anti}
    for sub in (c.diagonal_group, c.antidiagonal_group):
        by_definition = all(
            a * h * a.inverse() in sub
            for a in c.pair_group for h in sub
        )
        assert permgroup.is_normal(sub, c.pair_group) == by_definition

    ab_table, class_of = table.quotient_by(table.commutator_subgroup())
    slot_product = {}
    for g1, g in pairs_of_g:
        slot_product[pair[g1 * d + g]] = class_of[mul(g1, g)]
        slot_product[swap * pair[g1 * d + g]] = class_of[mul(g1, g)]
    assert len(slot_product) == len(c.pair_group)

    square = {x: rho(x, n) for x in c.pair_group}
    for u in c.pair_group:
        for v in c.pair_group:
            uv = u * v
            assert slot_product[uv] == \
                ab_table.mul(slot_product[u], slot_product[v])
            assert sign(uv, n) == sign(u, n) * sign(v, n)
            assert square[uv] == square[u] * square[v]
    kernel = {w for w, value in slot_product.items()
              if value == ab_table.identity}
    assert kernel == c.antidiagonal_group.elements
    labels = antidiagonal_reference_labels(c)
    for x, value in slot_product.items():
        assert [labels[k] for k in square[x].images] == \
            times_class(labels, value, ab_table)

    for a, b in pairs_of_g:
        for g1, g in pairs_of_g:
            assert pair[a * d + b] * pair[g1 * d + g] == \
                pair[mul(a, g1) * d + mul(b, g)]


@pytest.mark.parametrize("base", [("a",), ("a", "b")], ids=len)
@pytest.mark.parametrize("table", [
    cyclic_table(6),
    abelian_table((2, 4)),
    abelian_table((2, 2, 2)),
    abelian_table((3, 3)),
    symmetric_table(3),
], ids=["Z6", "Z2xZ4", "Z2^3", "Z3^2", "S3"])
def test_generator_checked_laws_hold_for_every_pair(table, base):
    c = build(table, base)
    assert_sign_splits(c)
    assert_laws_exhaustively(c)


def antidiagonal_reference_labels(c):
    """The label of each pair ((g1, b), (g2, b')): its symmetric point i
    and the class of g1 g2 in G/[G, G], as i * |G/[G, G]| + class."""
    table, gset, n = c.gset.group, c.gset, c.gset.size
    ab_table, class_of = table.quotient_by(table.commutator_subgroup())
    point_sym = reference_point_sym(c)
    return [point_sym[z * n + w] * ab_table.order
            + class_of[table.mul(gset.g_of(z), gset.g_of(w))]
            for z in range(n) for w in range(n)]


def times_class(labels, value, ab_table):
    """``labels`` with every class multiplied by ``value``."""
    classes = ab_table.order
    return [label - label % classes + ab_table.mul(value, label % classes)
            for label in labels]


def reference_slot_product_at_p0(c, square):
    """The reading the build made before it used the labels: the class of
    g1 g at each of the d^2 pairs (g1.b0, g.b0) over p0 = (b0, b0), the
    slot product of x read at rho(x)(p0) for every x in J (``square[x]``
    lists rho(x)), the law checked on J's generators on those pairs, and
    the kernel order 2 #{pairs of class 1}."""
    table, gset, n, d = c.gset.group, c.gset, c.gset.size, c.d
    ab_table, class_of = table.quotient_by(table.commutator_subgroup())
    nb = len(gset.base)
    z0 = table.identity * nb  # the sheet (e, b0)
    p0 = z0 * n + z0
    class_at = {g1 * nb * n + g * nb:
                class_of[table.mul(g1, g)]
                for g1 in range(d) for g in range(d)}
    values = {x: class_at[images[p0]] for x, images in square.items()}
    for x in c.pair_group.generators:
        images = square[x]
        assert all(class_at[images[k]] == ab_table.mul(values[x], value)
                   for k, value in class_at.items())
    kernel_order = 2 * sum(value == ab_table.identity
                           for value in class_at.values())
    return values, kernel_order


def test_law_checks_cost_few_compositions(compositions):
    gset = free_gset(cyclic_table(11), ("a",))
    compositions.count = 0
    build_construction(gset)
    assert compositions.count <= 4


def test_law_checks_compose_on_two_copies_of_the_sheets(compositions):
    # Each composition costs one step per point of the right factor: 2 |Z|
    # = 66 on Z ⊔ Z here, against |Z|^2 = 1,089 for a permutation of the
    # square itself.
    gset = free_gset(cyclic_table(11), ("a", "b", "c"))
    compositions.count = compositions.points = 0
    fixed_components(build_construction(gset))
    assert compositions.points <= 264


def test_square_cover_costs_the_build_and_the_deck_law(compositions):
    # The build's 4 products and no more: the deck maps are read off the
    # table, and their law follows from it, with no product of
    # permutations.
    gset = free_gset(cyclic_table(11), ("a", "b"))
    compositions.count = 0
    square_cover(gset, "X")
    assert compositions.count <= 4


def test_build_validates_no_permutation(monkeypatch):
    # Every map the build makes is a bijection by construction (see
    # WreathModel), so none passes through the validating constructor.
    validated = []
    validate = Permutation.__new__

    def counted(cls, images):
        validated.append(cls)
        return validate(cls, images)

    gset = free_gset(cyclic_table(11), ("a", "b", "c"))
    monkeypatch.setattr(Permutation, "__new__", counted)
    fixed_components(build_construction(gset))
    assert len(validated) == 0


def test_law_checks_run_under_optimization():
    script = (
        "from hilb2 import hilbcover, permgroup\n"
        "from hilb2.errors import HomomorphismFailure\n"
        "from hilb2.tables import cyclic_table\n"
        "gset = hilbcover.free_gset(cyclic_table(3), ('a', 'b'))\n"
        "honest = hilbcover._left_translation\n"
        "honest_labels = hilbcover._antidiagonal_labels\n"
        "honest_points = hilbcover._point_labels\n"
        "honest_diagonal = hilbcover._diagonal_labels\n"
        "honest_normal_form = hilbcover._swap_normal_form\n"
        "breaks = (\n"
        "    (hilbcover, '_left_translation',\n"
        "     lambda group, nb, g: honest(group, nb, group.inv(g))),\n"
        "    (hilbcover, '_swap_normal_form', lambda model, partner, gens:\n"
        "         honest_normal_form(model, range(len(partner)), gens)),\n"
        "    (hilbcover, '_antidiagonal_labels',\n"
        "     lambda translations, sym_of, class_of, classes:\n"
        "         hilbcover._pair_labels(\n"
        "             [range(6)] * 3,\n"
        "             [[[i * classes + c for c in class_of] for i in row]\n"
        "              for row in sym_of])),\n"
        "    (hilbcover, '_antidiagonal_labels',\n"
        "     lambda translations, sym_of, class_of, classes: honest_labels(\n"
        "         translations, [[(1 - i) % 3 for i in row] for row in sym_of],\n"
        "         class_of, classes)),\n"
        "    (hilbcover, '_point_labels',\n"
        "     lambda gset, sym_of: [\n"
        "         0 if i == 1 else i for i in honest_points(gset, sym_of)]),\n"
        "    (hilbcover, '_diagonal_labels',\n"
        "     lambda table, translations, sym_of: [\n"
        "         i - i % 3\n"
        "         for i in honest_diagonal(table, translations, sym_of)]),\n"
        "    (hilbcover, '_antidiagonal_labels',\n"
        "     lambda translations, sym_of, class_of, classes: [\n"
        "         i - classes if i // classes == 2 else i\n"
        "         for i in honest_labels(translations, sym_of, class_of,\n"
        "                                classes)]),\n"
        "    (permgroup, 'normalized_by', lambda sub, gens: True),\n"
        "    (hilbcover, '_fixes_transversals', lambda *args: True),\n"
        ")\n"
        "for owner, name, broken in breaks:\n"
        "    kept = getattr(owner, name)\n"
        "    setattr(owner, name, broken)\n"
        "    try:\n"
        "        c = hilbcover.build_construction(gset)\n"
        "        hilbcover.fixed_components(c)\n"
        "    except HomomorphismFailure as exc:\n"
        "        print(exc)\n"
        "    setattr(owner, name, kept)\n"
    )
    src = str(Path(hilb2.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True,
        text=True, timeout=60,
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "slot product is not a homomorphism\n"
        "antidiagonal-group generators do not keep the orbit labels\n"
        "slot product is not a homomorphism\n"
        "slot-product kernel is not the antidiagonal group\n"
        "fiber size law failed\n"
        "diagonal-group orbit count law failed\n"
        "antidiagonal-group orbit count is not the abelianization order\n"
        "diagonal group normality differs from the g^2 = id condition\n"
        "fixed diagonal copies [0, 1, 2] disagree with the order-2 "
        "prediction [0]\n"
    )


def test_abelian_build_neither_closes_nor_searches(monkeypatch):
    # D and abelian H are listed from their normal forms and every orbit
    # partition is read from labels; only a nonabelian H is still closed.
    calls = {"generate": 0, "orbits": 0}
    for name in calls:
        def counted(*args, _name=name, _honest=getattr(permgroup, name),
                    **kwargs):
            calls[_name] += 1
            return _honest(*args, **kwargs)
        monkeypatch.setattr(permgroup, name, counted)
    build(abelian_table((2, 6)), ("a", "b", "c"))
    assert calls == {"generate": 0, "orbits": 0}
    build(symmetric_table(3), ("a", "b"))
    assert calls == {"generate": 1, "orbits": 0}


def reference_point_sym(c):
    """The symmetric point under each pair of the square, by base indices."""
    nb, n = len(c.gset.base), c.gset.size
    index = {(i, j): k for k, (i, j) in enumerate(
        (i, j) for i in range(nb) for j in range(i, nb))}
    return [index[tuple(sorted((c.gset.b_of(z), c.gset.b_of(w))))]
            for z in range(n) for w in range(n)]


def reference_orbit_fibers(c, gens):
    """The union-find split that preceded the label certificates: orbits of
    the square actions of ``gens``, bucketed by the symmetric point under
    each orbit."""
    n = c.gset.size
    point_sym = reference_point_sym(c)
    per_sym = [[] for _ in c.sym.points]
    square = [rho(x, n) for x in gens]
    for orbit in permgroup.orbits(square, domain_size=n * n):
        targets = {point_sym[k] for k in orbit}
        assert len(targets) == 1
        per_sym[targets.pop()].append(orbit)
    return tuple(tuple(bucket) for bucket in per_sym)


def reference_closures(c):
    """The diagonal and antidiagonal groups closed element by element from
    the generators the build used before the normal forms."""
    table, n = c.gset.group, c.gset.size
    gens = table.small_generating_set()
    second = tuple(range(n, 2 * n))
    tr = translations(c.gset)
    commutator_pairs = tuple(
        Permutation(tr[x] + second)
        for x in table.commutator_subgroup()
    )
    anti = antidiagonal_maps(c)
    diagonal = permgroup.generate(
        (c.swap,) + tuple(c.model.vector((s, s)) for s in gens),
        domain_size=2 * n)
    antidiagonal = permgroup.generate(
        (c.swap,) + tuple(anti[s] for s in gens)
        + commutator_pairs, domain_size=2 * n)
    return diagonal, antidiagonal


def reversed_table(table):
    """The same group with element i renamed n - 1 - i, so the identity is
    no longer element 0."""
    n = table.order
    return GroupTable(tuple(
        tuple(n - 1 - table.mul(n - 1 - a, n - 1 - b) for b in range(n))
        for a in range(n)
    ))


ORACLE_CASES = [
    (name, table, base)
    for name, table in abelian_group_tables(12)
    for base in (("a",), ("a", "b"), ("a", "b", "c"))
] + [
    (name, table, base)
    for name, table in (("S3", symmetric_table(3)), ("Q8", quaternion_table()),
                        ("Z6-reversed", reversed_table(cyclic_table(6))),
                        ("S3-reversed", reversed_table(symmetric_table(3))))
    for base in (("a",), ("a", "b"))
]


@pytest.mark.parametrize(
    "table, base", [case[1:] for case in ORACLE_CASES],
    ids=[f"{name}-b{len(base)}" for name, _, base in ORACLE_CASES],
)
def test_certified_groups_and_orbits_match_closure_and_search(table, base):
    c = build(table, base)
    diagonal, antidiagonal = reference_closures(c)
    assert c.diagonal_group.elements == diagonal.elements
    assert c.diagonal_group.generators == diagonal.generators
    assert c.antidiagonal_group.elements == antidiagonal.elements
    assert c.antidiagonal_group.generators == antidiagonal.generators
    assert c.sym_fibers == tuple(
        orbit for (orbit,) in reference_orbit_fibers(c, c.pair_group.generators)
    )
    assert c.diagonal_orbit_fibers == \
        reference_orbit_fibers(c, diagonal.generators)
    assert c.antidiagonal_orbit_fibers == \
        reference_orbit_fibers(c, antidiagonal.generators)


def listed_normal_forms(c):
    """D and H listed as frozensets of the maps pair(g, g) (pair(g, g^-1)
    for H) and the swap times each, with the translations built here; a
    nonabelian H by closure."""
    table, n = c.gset.group, c.gset.size
    tr = translations(c.gset)

    def listed(partner):
        maps = [Permutation(tr[g] + tuple(n + t for t in tr[partner[g]]))
                for g in range(c.d)]
        return frozenset(maps) | {c.swap * x for x in maps}

    if table.is_abelian:
        return listed(range(c.d)), listed(table.inverses)
    return listed(range(c.d)), reference_closures(c)[1].elements


@functools.cache
def membership_case(index):
    c = build(*ORACLE_CASES[index][1:])
    return c, listed_normal_forms(c)


@pytest.mark.parametrize(
    "index", range(len(ORACLE_CASES)),
    ids=[f"{name}-b{len(base)}" for name, _, base in ORACLE_CASES],
)
def test_normal_form_membership_matches_the_listed_sets_on_the_pair_group(
        index):
    c, (diagonal, antidiagonal) = membership_case(index)
    assert len(c.diagonal_group) == len(diagonal)
    assert len(c.antidiagonal_group) == len(antidiagonal)
    for x in c.pair_group:
        assert (x in c.diagonal_group) == (x in diagonal)
        assert (x in c.antidiagonal_group) == (x in antidiagonal)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_normal_form_membership_matches_the_listed_sets_outside(data):
    # Permutations of Z ⊔ Z that map copies onto copies, most of them
    # outside J: any pair of sheet permutations, kept or exchanged, or a
    # member of D or H with two points of one copy exchanged, which shares
    # its image of point 0 with a member unless point 0 is one of them.
    index = data.draw(st.integers(0, len(ORACLE_CASES) - 1))
    c, (diagonal, antidiagonal) = membership_case(index)
    n = c.gset.size
    if data.draw(st.booleans()):
        member = list(data.draw(st.sampled_from(
            sorted(diagonal | antidiagonal))))
        copy = data.draw(st.sampled_from((0, n)))
        i, j = data.draw(st.lists(st.integers(copy, copy + n - 1),
                                  min_size=2, max_size=2, unique=True)
                         if n > 1 else st.just([copy, copy]))
        member[i], member[j] = member[j], member[i]
        x = Permutation(member)
    else:
        firsts = data.draw(st.permutations(range(n)))
        seconds = data.draw(st.permutations(range(n, 2 * n)))
        x = Permutation(list(seconds) + list(firsts)
                        if data.draw(st.booleans())
                        else list(firsts) + list(seconds))
    assert (x in c.diagonal_group) == (x in diagonal)
    assert (x in c.antidiagonal_group) == (x in antidiagonal)
    assert (tuple(x) in c.diagonal_group) == (x in diagonal)


def test_construct_lists_neither_normal_form_group(monkeypatch, capsys):
    # construct prints the certified orders; D and H answer the normality
    # checks from their normal forms and never fill their elements.
    built = []

    def kept(*args, **kwargs):
        built.append(build_construction(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_construction", kept)
    assert cli.main(["construct", "--group", "Z11", "--base-size", "3"]) == 0
    capsys.readouterr()
    c, = built
    for group in (c.diagonal_group, c.antidiagonal_group, c.pair_group):
        assert "elements" not in vars(group)


def test_build_peaks_at_label_memory():
    # Z200 over one base point: the labels of 40,000 pairs, and no map or
    # group element held per element of G.  3.3 MB measured; 8.8 MB when
    # D and H were listed and every map held.
    gset = free_gset(cyclic_table(200), ("a",))
    tracemalloc.start()
    try:
        build_construction(gset, cap=80000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize(
    "table, base", [case[1:] for case in ORACLE_CASES],
    ids=[f"{name}-b{len(base)}" for name, _, base in ORACLE_CASES],
)
def test_every_element_multiplies_the_labels_by_its_slot_product(table,
                                                                 base):
    c = build(table, base)
    ab_table, _ = table.quotient_by(table.commutator_subgroup())
    n = c.gset.size
    square = {x: rho(x, n).images for x in c.pair_group}
    values, kernel_order = reference_slot_product_at_p0(c, square)
    assert kernel_order == len(c.antidiagonal_group)
    assert {x for x, value in values.items()
            if value == ab_table.identity} == c.antidiagonal_group.elements
    labels = antidiagonal_reference_labels(c)
    for x, images in square.items():
        assert [labels[k] for k in images] == \
            times_class(labels, values[x], ab_table)


SHEET_ACTION_CASES = [
    (name, table, base)
    for name, table in dict(case[:2] for case in ORACLE_CASES).items()
    for base in (("a",), ("a", "b"), ("a", "b", "c"))
]


@pytest.mark.parametrize(
    "table, base", [case[1:] for case in SHEET_ACTION_CASES],
    ids=[f"{name}-b{len(base)}" for name, _, base in SHEET_ACTION_CASES],
)
def test_the_table_certifies_the_sheet_action(table, base):
    # The laws the build takes from the validated table, by exhaustion:
    # translation(g) is the model's (h, b) -> (g h, b), g -> translation(g)
    # is an injective homomorphism, and only the identity fixes a sheet.
    gset = free_gset(table, base)
    tr = translations(gset)
    sheets = tuple(range(gset.size))
    for g, h in itertools.product(range(table.order), repeat=2):
        for b in range(len(base)):
            assert tr[g][h * len(base) + b] == \
                table.mul(g, h) * len(base) + b
        assert tuple(tr[g][tr[h][z]] for z in sheets) == tr[table.mul(g, h)]
    assert len(set(tr)) == table.order
    assert tr[table.identity] == sheets
    for g in range(table.order):
        if g != table.identity:
            assert all(map(int.__ne__, tr[g], sheets))


@pytest.mark.parametrize(
    "table, base", [case[1:] for case in ORACLE_CASES],
    ids=[f"{name}-b{len(base)}" for name, _, base in ORACLE_CASES],
)
def test_slot_and_diagonal_maps_are_read_off_the_translations(table, base):
    c = build(table, base)
    n = c.gset.size
    trs = translations(c.gset)
    slot, anti = slot_maps(c), antidiagonal_maps(c)
    for g, tr in enumerate(trs):
        shifted = tuple(n + t for t in tr)
        assert slot[g].images == tuple(range(n)) + shifted
        assert c.model.vector((g, g)).images == tr + shifted
        assert anti[g].images == \
            tr + tuple(n + t for t in trs[table.inv(g)])


LAZY_FIBERS = ("sym_fibers", "diagonal_orbit_fibers",
               "antidiagonal_orbit_fibers")


def reference_buckets(labels, point_sym, points):
    """Test-local bucketing: the pairs of equal label, filed under the
    symmetric point of their first pair, each point's classes ordered by
    smallest member."""
    classes = {}
    for k, label in enumerate(labels):
        classes.setdefault(label, []).append(k)
    per_point = [[] for _ in range(points)]
    for members in classes.values():
        per_point[point_sym[members[0]]].append(tuple(members))
    return tuple(tuple(sorted(bucket)) for bucket in per_point)


@pytest.mark.parametrize(
    "table, base", [case[1:] for case in ORACLE_CASES],
    ids=[f"{name}-b{len(base)}" for name, _, base in ORACLE_CASES],
)
def test_fibers_are_listed_on_first_read_from_the_kept_labels(table, base):
    c = build(table, base)
    assert not set(LAZY_FIBERS) & set(vars(c))
    point_sym, points = reference_point_sym(c), len(c.sym.points)
    assert c.point_labels == point_sym
    assert c.sym_fibers == tuple(
        fiber for (fiber,) in reference_buckets(point_sym, point_sym, points)
    )
    assert c.diagonal_orbit_fibers == \
        reference_buckets(c.diagonal_labels, point_sym, points)
    assert c.antidiagonal_orbit_fibers == \
        reference_buckets(c.antidiagonal_labels, point_sym, points)
    assert set(LAZY_FIBERS) <= set(vars(c))
    assert c.xi_fiber_sizes == tuple(map(len, c.sym_fibers))
    assert c.antidiagonal_orbit_counts == \
        tuple(map(len, c.antidiagonal_orbit_fibers))


def test_construct_lists_no_fiber(monkeypatch, capsys):
    # construct prints fiber sizes and orbit counts, which the build
    # recorded; no fiber is bucketed, the diagonal-group ones included.
    built = []

    def kept(*args, **kwargs):
        built.append(build_construction(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_construction", kept)
    monkeypatch.setattr(hilbcover, "_label_classes", lambda *args: pytest.fail(
        "a fiber was bucketed"))
    for fmt in ("text", "json"):
        assert cli.main(["construct", "--group", "Z2xZ6", "--base-size", "3",
                         "--format", fmt]) == 0
    capsys.readouterr()
    assert len(built) == 2
    for c in built:
        assert "diagonal_orbit_fibers" not in vars(c)
        assert not set(LAZY_FIBERS) & set(vars(c))


@pytest.mark.parametrize("table, base", [
    (cyclic_table(1), ("a",)), (cyclic_table(3), ("a", "b")),
    (abelian_table((2, 2)), ("a", "b")), (symmetric_table(3), ("a",)),
])
def test_row_readings_follow_the_square_action(table, base):
    # Over the whole pair group: labels read row by row through rho(x)
    # (with each pair labelled by its own index, that is rho(x) itself),
    # and the one-pass fixer test for x and for swap . x on every copy,
    # agree with the test-local square action.
    c = build(table, base)
    n = c.gset.size
    firsts = tuple(range(n))
    lines = hilbcover._label_lines(range(n * n), n)
    for x in c.pair_group:
        square = rho(x, n).images
        assert hilbcover._rows_through(lines, x.images) == \
            hilbcover._rows(square, n)
        exchanged = rho(c.swap * x, n).images
        for g in range(c.d):  # the transversals of each copy
            diag = c.model.vector((g, g))
            seconds = diag.images[n:]
            copy = [z * n + w - n for z, w in zip(firsts, seconds)]
            assert hilbcover._fixes_transversals(
                (x.images,), n, firsts, seconds) == all(
                square[k] == k for k in copy)
            assert hilbcover._fixes_transversals(
                (x.images, c.swap.images), n, firsts, seconds) == all(
                exchanged[k] == k for k in copy)


def test_diagonal_copies_are_checked_to_exhaust_the_doubled_locus(
        monkeypatch):
    # Pair each sheet with g.z over the other base point: still d disjoint
    # sheet sets, and the fixers are read on the true copies, but these
    # pairs lie over a+b.
    honest = hilbcover._diagonal_copies

    def other_base(translations, n):
        return honest([[w ^ 1 for w in tr] for tr in translations], n)

    monkeypatch.setattr(hilbcover, "_diagonal_copies", other_base)
    with pytest.raises(HomomorphismFailure,
                       match="^diagonal copies do not exhaust the "
                             "doubled-locus preimage$"):
        build_construction(free_gset(cyclic_table(3), ("a", "b")))


def exchanging_two_labels(what):
    """Wrap ``_check_labels_kept`` so the label lines handed to it for
    ``what`` are those of labels whose first two distinct values are
    exchanged at one pair each."""
    honest = hilbcover._check_labels_kept

    def broken(lines, gens, label_what):
        if label_what == what:
            n = len(lines) // 2
            labels = [v for row in lines[:n] for v in row]
            k = next(k for k, v in enumerate(labels) if v != labels[0])
            labels[0], labels[k] = labels[k], labels[0]
            lines = hilbcover._label_lines(labels, n)
        return honest(lines, gens, label_what)
    return broken


@pytest.mark.parametrize("what", ["pair-group", "diagonal-group",
                                  "antidiagonal-group"])
def test_orbit_labels_are_checked_against_every_generator(monkeypatch, what):
    gset = free_gset(cyclic_table(3), ("a", "b"))
    monkeypatch.setattr(hilbcover, "_check_labels_kept",
                        exchanging_two_labels(what))
    with pytest.raises(HomomorphismFailure,
                       match=f"^{what} generators do not keep the orbit "
                             f"labels$"):
        build_construction(gset)


def test_orbit_label_checks_run_under_optimization():
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "from test_hilbcover import exchanging_two_labels\n"
        "from hilb2 import hilbcover\n"
        "from hilb2.errors import HomomorphismFailure\n"
        "from hilb2.tables import cyclic_table\n"
        "gset = hilbcover.free_gset(cyclic_table(3), ('a', 'b'))\n"
        "honest = hilbcover._check_labels_kept\n"
        "for what in ('pair-group', 'diagonal-group', 'antidiagonal-group'):\n"
        "    hilbcover._check_labels_kept = exchanging_two_labels(what)\n"
        "    try:\n"
        "        hilbcover.build_construction(gset)\n"
        "    except HomomorphismFailure as exc:\n"
        "        print(exc)\n"
        "    hilbcover._check_labels_kept = honest\n"
    )
    src = str(Path(hilb2.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True,
        text=True, timeout=60,
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "".join(
        f"{what} generators do not keep the orbit labels\n"
        for what in ("pair-group", "diagonal-group", "antidiagonal-group"))


@pytest.mark.parametrize("labels, merge, failure", [
    # The pairs over a+b labelled as if over 2a.
    ("_point_labels", lambda i: 0 if i == 1 else i, "fiber size law failed"),
    # Every class over a point merged into its first (d = 3).
    ("_diagonal_labels", lambda i: i - i % 3,
     "diagonal-group orbit count law failed"),
    # The classes over 2b merged into those over a+b (3 classes a point).
    ("_antidiagonal_labels", lambda i: i - 3 if i // 3 == 2 else i,
     "antidiagonal-group orbit count is not the abelianization order"),
], ids=["pair-group", "diagonal-group", "antidiagonal-group"])
def test_orbit_counts_are_checked_on_the_kept_labels(monkeypatch, labels,
                                                     merge, failure):
    # Two label classes merged: a coarser labelling that every generator
    # still keeps, so only the count law can refuse it.
    honest = getattr(hilbcover, labels)
    monkeypatch.setattr(hilbcover, labels,
                        lambda *args: list(map(merge, honest(*args))))
    with pytest.raises(HomomorphismFailure, match=f"^{failure}$"):
        build(cyclic_table(3), ("a", "b"))


@pytest.mark.parametrize("normal, failure", [
    # In Z3 only e squares to e, so the diagonal group must not be normal.
    (True, r"diagonal group normality differs from the g\^2 = id condition"),
], ids=["diagonal"])
def test_normality_laws_are_checked(monkeypatch, normal, failure):
    monkeypatch.setattr(permgroup, "normalized_by", lambda sub, gens: normal)
    with pytest.raises(HomomorphismFailure, match=f"^{failure}$"):
        build(cyclic_table(3), ("a",))


def test_a_non_normal_antidiagonal_group_is_refused(monkeypatch):
    # H := D, the normal form with the identity in place of the inverse
    # pairing: it has H's order 2 d, so the kernel count passes, but it is
    # not normal in J, as in Z3 only e squares to e.  H is normal only as
    # the slot product's kernel, and D's generators move the classes of
    # the antidiagonal labels.
    honest = hilbcover._swap_normal_form
    monkeypatch.setattr(
        hilbcover, "_swap_normal_form",
        lambda model, partner, gens: honest(model, range(len(partner)), gens))
    c = hilbcover.assemble_construction(free_gset(cyclic_table(3),
                                                  ("a", "b")))
    assert c.antidiagonal_group.elements == c.diagonal_group.elements
    assert not permgroup.is_normal(c.antidiagonal_group, c.pair_group)
    with pytest.raises(HomomorphismFailure,
                       match="^antidiagonal-group generators do not keep "
                             "the orbit labels$"):
        hilbcover.check_construction(c)


def test_fixed_copies_are_checked_against_the_closed_form(monkeypatch):
    # A fixer test that finds every copy fixed disagrees with the elements
    # of order at most 2, which in Z3 is the identity alone.
    c = build(cyclic_table(3), ("a", "b"))
    monkeypatch.setattr(hilbcover, "_fixes_transversals", lambda *args: True)
    with pytest.raises(HomomorphismFailure,
                       match=r"^fixed diagonal copies \[0, 1, 2\] disagree "
                             r"with the order-2 prediction \[0\]$"):
        fixed_components(c)


def test_doubled_point_labels_need_the_inverse_pairing(monkeypatch):
    # Over a doubled point the swap sends r = g1^-1 g2 to r^-1, so a
    # diagonal label without min(r, r^-1) is not invariant.
    def unpaired(table, translations, sym_of):
        d, nb = table.order, len(sym_of)
        lookups = [[tuple(sym_of[b][b2] * d + r for r in range(d))
                    for b2 in range(nb)] for b in range(nb)]
        return hilbcover._pair_labels(
            [translations[a] for a in table.inverses], lookups)

    gset = free_gset(cyclic_table(3), ("a",))
    monkeypatch.setattr(hilbcover, "_diagonal_labels", unpaired)
    with pytest.raises(HomomorphismFailure,
                       match="^diagonal-group generators do not keep"):
        build_construction(gset)


def test_translations_are_checked_to_be_left_multiplications(monkeypatch):
    # g -> translation(g^-1) is a free, faithful action of abelian Z3 by a
    # homomorphism, but not the model's (h, b) -> (g h, b) whose sheet
    # coordinates the labels read: the slot product tells them apart, as
    # slot-map(1) then multiplies every label's class by 2, not 1.
    table = cyclic_table(3)
    gset = free_gset(table, ("a", "b"))
    honest = hilbcover._left_translation
    monkeypatch.setattr(hilbcover, "_left_translation",
                        lambda group, nb, g: honest(group, nb, group.inv(g)))
    with pytest.raises(HomomorphismFailure,
                       match="^slot product is not a homomorphism$"):
        build_construction(gset)


def labels_by_second_slot(honest, translations, sym_of, class_of, classes):
    """Antidiagonal labels by the class of g2 alone (every row read at the
    identity): slot maps multiply their classes as the slot product does,
    but the swap moves them."""
    nb = len(sym_of)
    return hilbcover._pair_labels(
        [range(len(translations[0]))] * len(translations),
        [[[sym_of[b][b2] * classes + c for c in class_of]
          for b2 in range(nb)] for b in range(nb)])


def labels_with_points_exchanged(honest, translations, sym_of, class_of,
                                 classes):
    """The honest labels with symmetric points 0 and 1 renumbered: the law
    still holds, but the kernel count reads the pairs over b0 + b1 as if
    they lay over (b0, b0)."""
    renumbered = [[(1 - i) % 3 for i in row] for row in sym_of]
    return honest(translations, renumbered, class_of, classes)


@pytest.mark.parametrize("failure, broken", [
    ("slot product is not a homomorphism", labels_by_second_slot),
    ("slot-product kernel is not the antidiagonal group",
     labels_with_points_exchanged),
])
def test_slot_product_is_read_from_the_antidiagonal_labels(monkeypatch,
                                                            failure, broken):
    gset = free_gset(cyclic_table(3), ("a", "b"))
    monkeypatch.setattr(
        hilbcover, "_antidiagonal_labels",
        functools.partial(broken, hilbcover._antidiagonal_labels))
    with pytest.raises(HomomorphismFailure, match=f"^{failure}$"):
        build_construction(gset)


def test_build_makes_no_permutation_of_the_square(monkeypatch):
    # rho is read as plain image lists and the sheet translations as rows
    # of the table: every permutation the build makes, validated or raw,
    # acts on Z ⊔ Z (66 points), none on the 33 sheets or on the
    # |Z|^2 = 1,089 pairs of the square.
    sizes = set()
    validate, raw = Permutation.__new__, permgroup._raw

    def validated(cls, images):
        permutation = validate(cls, images)
        sizes.add(len(permutation))
        return permutation

    def unvalidated(images):
        permutation = raw(images)
        sizes.add(len(permutation))
        return permutation

    gset = free_gset(cyclic_table(11), ("a", "b", "c"))
    monkeypatch.setattr(Permutation, "__new__", validated)
    monkeypatch.setattr(permgroup, "_raw", unvalidated)
    build_construction(gset)
    assert sizes == {66}


@pytest.mark.parametrize(
    "table, base", [case[1:] for case in ORACLE_CASES],
    ids=[f"{name}-b{len(base)}" for name, _, base in ORACLE_CASES],
)
def test_the_assembler_builds_what_build_construction_returns(table, base):
    gset = free_gset(table, base)
    assembled = hilbcover.assemble_construction(gset)
    built = build_construction(gset)
    for field in fields(built):
        assert getattr(assembled, field.name) == getattr(built, field.name), \
            field.name
    for group in ("pair_group", "diagonal_group", "antidiagonal_group"):
        assert getattr(assembled, group).generators == \
            getattr(built, group).generators
    assert assembled.model.copies == built.model.copies


def exchanging_first_two_labels(labels):
    """``labels`` with pair 0's label exchanged with that of the first pair
    labelled otherwise."""
    labels = list(labels)
    k = next(k for k, label in enumerate(labels) if label != labels[0])
    labels[0], labels[k] = labels[k], labels[0]
    return labels


# Each label array with two labels exchanged breaks the first law that
# reads it; each recorded count off by one breaks its count law.
TAMPERED_FIELDS = [
    ("point_labels", exchanging_first_two_labels,
     "pair-group generators do not keep the orbit labels"),
    ("diagonal_labels", exchanging_first_two_labels,
     "diagonal-group generators do not keep the orbit labels"),
    ("antidiagonal_labels", exchanging_first_two_labels,
     "slot product is not a homomorphism"),
    ("xi_fiber_sizes", lambda sizes: (sizes[0] + 1,) + sizes[1:],
     "fiber size law failed"),
    ("antidiagonal_orbit_counts",
     lambda counts: counts[:-1] + (counts[-1] - 1,),
     "antidiagonal-group orbit count is not the abelianization order"),
]


@pytest.mark.parametrize("name, tamper, failure", TAMPERED_FIELDS,
                         ids=[name for name, _, _ in TAMPERED_FIELDS])
def test_the_checker_reads_the_law_off_each_field(name, tamper, failure):
    for table in (cyclic_table(3), abelian_table((2, 2)), symmetric_table(3)):
        c = build(table, ("a", "b"))
        tampered = replace(c, **{name: tamper(getattr(c, name))})
        hilbcover.check_construction(c)
        with pytest.raises(HomomorphismFailure, match=f"^{failure}$"):
            hilbcover.check_construction(tampered)


@pytest.mark.parametrize("helper, failure", [
    ("_point_labels", "pair-group generators do not keep the orbit labels"),
    ("_diagonal_labels",
     "diagonal-group generators do not keep the orbit labels"),
    ("_antidiagonal_labels", "slot product is not a homomorphism"),
])
def test_a_tampered_helper_passes_the_assembler_and_fails_the_checker(
        monkeypatch, helper, failure):
    honest = getattr(hilbcover, helper)
    monkeypatch.setattr(hilbcover, helper, lambda *args: (
        exchanging_first_two_labels(honest(*args))))
    c = hilbcover.assemble_construction(free_gset(cyclic_table(3),
                                                  ("a", "b")))
    with pytest.raises(HomomorphismFailure, match=f"^{failure}$"):
        hilbcover.check_construction(c)


def test_each_build_assembles_once_and_checks_once(monkeypatch):
    calls = []
    assemble, check = (hilbcover.assemble_construction,
                       hilbcover.check_construction)

    def assembled(*args, **kwargs):
        calls.append(("assemble", assemble(*args, **kwargs)))
        return calls[-1][1]

    def checked(c):
        calls.append(("check", c))
        return check(c)

    monkeypatch.setattr(hilbcover, "assemble_construction", assembled)
    monkeypatch.setattr(hilbcover, "check_construction", checked)
    gset = free_gset(cyclic_table(4), ("a", "b"))
    c = build_construction(gset, cap=100)
    assert [phase for phase, _ in calls] == ["assemble", "check"]
    assert all(seen is c for _, seen in calls)
    calls.clear()
    square_cover(gset, "X")
    assert [phase for phase, _ in calls] == ["assemble", "check"]


def test_the_pair_group_refusal_names_the_group_cap():
    # |J| = 2 d^2 = 8 for Z2: a cap of 8 builds, a cap of 7 refuses.
    gset = free_gset(cyclic_table(2), ("a",))
    assert len(build_construction(gset, cap=8).pair_group) == 8
    with pytest.raises(CapExceeded,
                       match=r"^group closure exceeded cap of 7 elements$"):
        hilbcover.refuse_pair_group_over_cap(2, 7)
    with pytest.raises(CapExceeded,
                       match=r"^group closure exceeded cap of 7 elements$"):
        build_construction(gset, cap=7)
