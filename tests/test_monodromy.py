"""Subgroup-to-cover dictionary, Galois closure, wreath quotient checks,
and the classification pipeline."""
from dataclasses import replace
import itertools
from pathlib import Path
from types import SimpleNamespace
import subprocess
import sys

import pytest

import hilb2
from hilb2 import permgroup
from hilb2 import hilbcover, monodromy, tables
from hilb2.catalog import get_surface, surface_names
from hilb2.descriptors import CoverDescriptor, SurfaceDescriptor
from hilb2.errors import (
    CapExceeded,
    HomomorphismFailure,
    InfiniteAbelianization,
)
from hilb2.fpgroup import (
    AbelianInvariants,
    abelianization,
    parse_presentation,
    subgroups_of_abelian,
)
from hilb2.hilbcover import free_gset, hilb_square_cover, square_cover
from hilb2.monodromy import (
    CLASSIFY_BASE,
    WreathCheckReport,
    classify_hilb_covers,
    cover_from_subgroup,
    cover_isomorphic,
    galois_closure,
    hilb_covers_by_type,
    quasietale_correspondence,
    remove_base_labels,
    wreath_model,
    wreath_quotient_check,
)
from hilb2.permgroup import Group, Permutation
from hilb2.tables import abelian_table, group_from_spec, symmetric_table


def s3():
    return permgroup.generate(
        (Permutation((1, 0, 2)), Permutation((1, 2, 0))), domain_size=3
    )


def flip_subgroup():
    return permgroup.generate((Permutation((1, 0, 2)),), domain_size=3)


def a3():
    return permgroup.generate((Permutation((1, 2, 0)),), domain_size=3)


def regular_model(table):
    mul = table.mul
    gens = tuple(
        Permutation(tuple(mul(g, x) for x in range(table.order)))
        for g in table.small_generating_set()
    )
    return permgroup.generate(gens, domain_size=max(table.order, 1))


def test_cover_from_subgroup_non_normal():
    cover = cover_from_subgroup(s3(), flip_subgroup())
    assert cover.degree == 3
    assert not cover.galois
    assert len(cover.monodromy) == 6
    assert len(cover.deck_group) == 1
    assert len(cover.total_points) == 3


def test_cover_from_subgroup_normal():
    cover = cover_from_subgroup(s3(), a3())
    assert cover.degree == 2
    assert cover.galois
    assert len(cover.deck_group) == 2


def test_cover_from_subgroup_checks_the_subgroup_once(monkeypatch):
    checks = []
    require = permgroup._require_subgroup

    def counted(sub, group):
        checks.append((sub, group))
        return require(sub, group)

    monkeypatch.setattr(permgroup, "_require_subgroup", counted)
    for sub, galois in ((flip_subgroup(), False), (a3(), True),
                        (Group.trivial(3), True), (s3(), True)):
        checks.clear()
        assert cover_from_subgroup(s3(), sub).galois == galois
        # The normalizer's check; galois reads the normalizer's order.
        assert len(checks) == 1
        assert permgroup.is_normal(sub, s3()) == galois


def test_galois_closure_frozen_degree_and_laws():
    cover = replace(cover_from_subgroup(s3(), flip_subgroup(), base_label="X"),
                    ramification_labels=frozenset({"r1"}))
    closed = galois_closure(cover)
    assert closed.galois
    assert closed.degree == 6
    # Recorded from the regular-action builder that preceded the coset
    # cover of the trivial subgroup.
    assert closed.total_points == ("m0", "m1", "m2", "m3", "m4", "m5")
    assert closed.base_label == "X"
    assert closed.ramification_labels == frozenset({"r1"})
    assert [g.images for g in closed.monodromy.generators] == \
        [(1, 0, 3, 2, 5, 4), (3, 5, 1, 4, 0, 2)]
    assert [g.images for g in closed.deck_group.generators] == \
        [(1, 0, 4, 5, 2, 3), (2, 3, 0, 1, 5, 4)]
    assert closed.degree % cover.degree == 0
    assert galois_closure(closed) is closed
    galois_cover = cover_from_subgroup(s3(), a3())
    assert galois_closure(galois_cover) is galois_cover
    regular = cover_from_subgroup(s3(), Group.trivial(3), base_label="X")
    assert cover_isomorphic(closed, regular)


def test_galois_closure_minimality_matches_core():
    for spec in ("S3", "Q8", "Z6"):
        _, table = group_from_spec(spec)
        group = regular_model(table)
        for sub in permgroup.subgroups(group):
            cover = cover_from_subgroup(group, sub)
            closed = galois_closure(cover)
            expected = group.order // permgroup.core(group, sub).order
            assert closed.degree == expected, (spec, sub.order)
            assert closed.galois
            assert closed.degree % cover.degree == 0


def test_cover_isomorphic_detects_relabeling_and_mismatch():
    cover = cover_from_subgroup(s3(), flip_subgroup())
    relabeled = replace(
        cover, total_points=tuple(f"renamed-{x}" for x in cover.total_points)
    )
    assert cover_isomorphic(cover, relabeled)
    assert not cover_isomorphic(cover, cover_from_subgroup(s3(), a3()))


def test_wreath_model_structure():
    _, z3 = group_from_spec("Z3")
    model = wreath_model(z3, 2)
    assert len(model.wreath) == 18
    assert model.wreath.domain_size == 2 * 3
    assert len(model.transposition_lifts) == 1
    for lift in model.transposition_lifts:
        assert lift * lift == Permutation.identity(lift.domain_size)
        assert lift in model.wreath
    _, s3_table = group_from_spec("S3")
    s3_wreath = wreath_model(s3_table, 3).wreath
    assert len(s3_wreath) == 6 ** 3 * 6
    assert s3_wreath.domain_size == 3 * 6
    # The action on copies stays faithful when Q is trivial.
    _, z1 = group_from_spec("Z1")
    trivial = wreath_model(z1, 3).wreath
    assert len(trivial) == 6
    assert trivial.domain_size == 3
    with pytest.raises(ValueError):
        wreath_model(z3, 1)


def closed_vector(vector, q_table, n):
    """Left multiplication by vector[i] on copy i of Q, point by point
    from the table: the reference for the builder's direct sums."""
    q, mul = q_table.order, q_table.mul
    return Permutation(tuple(
        i * q + mul(vector[i], x) for i in range(n) for x in range(q)
    ))


@pytest.mark.parametrize("spec, n", [
    ("Z1", 2), ("Z1", 3), ("Z2", 2), ("Z2", 3), ("Z3", 2), ("Z3", 3),
    ("S3", 2), ("S3", 3), ("Q8", 2),
])
def test_certified_wreath_matches_the_closure(spec, n):
    # The oracle closes, with generate, the copy-0 vectors of Q's
    # generators and the transposition lifts; W puts them in the last copy.
    _, table = group_from_spec(spec)
    q, identity = table.order, table.identity
    model = wreath_model(table, n)
    assert "elements" not in model.wreath.__dict__
    lifts = []
    for i in range(n - 1):
        copies = list(range(n))
        copies[i], copies[i + 1] = i + 1, i
        lifts.append(Permutation(tuple(
            c * q + x for c in copies for x in range(q))))
    vectors = [closed_vector((a,) + (identity,) * (n - 1), table, n)
               for a in table.small_generating_set()]
    closure = permgroup.generate(vectors + lifts, domain_size=n * q)
    assert model.transposition_lifts == tuple(lifts)
    assert model.wreath.elements == closure.elements
    # The twisted-difference vectors, as wreath_quotient_check forms them.
    for p in itertools.permutations(range(n)):
        for g in itertools.product(range(q), repeat=n):
            v = tuple(table.mul(table.inv(g[p.index(i)]), g[i])
                      for i in range(n))
            assert model.vector(v) == closed_vector(v, table, n)


def test_wreath_quotient_check_frozen_values():
    # (|W|, |N|, order of the twisted-difference closure, Q^ab invariants)
    expected = {
        ("Z2", 2): (8, 4, 2, (2,)),
        ("Z3", 2): (18, 6, 3, (3,)),
        ("Z4", 2): (32, 8, 4, (4,)),
        ("Z2xZ2", 2): (32, 8, 4, (2, 2)),
        ("S3", 2): (72, 36, 18, (2,)),
        ("Q8", 2): (128, 32, 16, (2, 2)),
        ("Z2", 3): (48, 24, 4, (2,)),
        ("Z3", 3): (162, 54, 9, (3,)),
        ("Q8", 3): (3072, 768, 128, (2, 2)),
        ("S3", 3): (1296, 648, 108, (2,)),
        ("Z2", 4): (384, 192, 8, (2,)),
        ("Z1", 3): (6, 6, 1, ()),
    }
    for (spec, n), (w_order, closure, k_closure, invariants) in \
            expected.items():
        _, table = group_from_spec(spec)
        report = wreath_quotient_check(table, n)
        assert report == WreathCheckReport(
            q_order=table.order,
            n=n,
            wreath_order=w_order,
            lift_closure_order=closure,
            k_vector_closure_order=k_closure,
            k_vectors_in_closure=True,
            quotient_abelian=True,
            quotient_invariants=invariants,
            q_abelianized=invariants,
            composition_homomorphism=True,
            composition_kernel_is_closure=True,
        ), (spec, n)
        assert report.ok, (spec, n)


def test_wreath_cap_refuses_before_building(monkeypatch):
    _, q8 = group_from_spec("Q8")

    def refuse(*args, **kwargs):
        raise AssertionError("a group was closed before the cap check")

    monkeypatch.setattr(permgroup, "generate", refuse)
    monkeypatch.setattr(permgroup, "_close", refuse)
    with pytest.raises(CapExceeded,
                       match=r"^\|W\| would be 3072 > group cap 3071$"):
        wreath_quotient_check(q8, 3, cap=3071)
    monkeypatch.undo()
    assert wreath_quotient_check(q8, 3, cap=3072).ok


def test_classify_counts_and_shapes():
    expected_counts = {
        "simply-connected": 1,
        "smooth-enriques": 2,
        "enriques-type": 2,
        "quaternion": 5,
        "cyclic-2": 2,
        "cyclic-3": 2,
        "cyclic-4": 3,
        "cyclic-6": 4,
        "cyclic-8": 4,
    }
    for name, count in expected_counts.items():
        covers = classify_hilb_covers(get_surface(name))
        assert len(covers) == count, name
        assert covers[0].degree == 1
        degrees = [c.degree for c in covers]
        assert degrees == sorted(degrees)
        for cover in covers:
            assert cover.galois
            assert cover.deck_group.is_abelian()
            assert cover.base_label == f"Hilb2({name})"
            assert len(cover.center_labels) == 2 * cover.degree


def test_classify_quaternion_deck_invariants():
    covers = classify_hilb_covers(get_surface("quaternion"))
    invariants = sorted(
        permgroup.abelian_invariants(c.deck_group) for c in covers
    )
    assert invariants == [(), (2,), (2,), (2,), (2, 2)]


def test_classify_ramification_transfer():
    for cover in classify_hilb_covers(get_surface("smooth-enriques")):
        assert cover.ramification_labels == frozenset()
    singular_covers = classify_hilb_covers(get_surface("enriques-type"))
    assert singular_covers[0].ramification_labels == frozenset()
    assert singular_covers[1].ramification_labels == frozenset({"p1"})


def test_classify_rejects_infinite_fundamental_groups():
    free_surface = SurfaceDescriptor(
        name="free",
        pi1_smooth=parse_presentation("< a | >"),
        singular_points=(),
        hodge=None,
    )
    with pytest.raises(InfiniteAbelianization):
        classify_hilb_covers(free_surface)


def test_classify_cap_is_the_largest_covers_pair_group():
    surface = SurfaceDescriptor(name="Z5",
                                pi1_smooth=parse_presentation("< a | a^5 >"))
    covers = classify_hilb_covers(surface, cap=2 * 5 * 5)
    assert [c.degree for c in covers] == [1, 5]
    with pytest.raises(CapExceeded) as error:
        classify_hilb_covers(surface, cap=2 * 5 * 5 - 1)
    assert str(error.value) == "group closure exceeded cap of 49 elements"


def classify_through_the_sheet_action(s):
    """The classify loop that wrapped each deck table's sheet translations
    in a permutation group and a surface cover, and let
    ``hilb_square_cover`` rebuild the table from that group."""
    subs = sorted(
        subgroups_of_abelian(abelianization(s.pi1_smooth)),
        key=lambda sub: (sub.index, sub.elements),
    )
    out = []
    for sub in subs:
        deck_table = abelian_table(sub.quotient.torsion)
        gset = free_gset(deck_table, CLASSIFY_BASE)
        nb = len(gset.base)
        action = permgroup.generate(
            tuple(Permutation(hilbcover._left_translation(deck_table, nb, g))
                  for g in deck_table.small_generating_set()),
            domain_size=gset.size,
        )
        assert len(action) == deck_table.order
        surface_cover = CoverDescriptor(
            base_label=s.name,
            total_points=gset.labels,
            monodromy=action,
            degree=deck_table.order,
            deck_group=action,
            galois=True,
        )
        out.append(quasietale_correspondence(
            s, hilb_square_cover(surface_cover)
        ))
    return tuple(out)


def group_data(group):
    return (group.domain_size, group.generators, group.order,
            group.element_list)


def cover_data(c):
    return (c.base_label, c.total_points, group_data(c.monodromy), c.degree,
            group_data(c.deck_group), c.galois, c.ramification_labels,
            c.center_labels)


INLINE_SURFACES = {
    "Z2xZ4": "< a b | a^2, b^4, a b a^-1 b^-1 >",
    "Z3xZ3": "< a b | a^3, b^3, a b a^-1 b^-1 >",
    "Z2^3": "< a b c | a^2, b^2, c^2, a b a^-1 b^-1, a c a^-1 c^-1, "
            "b c b^-1 c^-1 >",
    "D4": "< r s | r^4, s^2, s r s r >",
}


def inline_surface(name):
    return SurfaceDescriptor(
        name=name, pi1_smooth=parse_presentation(INLINE_SURFACES[name])
    )


CLASSIFIED_SURFACES = [
    *(get_surface(name) for name in surface_names()),
    *(inline_surface(name) for name in INLINE_SURFACES),
]


@pytest.mark.parametrize("surface", CLASSIFIED_SURFACES,
                         ids=lambda s: s.name)
def test_classify_matches_the_sheet_action_pipeline(surface):
    new = classify_hilb_covers(surface)
    old = classify_through_the_sheet_action(surface)
    assert [cover_data(c) for c in new] == [cover_data(c) for c in old]


@pytest.mark.parametrize("surface", CLASSIFIED_SURFACES,
                         ids=lambda s: s.name)
def test_covers_by_type_name_their_deck_groups(surface):
    # Each subgroup's quotient type is its cover's deck group's invariant
    # factors, which classify prints without reading the group.
    invariants, types, by_type = hilb_covers_by_type(surface)
    assert invariants == abelianization(surface.pi1_smooth)
    subs = subgroups_of_abelian(invariants)
    assert sorted(types) == sorted(sub.quotient.torsion for sub in subs)
    assert list(by_type) == list(dict.fromkeys(types))
    for torsion, cover in by_type.items():
        assert permgroup.abelian_invariants(cover.deck_group) == torsion
    assert classify_hilb_covers(surface) == tuple(map(by_type.get, types))


def classify_one_cover_per_subgroup(s):
    """The classify loop that built and checked one cover per subgroup."""
    subs = sorted(
        subgroups_of_abelian(abelianization(s.pi1_smooth)),
        key=lambda sub: (sub.index, sub.elements),
    )
    return tuple(
        quasietale_correspondence(s, square_cover(
            free_gset(abelian_table(sub.quotient.torsion), CLASSIFY_BASE),
            s.name,
        ))
        for sub in subs
    )


@pytest.mark.parametrize("surface", CLASSIFIED_SURFACES,
                         ids=lambda s: s.name)
def test_classify_matches_one_cover_per_subgroup(surface):
    new = classify_hilb_covers(surface)
    old = classify_one_cover_per_subgroup(surface)
    assert [cover_data(c) for c in new] == [cover_data(c) for c in old]


@pytest.mark.parametrize("surface, subgroups, types", [
    (inline_surface("Z2^3"), 16, 4),
    (get_surface("quaternion"), 5, 3),
    (inline_surface("Z3xZ3"), 6, 3),
], ids=["Z2^3", "quaternion", "Z3xZ3"])
def test_classify_builds_one_cover_per_quotient_type_per_call(
        monkeypatch, surface, subgroups, types):
    covers_built = constructions_built = 0
    build_cover = hilbcover.square_cover
    build_construction = hilbcover.build_construction

    def counted_cover(*args, **kwargs):
        nonlocal covers_built
        covers_built += 1
        return build_cover(*args, **kwargs)

    def counted_construction(*args, **kwargs):
        nonlocal constructions_built
        constructions_built += 1
        return build_construction(*args, **kwargs)

    monkeypatch.setattr(monodromy, "square_cover", counted_cover)
    monkeypatch.setattr(hilbcover, "build_construction", counted_construction)
    assert len(classify_hilb_covers(surface)) == subgroups
    assert (covers_built, constructions_built) == (types, types)
    # Nothing is kept between calls: a second call builds every type again.
    assert len(classify_hilb_covers(surface)) == subgroups
    assert (covers_built, constructions_built) == (2 * types, 2 * types)


def test_classify_builds_one_table_and_one_model_per_cover(monkeypatch):
    tables_built = models_built = 0
    validate = tables.GroupTable.__post_init__
    build_model = hilbcover.free_gset

    def counted_table(self):
        nonlocal tables_built
        tables_built += 1
        validate(self)

    def counted_model(*args, **kwargs):
        nonlocal models_built
        models_built += 1
        return build_model(*args, **kwargs)

    monkeypatch.setattr(tables.GroupTable, "__post_init__", counted_table)
    monkeypatch.setattr(hilbcover, "free_gset", counted_model)
    monkeypatch.setattr(monodromy, "free_gset", counted_model)
    covers = classify_hilb_covers(get_surface("cyclic-8"))
    assert len(covers) == 4
    assert (tables_built, models_built) == (4, 4)


def test_quasietale_correspondence_and_label_removal():
    surface = get_surface("enriques-type")
    cover = classify_hilb_covers(surface)[1]
    transported = quasietale_correspondence(surface, cover)
    assert transported.ramification_labels == frozenset(
        surface.singular_labels
    )
    assert not transported.is_etale
    cleaned = remove_base_labels(cover, {"p1"})
    assert cleaned.ramification_labels == frozenset()
    assert cleaned.is_etale
    untouched = remove_base_labels(cover, {"p9"})
    assert untouched.ramification_labels == frozenset({"p1"})


def test_wreath_order_law_names_the_law(monkeypatch):
    # W generated by its transposition lifts alone, still certified at
    # |Q|^n n!: Z2 wr S2, of order 8, closes to the 2 copy permutations.
    honest = monodromy.wreath_product

    def lifts_only(table, nb, n):
        model = honest(table, nb, n)
        gens = permgroup.generating_tuple(model.transposition_lifts,
                                          model.wreath.domain_size)
        return replace(model, wreath=Group(*gens, model.wreath.order))

    monkeypatch.setattr(monodromy, "wreath_product", lifts_only)
    with pytest.raises(HomomorphismFailure,
                       match="^the generators do not close to the certified "
                             "order 8$"):
        wreath_quotient_check(group_from_spec("Z2")[1], 2)


def test_wreath_order_law_runs_under_optimization():
    # Without the vector generators each wreath cell closes to the n! copy
    # permutations instead of its certified |Q|^n n! elements.
    script = (
        "import sys\n"
        "from dataclasses import replace\n"
        "from hilb2 import cli, monodromy, permgroup\n"
        "honest = monodromy.wreath_product\n"
        "def lifts_only(table, nb, n):\n"
        "    model = honest(table, nb, n)\n"
        "    gens = permgroup.generating_tuple(model.transposition_lifts,\n"
        "                                      model.wreath.domain_size)\n"
        "    return replace(model, wreath=permgroup.Group(\n"
        "        *gens, model.wreath.order))\n"
        "monodromy.wreath_product = lifts_only\n"
        "sys.exit(cli.main(['verify']))\n"
    )
    src = str(Path(hilb2.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True,
        text=True, timeout=120,
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert result.returncode == 1, result.stderr
    orders = {("Z2", 2): 8, ("Z3", 2): 18, ("Z4", 2): 32, ("Z2xZ2", 2): 32,
              ("S3", 2): 72, ("Q8", 2): 128, ("Z2", 3): 48, ("Z3", 3): 162}
    assert [line for line in result.stdout.splitlines()
            if line.startswith("FAIL")] == [
        f"FAIL - wreath[{spec},n={n}]: killing transposition lifts leaves "
        f"Q^ab  (HomomorphismFailure: the generators do not close to the "
        f"certified order {order})"
        for (spec, n), order in orders.items()
    ]


def abelian_chains(max_order):
    """The invariant factors of every abelian group of order up to
    ``max_order``, one per isomorphism class."""
    for order in range(1, max_order + 1):
        per_prime = [
            [tuple(p ** part for part in partition)
             for partition in tables._partitions(e)]
            for p, e in tables._prime_factorization(order)
        ]
        for combo in itertools.product(*per_prime):
            yield tables._invariant_chain(combo)


def test_index_order_reverses_the_blocks_of_equal_order(monkeypatch):
    # hilb_covers_by_type reverses the blocks of equal order of the
    # (order, key) list; that is exactly the (index, key) order, for every
    # abelian group of order <= 100 (no cover is built here).
    chains = list(abelian_chains(100))
    assert len(chains) == 185
    monkeypatch.setattr(monodromy, "square_cover", lambda *args, **kw: None)
    monkeypatch.setattr(monodromy, "quasietale_correspondence",
                        lambda s, cover: None)
    surface = SimpleNamespace(pi1_smooth=None, name="X")
    for chain in chains:
        invariants = AbelianInvariants(0, chain)
        monkeypatch.setattr(monodromy, "abelianization",
                            lambda presentation: invariants)
        subs = sorted(subgroups_of_abelian(invariants),
                      key=lambda sub: (sub.index, sub.key))
        _, types, _ = hilb_covers_by_type(surface, cap=10 ** 6)
        assert types == tuple(sub.quotient.torsion for sub in subs), chain
