"""Cover calculus on finite monodromy data.

Covers of a space with fundamental group g correspond to subgroups h <= g:
the sheets are the cosets of h, the monodromy is the coset action, the
cover is Galois exactly when h is normal, and deck transformations come
from the normalizer of h.  This module makes each arrow of that dictionary
executable — including Galois closure, a brute-force verification that the
fundamental group of a punctured symmetric power collapses onto the
abelianization, and the pipeline that turns a surface's data into the full
list of covers of its Hilbert square.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
import itertools
import math

from . import permgroup
from .descriptors import CoverDescriptor, SurfaceDescriptor
from .errors import (
    CapExceeded,
    InfiniteAbelianization,
    NotASubgroup,
)
from .fpgroup import abelianization, subgroups_of_abelian
from .hilbcover import (
    WreathModel,
    free_gset,
    refuse_pair_group_over_cap,
    square_cover,
    wreath_product,
)
from .permgroup import DEFAULT_ELEMENT_CAP, Group, Permutation
from .tables import GroupTable, _number_cosets, abelian_table


def cover_from_subgroup(g: Group, h: Group, *,
                        base_label: str = "base") -> CoverDescriptor:
    """The cover whose sheets are the right cosets of ``h`` in ``g``.

    Sheets are labeled c0, c1, ... with c0 the coset of the identity; the
    monodromy is the right-multiplication action of ``g``, the deck group
    is the left-multiplication action of the normalizer of ``h`` (of order
    |normalizer| / |h|), and the cover is Galois exactly when ``h`` is
    normal.

    Both actions are certified by the cosets, with no check of their own:

    * the right cosets h·x partition ``g``, so each element has one coset
      and h·x -> h·x·y is well defined; the monodromy is transitive, as
      every x is a product of generators of ``g`` and so carries h·e to
      h·x;
    * for x in the normalizer, x·h = h·x, so h·r -> h·x·r is well defined.
      Two elements x, y give the same sheet map exactly when h·x = h·y
      (read it at r = e; conversely y = m·x with m in h gives
      h·y·r = h·x·r), so the deck group has one permutation for each
      coset of h in the normalizer, |normalizer| / |h| of them.
    """
    if not h.is_subgroup_of(g):
        raise NotASubgroup("the defining subgroup must lie in the group")
    # Products through right-multiplication maps: coset h·x is the map
    # of x over h, and sheet i goes to the coset of reps[i]·gen.
    right = permgroup._right_multiplication
    coset_of, reps = _number_cosets(g.element_list, h.element_list, right)
    degree = len(reps)
    labels = tuple(f"c{i}" for i in range(degree))

    monodromy_gens = tuple(
        Permutation(tuple(map(coset_of.__getitem__, map(right(gen), reps))))
        for gen in g.generators
    )
    monodromy = permgroup.generate(
        monodromy_gens, domain_size=degree, cap=len(g)
    )

    normalizer = permgroup.normalizer(g, h)
    rep_steps = list(map(right, reps))
    deck_perms = {
        Permutation(tuple(coset_of[step(x)] for step in rep_steps))
        for x in normalizer.element_list
    }
    deck = permgroup.group_from_elements(degree, deck_perms)

    return CoverDescriptor(
        base_label=base_label,
        total_points=labels,
        monodromy=monodromy,
        degree=degree,
        deck_group=deck,
        galois=len(normalizer) == len(g),
    )


def galois_closure(c: CoverDescriptor) -> CoverDescriptor:
    """The minimal Galois cover dominating ``c``.

    A Galois cover is returned unchanged (so the operation is exactly
    idempotent).  Otherwise the closure is the coset cover of the trivial
    subgroup of the monodromy image: the kernel of the sheet action is
    already gone from the image, so its regular action is the coset action
    on the core of the defining subgroup.  Sheets are labeled m0, m1, ...
    and the ramification labels carry over.
    """
    if c.galois:
        return c
    group = c.monodromy
    closed = cover_from_subgroup(
        group, Group.trivial(group.domain_size), base_label=c.base_label
    )
    return replace(
        closed,
        total_points=tuple(f"m{i}" for i in range(closed.degree)),
        ramification_labels=c.ramification_labels,
    )


def cover_isomorphic(a: CoverDescriptor, b: CoverDescriptor) -> bool:
    """Equivalence of two covers with transitive, generator-aligned monodromy.

    The monodromy groups must list their generators in parallel (images of
    the same abstract generators, as happens for covers built from the same
    source group); the test searches for a sheet bijection intertwining the
    two generator actions, which by transitivity is determined by the image
    of one sheet.
    """
    if a.base_label != b.base_label or a.degree != b.degree:
        return False
    ga, gb = a.monodromy.generators, b.monodromy.generators
    if len(ga) != len(gb):
        return False
    size = len(a.total_points)
    if size != len(b.total_points):
        return False
    for start in range(size):
        phi = {0: start}
        stack = [0]
        consistent = True
        while stack and consistent:
            x = stack.pop()
            for pa, pb in zip(ga, gb):
                y, fy = pa(x), pb(phi[x])
                if y in phi:
                    if phi[y] != fy:
                        consistent = False
                        break
                else:
                    phi[y] = fy
                    stack.append(y)
        if (consistent and len(phi) == size
                and len(set(phi.values())) == size):
            return True
    return False


def wreath_model(q_table: GroupTable, n: int, *,
                 cap: int = DEFAULT_ELEMENT_CAP) -> WreathModel:
    """Q ≀ Sₙ on n copies of Q, :func:`hilbcover.wreath_product` over one
    base point: point i·|Q| + x is the element x in copy i.

    Raises :class:`CapExceeded` before building anything when |Q|^n * n!
    passes ``cap``.
    """
    if n < 2:
        raise ValueError("need at least two coordinates")
    order = q_table.order ** n * math.factorial(n)
    if order > cap:
        raise CapExceeded(f"|W| would be {order} > group cap {cap}")
    return wreath_product(q_table, 1, n)


@dataclass(frozen=True)
class WreathCheckReport:
    """Outcome of the punctured-symmetric-power fundamental-group check.

    ``lift_closure_order`` is the order of the normal closure N of the
    transposition lifts; ``k_vector_closure_order`` is the order of the
    normal closure of the twisted-difference vectors alone (the two
    candidate kernels — both are reported, and the quotient conclusion is
    verified for N).
    """

    q_order: int
    n: int
    wreath_order: int
    lift_closure_order: int
    k_vector_closure_order: int
    k_vectors_in_closure: bool
    quotient_abelian: bool
    quotient_invariants: tuple[int, ...]
    q_abelianized: tuple[int, ...]
    composition_homomorphism: bool
    composition_kernel_is_closure: bool

    @property
    def ok(self) -> bool:
        return (
            self.k_vectors_in_closure
            and self.quotient_abelian
            and self.quotient_invariants == self.q_abelianized
            and self.composition_homomorphism
            and self.composition_kernel_is_closure
            and self.wreath_order
            == self.lift_closure_order * math.prod(self.q_abelianized)
        )


def wreath_quotient_check(q_table: GroupTable, n: int, *,
                          cap: int = DEFAULT_ELEMENT_CAP) -> WreathCheckReport:
    """Verify that killing the transposition lifts leaves exactly Q-abelian.

    Builds W = Q ≀ Sₙ, of order |Q|^n n!, on n copies of Q (see
    :func:`wreath_model`), takes the normal closure N of the transposition
    lifts, and checks by exhaustion:

    * every twisted-difference vector (the slotwise products
      g_{p(i)}^-1 g_i over all coordinate permutations p and tuples g)
      lies in N;
    * W / N is abelian with invariant factors equal to those of the
      abelianization of Q;
    * the slot-composition map w -> product of the components of the
      vector part of w, taken modulo commutators of Q, is a homomorphism
      (checked on generator-times-element pairs, which extends to all
      products by induction) whose kernel is exactly N.  The components
      are read from the images of the n identity points, one per copy.

    Raises :class:`CapExceeded` before building anything when |W| passes
    ``cap``.
    """
    model = wreath_model(q_table, n, cap=cap)
    W = model.wreath
    q = q_table.order

    N = permgroup.normal_closure(W, model.transposition_lifts, cap=cap)

    inverse = q_table.inv
    mul = q_table.mul
    k_vectors = set()
    for p in itertools.permutations(range(n)):
        p_inverse = [0] * n
        for i, pi in enumerate(p):
            p_inverse[pi] = i
        for g in itertools.product(range(q), repeat=n):
            k_vectors.add(tuple(
                mul(inverse(g[p_inverse[i]]), g[i]) for i in range(n)
            ))
    k_perms = set(map(model.vector, k_vectors))
    k_in_closure = all(perm in N.elements for perm in k_perms)
    nontrivial = [p for p in k_perms if not p.is_identity]
    if nontrivial:
        k_closure = permgroup.normal_closure(W, nontrivial, cap=cap)
        k_closure_order = len(k_closure)
    else:
        k_closure_order = 1

    quotient, _, _ = permgroup.quotient_table(W, N)
    quotient_abelian = quotient.is_abelian
    quotient_invariants = (
        quotient.abelian_invariants() if quotient_abelian else ()
    )

    commutator = q_table.commutator_subgroup()
    qab_table, class_of = q_table.quotient_by(commutator)
    qab = qab_table.abelian_invariants()

    identity_points = [i * q + q_table.identity for i in range(n)]

    def compose(w: Permutation) -> int:
        product = q_table.identity
        for point in identity_points:
            product = mul(product, w.images[point] % q)
        return class_of[product]

    phi = {w: compose(w) for w in W}
    hom_ok = all(
        phi[gen * w] == qab_table.mul(phi[gen], phi[w])
        for gen in W.generators for w in W
    )
    qab_identity = qab_table.identity
    kernel = {w for w, value in phi.items() if value == qab_identity}
    kernel_is_n = kernel == N.elements
    image_full = len(set(phi.values())) == qab_table.order

    return WreathCheckReport(
        q_order=q,
        n=n,
        wreath_order=len(W),
        lift_closure_order=len(N),
        k_vector_closure_order=k_closure_order,
        k_vectors_in_closure=k_in_closure,
        quotient_abelian=quotient_abelian,
        quotient_invariants=quotient_invariants,
        q_abelianized=qab,
        composition_homomorphism=hom_ok and image_full,
        composition_kernel_is_closure=kernel_is_n,
    )


CLASSIFY_BASE = ("a", "b")


def hilb_covers_by_type(s: SurfaceDescriptor, *,
                        cap: int = DEFAULT_ELEMENT_CAP
                        ) -> tuple[tuple[tuple[int, ...], ...],
                                   dict[tuple[int, ...], CoverDescriptor]]:
    """The covers of the Hilbert square of ``s`` by deck group type.

    The fundamental group of the Hilbert square is the abelianization of
    the smooth part's fundamental group; each of its subgroups induces a
    Galois cover whose deck group is the quotient, realized explicitly
    through the squared construction (:func:`square_cover`) on the free
    model of the quotient's abelian table over a fixed two-point base;
    that table is the only representation of the deck group built.  The
    model depends on the subgroup only through the quotient's invariants,
    so each distinct quotient type is built, and its laws checked, once
    per call, in order of first occurrence; nothing is kept between calls.

    Returns the quotient invariants of every subgroup, ordered by degree,
    then by the subgroup, and the cover of each type, keyed by those
    invariants, which are also the deck group's invariant factors.
    Raises :class:`InfiniteAbelianization` when the abelianization has
    positive free rank.  Raises ``CapExceeded`` before listing any
    subgroup when the pair group of the largest cover, the trivial
    subgroup's of degree N = |abelianization|, would pass ``cap``: every
    cover with a pair group over the cap would refuse with the same
    message, and no smaller one can fail first.
    """
    invariants = abelianization(s.pi1_smooth)
    if invariants.rank > 0:
        raise InfiniteAbelianization(
            f"the abelianized fundamental group has free rank "
            f"{invariants.rank}; only finite groups classify here"
        )
    refuse_pair_group_over_cap(invariants.order, cap)
    subs = sorted(
        subgroups_of_abelian(invariants),
        key=lambda sub: (sub.index, sub.elements),
    )
    types = tuple(sub.quotient.torsion for sub in subs)
    by_type: dict[tuple[int, ...], CoverDescriptor] = {}
    for torsion in types:
        if torsion not in by_type:
            by_type[torsion] = quasietale_correspondence(s, square_cover(
                free_gset(abelian_table(torsion), CLASSIFY_BASE),
                s.name, cap=cap,
            ))
    return types, by_type


def classify_hilb_covers(s: SurfaceDescriptor, *,
                         cap: int = DEFAULT_ELEMENT_CAP) -> tuple[CoverDescriptor, ...]:
    """All covers of the Hilbert square of ``s``, one per subgroup upstairs.

    Each subgroup of the abelianized fundamental group induces a Galois
    cover with abelian deck group (see :func:`hilb_covers_by_type`, which
    builds each quotient type's cover once and raises as documented
    there); every subgroup of a type gets that type's cover object.
    Results are ordered by degree, then by the defining subgroup.
    """
    types, by_type = hilb_covers_by_type(s, cap=cap)
    return tuple(map(by_type.__getitem__, types))


def quasietale_correspondence(s: SurfaceDescriptor,
                              c: CoverDescriptor) -> CoverDescriptor:
    """Transport a cover that is unramified over the smooth part to the
    possibly-singular total surface.

    The monodromy data is untouched; the only change is bookkeeping — a
    nontrivial cover acquires the singular-point labels as its allowed
    branch locus, while degree-1 covers and covers of smooth surfaces pass
    through unchanged.  Inverse direction: :func:`remove_base_labels` with
    the same labels.
    """
    if s.is_smooth or c.degree == 1:
        return c
    return replace(c, ramification_labels=frozenset(s.singular_labels))


def remove_base_labels(c: CoverDescriptor, labels) -> CoverDescriptor:
    """Restrict a cover away from the given base labels.

    In this bookkeeping model restriction only shrinks the allowed branch
    locus: an unramified cover stays unramified, and one ramified at a
    surviving label stays ramified there.
    """
    return replace(
        c, ramification_labels=c.ramification_labels - frozenset(labels)
    )
