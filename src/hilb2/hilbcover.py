"""Finite working model of the two-point Hilbert-scheme cover construction.

Start from a free action of a finite group G (order d) on a sheet set Z
over a base B.  On the square Z x Z live the coordinate swap
(z, w) -> (w, z), the second-slot translations (z, w) -> (z, g.w), the
diagonal translations (z, w) -> (g.z, g.w) and the antidiagonal
translations (z, w) -> (a.z, a^-1.w).  Three subgroups of the symmetry
group of the square organize everything, each generated by the swap and
one family of translations:

* the pair group J (second-slot translations), of order 2 d^2, whose
  orbit space is the symmetric quotient of B;
* the diagonal group D (diagonal translations), of order 2 d, whose orbit
  space covers the symmetric quotient with fewer sheets over the doubled
  locus unless every element of G squares to the identity;
* the antidiagonal group H (antidiagonal translations), the kernel of the
  slot product from J onto G/[G, G], whose orbit space is an unramified
  intermediate quotient of degree |G/[G, G]|: the full Hilbert-square
  cover for abelian G, only the abelianized cover for nonabelian G.

:func:`build_construction` makes them in two phases:
:func:`assemble_construction` builds the groups and the labels of their
orbits and checks nothing, then :func:`check_construction` checks every
law above, reading only what was built, with each law's proof at its
check.

The groups are held in their imprimitive action on Z ⊔ Z, two copies of
the sheets (the pair group is the wreath product G ≀ C2 in this action;
Holt, Eick and O'Brien, *Handbook of Computational Group Theory*, 2005):
the swap exchanges the copies, translations move each copy within itself,
and the sign of an element says whether it exchanges them.  Every
generator maps copies onto copies by construction, so every element does,
and an element x then acts on the square by the rule rho: the pair (z, w)
is the transversal {z, |Z| + w} and goes to {x(z), x(|Z| + w)}, read
first copy first.  That is the action of x on a set of two-point subsets,
so rho is a homomorphism by construction and needs no certificate (no
presentation of G ≀ C2 whose relators its generator images satisfy): an
element keeps a labelling of the pairs as soon as each generator's square
action does, and rho is never listed element by element.  Because Z ⊔ Z
has two points even for one sheet over one base point, where the square
has one, the group orders stay faithful in that degenerate case.

Index conventions, fixed for reproducibility: a sheet (g, b) has index
g * |B| + b with g in multiplication-table order and b in input order; a
pair (z, w) has index z * |Z| + w; on Z ⊔ Z sheet z of the first copy is
point z and of the second copy point |Z| + z.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import itertools
import math
import operator

from . import permgroup
from .descriptors import CoverDescriptor
from .errors import (
    CapExceeded,
    EmptyBase,
    HomomorphismFailure,
    NonAbelianDeckGroup,
    NotGalois,
    UnknownPoint,
)
from .permgroup import DEFAULT_ELEMENT_CAP, Group, Permutation
from .tables import GroupTable, _greedy_generators


@dataclass(frozen=True, order=True)
class SymPoint:
    """An unordered pair of base labels; first <= second in base order."""

    first: str
    second: str

    @property
    def is_diagonal(self) -> bool:
        return self.first == self.second

    @property
    def label(self) -> str:
        if self.is_diagonal:
            return f"2{self.first}"
        return f"{self.first}+{self.second}"


@dataclass(frozen=True)
class SymQuotient:
    """The symmetric square of a finite label set.

    Points are ordered lexicographically by base-index pairs (i, j) with
    i <= j, so for base (a, b) the order is 2a, a+b, 2b.
    """

    base: tuple[str, ...]
    points: tuple[SymPoint, ...]

    def __post_init__(self) -> None:
        n = len(self.base)
        if len(self.points) != n * (n + 1) // 2:
            raise ValueError("a symmetric square has n(n+1)/2 points")

    def index_of(self, point) -> int:
        """Index of a point given as a SymPoint or its label."""
        for i, p in enumerate(self.points):
            if p == point or p.label == point:
                return i
        raise UnknownPoint(f"{point!r} is not a point of this symmetric square")


def _index_pairs(size: int) -> list[tuple[int, int]]:
    """Base-index pairs (i, j) with i <= j, in symmetric-point order."""
    return [(i, j) for i in range(size) for j in range(i, size)]


def symmetric_quotient(base) -> SymQuotient:
    base = tuple(base)
    points = tuple(
        SymPoint(base[i], base[j]) for i, j in _index_pairs(len(base))
    )
    return SymQuotient(base, points)


@dataclass(frozen=True)
class GSet:
    """A free action of a finite group on sheets over a labeled base.

    The point set is G x B acted on by left multiplication in the first
    slot; the orbit space is B.  The group must be a :class:`GroupTable`,
    whose construction validates the group axioms, and the base a nonempty
    tuple of distinct labels, so every GSet is the free model that
    :func:`free_gset` describes.
    """

    group: GroupTable
    base: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.group, GroupTable):
            raise TypeError("the group of a GSet must be a GroupTable")
        if not self.base:
            raise EmptyBase("the base needs at least one point")
        if len(set(self.base)) != len(self.base):
            raise ValueError("duplicate base labels")

    @property
    def size(self) -> int:
        return self.group.order * len(self.base)

    def g_of(self, z: int) -> int:
        return z // len(self.base)

    def b_of(self, z: int) -> int:
        return z % len(self.base)

    def point_label(self, z: int) -> str:
        g, b = self.g_of(z), self.b_of(z)
        if g == self.group.identity:
            return self.base[b]
        return f"{self.base[b]}.{g}"

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.point_label(z) for z in range(self.size))


def _left_translation(group: GroupTable, nb: int, g: int) -> tuple[int, ...]:
    """Images of (h, b) -> (g h, b) on the sheets over ``nb`` base points,
    read off row g of the multiplication table: the block of the nb sheets
    over h goes to the block over g h.

    On a validated table, g -> translation(g) is an injective
    homomorphism, with no check of its own: row e is the identity
    arrangement, so translation(e) = id; associativity gives
    translation(s)(translation(h)(k, b)) = (s (h k), b) = ((s h) k, b) =
    translation(s h)(k, b); and translation(g) sends the block over e to
    the block over g e = g, so distinct elements give distinct maps.
    """
    row = group.table[g]
    if nb == 1:
        return tuple(row)
    return tuple([h + b for h in [x * nb for x in row] for b in range(nb)])


def _reader(indices):
    """Reads a sequence at ``indices`` in one C-level call; one index
    occurs only over one sheet, where ``tuple`` reads the one item."""
    return operator.itemgetter(*indices) if len(indices) > 1 else tuple


@dataclass(frozen=True)
class WreathModel:
    """G ≀ Sₙ in its imprimitive action on n copies of the free G-set Z
    over nb base points (Dixon and Mortimer, *Permutation Groups*, 1996,
    §2.6).

    Point i |Z| + z is sheet z in copy i.  ``vector(v)`` is the direct sum
    that acts on copy i by v[i]'s translation, read from ``copies[i]``, so
    it keeps every copy; transposition lift i exchanges copies i and
    i + 1, sheet by sheet.  ``wreath`` is generated by the lifts and by
    vector(e, ..., e, s) for the generators s of G, and its order d^n n!
    is certified, never closed:

    * vector is an injective homomorphism from G^n, as g -> translation(g)
      is one (see :func:`_left_translation`) on each copy;
    * a permutation p of the copies acts as (i, z) -> (p(i), z), an
      injective homomorphism from Sₙ, and the lifts, images of the
      transpositions (i, i + 1), generate its image Ŝ;
    * the lift of p conjugates vector(v) into the vector with v[i] in copy
      p(i), so Ŝ normalizes V = vector(G^n), and meets it only in the
      identity, as V keeps every copy;
    * so V Ŝ is a group of order d^n n!.  It holds the generators and they
      generate it: with Ŝ they move each generator of G into every copy,
      which gives V.

    ``wreath.elements`` closes the generators on first read and checks
    that they reach exactly the certified order.

    The lifts and vectors are wrapped unvalidated (``permgroup._raw``), as
    is any sum copies[p(0)][g_0] + ... + copies[p(n - 1)][g_(n-1)] for a
    permutation p of the copies: copies[i][g], g's translation shifted into
    copy i, is a bijection onto copy i, so such a sum is a bijection.
    """

    wreath: Group
    transposition_lifts: tuple[Permutation, ...]
    copies: tuple[tuple[tuple[int, ...], ...], ...] = field(
        repr=False, compare=False)

    def vector(self, v) -> Permutation:
        return permgroup._raw(sum(map(tuple.__getitem__, self.copies, v), ()))


def wreath_product(table: GroupTable, nb: int, n: int) -> WreathModel:
    """The wreath product G ≀ Sₙ of ``table``'s group on n copies of its
    free G-set over ``nb`` base points (see :class:`WreathModel`)."""
    d = table.order
    size = d * nb
    translations = tuple(_left_translation(table, nb, g) for g in range(d))
    # Copy i reads each translation off its points, sharing their ints.
    copies = (translations,) + tuple(
        tuple([read(points) for read in map(_reader, translations)])
        for points in (tuple(range(i * size, i * size + size))
                       for i in range(1, n)))
    lifts = []
    for i in range(n - 1):
        arrangement = list(range(n))
        arrangement[i], arrangement[i + 1] = i + 1, i
        lifts.append(permgroup._raw(itertools.chain.from_iterable(
            range(c * size, c * size + size) for c in arrangement)))
    # vector(e, ..., e, s): the identity on every copy but the last.
    fixed = tuple(range((n - 1) * size))
    vectors = [permgroup._raw(fixed + copies[-1][s])
               for s in table.small_generating_set()]
    wreath = Group(*permgroup.generating_tuple(lifts + vectors, n * size),
                   d ** n * math.factorial(n))
    return WreathModel(wreath, tuple(lifts), copies)


def free_gset(group: GroupTable, base) -> GSet:
    """The standard free model of ``group`` over the labels ``base``.

    The action is free with no check of its own: g sends the sheet (h, b)
    to (g h, b), and column h of a validated table is a bijection holding
    h in the identity's row, so g h = h only for g = e.
    """
    return GSet(group, tuple(base))


@dataclass(frozen=True)
class HilbConstruction:
    """The squared construction of a free G-sheet model (see the module
    docstring), as :func:`assemble_construction` builds it and
    :func:`check_construction` checks it.

    ``swap`` and the three groups permute Z ⊔ Z, and an element moves the
    pair z * |Z| + w of the square by rho.  ``model`` is J's
    :class:`WreathModel`: the pair translation (g1, g) is
    ``model.vector((g1, g))``, and ``diagonal_copies[g]``, the pairs
    (z, g.z), are read from its copies when first read.  ``pair_group``,
    of certified order 2 d^2, lists its elements only when first read, and so
    do the diagonal group and an abelian antidiagonal group, which answer
    membership from their normal forms; a nonabelian antidiagonal group is
    closed.

    ``point_labels``, ``diagonal_labels`` and ``antidiagonal_labels`` give
    each pair k of the square a label whose class is its orbit under the
    pair, diagonal and antidiagonal group respectively.  ``sym_fibers[i]``
    lists the pair indices over symmetric point i;
    ``diagonal_orbit_fibers[i]`` / ``antidiagonal_orbit_fibers[i]`` list
    the orbits of the respective subgroup over symmetric point i, each
    orbit sorted, orbits ordered by smallest member.  The three are
    bucketed from the labels only when a caller first reads them; a caller
    that needs only sizes reads the counts recorded from the labels:
    ``xi_fiber_sizes[i]``, the number of pairs over point i, and
    ``antidiagonal_orbit_counts[i]``, the number of antidiagonal-group
    orbits there.
    """

    gset: GSet
    swap: Permutation
    pair_group: Group
    diagonal_group: Group
    antidiagonal_group: Group
    sym: SymQuotient
    xi_fiber_sizes: tuple[int, ...]
    antidiagonal_orbit_counts: tuple[int, ...]
    model: WreathModel = field(repr=False, compare=False)
    point_labels: list[int] = field(repr=False, compare=False)
    diagonal_labels: list[int] = field(repr=False, compare=False)
    antidiagonal_labels: list[int] = field(repr=False, compare=False)

    @property
    def d(self) -> int:
        return self.gset.group.order

    @cached_property
    def diagonal_copies(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_diagonal_copies(self.model.copies[0], self.gset.size))

    @cached_property
    def sym_fibers(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_label_classes(self.point_labels, len(self.sym.points)))

    @cached_property
    def diagonal_orbit_fibers(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        d = self.d
        return _split_by_point(_label_classes(
            self.diagonal_labels, len(self.sym.points) * d), d)

    @cached_property
    def antidiagonal_orbit_fibers(self
                                  ) -> tuple[tuple[tuple[int, ...], ...], ...]:
        classes = self.antidiagonal_orbit_counts[0]  # |G/[G, G]| everywhere
        return _split_by_point(_label_classes(
            self.antidiagonal_labels, len(self.sym.points) * classes),
            classes)


def _rows(labels, n: int) -> list[tuple[int, ...]]:
    """The labels of the pairs z * n + w cut into n rows, row z in w order."""
    return list(zip(*[iter(labels)] * n))


def _label_lines(labels, n: int) -> list[tuple[int, ...]]:
    """The rows of ``labels`` and then its columns: line n + w holds the
    labels of the pairs z * n + w in z order."""
    rows = _rows(labels, n)
    return rows + list(zip(*rows))


def _rows_through(lines, images) -> list[tuple[int, ...]]:
    """The rows of the labels of the pairs rho(x)(z, w), x given by its
    images on Z ⊔ Z and mapping copies onto copies (``lines`` from
    :func:`_label_lines`, n = |Z|).  The pair (z, w), the transversal
    {z, n + w}, goes to {x(z), x(n + w)}: the label in row x(z) at column
    x(n + w) - n if x keeps the copies, in column x(z) - n at row
    x(n + w) if it exchanges them.  Either way row z is line x(z) read at
    x(n + w) mod n, one C-level ``itemgetter`` call per row."""
    n = len(images) // 2
    read = _reader([w % n for w in images[n:]])
    return list(map(read, map(lines.__getitem__, images[:n])))


def _fixes_transversals(maps, n: int, firsts, seconds) -> bool:
    """Whether rho of the product of ``maps`` (images on Z ⊔ Z, applied
    first to last) fixes every pair {firsts[j], seconds[j]} of the square,
    given as a transversal of Z ⊔ Z (firsts in the first copy, seconds in
    the second).  A pair is fixed, as rho reads it, exactly when its
    transversal is.  Each map sends copies onto copies, so its first
    image says whether it keeps them or exchanges them for every pair.
    All 2 |firsts| points are read through each map by one ``itemgetter``;
    if the product exchanges the copies, each first point must land on its
    second and each second on its first, so the result is one comparison
    either way."""
    points = (*firsts, *seconds)
    exchanged = False
    for images in maps:
        points = operator.itemgetter(*points)(images)
        exchanged ^= images[0] >= n
    if exchanged:
        return points == (*seconds, *firsts)
    return points == (*firsts, *seconds)


def _diagonal_copies(translations, n: int):
    """The copies of the sheets in the square, one by one: copy g holds
    the pairs z * n + g.z, read off g's translation."""
    row_starts = range(0, n * n, n)
    return (tuple(map(operator.add, row_starts, tr)) for tr in translations)


def _pair_labels(translations, tables) -> list[int]:
    """A label for each pair of the square: the pair ((g1, b), (g2, b'))
    gets ``tables[b][b'][t]``, where ``translations[g1]`` sends the sheet
    (g2, b') to (t, b').  So the row of sheet (g1, b), in sheet order
    (g2, b'), is the row of (e, b), ``tables[b][b'][g2]``, read at
    ``translations[g1]``: one C-level call per row."""
    starts = [tuple(itertools.chain.from_iterable(zip(*by_second)))
              for by_second in tables]
    labels: list[int] = []
    for read in map(_reader, translations):
        for start in starts:
            labels.extend(read(start))
    return labels


def _point_labels(gset: GSet, sym_of) -> list[int]:
    """The pair-group label of each pair: its symmetric point.  Pair
    z * n + w lies over sym_of[b][b'] for the base points b, b' of z and
    w alone, so each row of the square repeats sym_of[b] d times."""
    d = gset.group.order
    return list(itertools.chain.from_iterable(
        sym_of[b] * d for b in range(len(gset.base))
    )) * d


def _diagonal_labels(table: GroupTable, translations, sym_of) -> list[int]:
    """The diagonal-group label of each pair ((g1, b), (g2, b')): i * d + r
    over symmetric point i, where r = g1^-1 g2 if b < b', r^-1 if b > b'
    and min(r, r^-1) if b = b', read at g1^-1's translation."""
    d, inv = table.order, table.inverses
    nb = len(sym_of)
    # min(r, r^-1), r^-1 and r for every r, at the sign 0, 1, -1 of b - b'.
    orientations = (tuple(map(min, range(d), inv)), inv, range(d))
    oriented = [
        [tuple([sym_of[b][b2] * d + r
                for r in orientations[(b > b2) - (b < b2)]])
         for b2 in range(nb)]
        for b in range(nb)
    ]
    return _pair_labels(list(map(translations.__getitem__, inv)), oriented)


def _antidiagonal_labels(translations, sym_of, class_of,
                         classes: int) -> list[int]:
    """The antidiagonal-group label of each pair ((g1, b), (g2, b')):
    i * classes + the class of g1 g2 in G/[G, G], over symmetric point i,
    read at g1's translation (``translations[g]``)."""
    nb = len(sym_of)
    by_product = [
        [tuple([sym_of[b][b2] * classes + c for c in class_of])
         for b2 in range(nb)]
        for b in range(nb)
    ]
    return _pair_labels(translations, by_product)


def _check_labels_kept(lines, gens, what: str) -> None:
    """Check that the square action of every generator in ``gens`` keeps
    every label (``lines`` from :func:`_label_lines`), the rows read
    through it compared with the rows, so each orbit lies in one label
    class."""
    rows = lines[:len(lines) // 2]
    for x in gens:
        if _rows_through(lines, x.images) != rows:
            raise HomomorphismFailure(
                f"{what} generators do not keep the orbit labels"
            )


def _classes_per_point(labels, per_point: int, points: int) -> list[int]:
    """The number of distinct labels i * per_point + r over each symmetric
    point i, read from the set of labels."""
    owners = [label // per_point for label in set(labels)]
    return list(map(owners.count, range(points)))


def _label_classes(labels, count: int) -> list[tuple[int, ...]]:
    """The pairs of the square bucketed by their label in range(count),
    each bucket in index order."""
    buckets: list[list[int]] = [[] for _ in range(count)]
    appends = [bucket.append for bucket in buckets]
    for k, label in enumerate(labels):
        appends[label](k)
    return [tuple(bucket) for bucket in buckets]


def _split_by_point(classes, per_point: int
                    ) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Label classes i * per_point + r grouped by symmetric point i, empty
    ones dropped, ordered by smallest member."""
    return tuple(
        tuple(sorted(filter(None, classes[i:i + per_point])))
        for i in range(0, len(classes), per_point)
    )


def _swap_normal_form(model: WreathModel, partner, gens) -> Group:
    """The group maps ⊔ swap . maps on Z ⊔ Z of the pair group ``model``,
    for maps[g] = pair(g, partner[g]), an injective image of G that
    conjugation by the involution swap keeps, so the union is closed (both
    proved in :func:`assemble_construction`), generated by the swap and the
    maps of ``gens``.  Membership is read off the normal form, and the
    members are listed only when first read (``Group.member_at``):
    maps[g] = copies[0][g] + copies[1][partner[g]] and swap . maps[g] =
    copies[1][g] + copies[0][partner[g]] send point 0 to g.0 and
    |Z| + g.0, distinct by the free action."""
    swap, = model.transposition_lifts
    first, second = model.copies
    n = len(first[0])
    at = {tr[0]: g for g, tr in enumerate(first)}  # g.z0 -> g

    def member_at(p: int) -> Permutation | None:
        g = at.get(p % n)
        return None if g is None else permgroup._raw(
            first[g] + second[partner[g]] if p < n
            else second[g] + first[partner[g]])

    return Group(*permgroup.generating_tuple(
        (swap, *(member_at(first[s][0]) for s in gens)), 2 * n),
        2 * len(at), member_at)


def refuse_pair_group_over_cap(d: int, cap: int) -> None:
    """Raise ``CapExceeded`` if the pair group of an order-``d`` group,
    of order 2 d^2, would pass ``cap``."""
    if 2 * d * d > cap:
        raise CapExceeded(f"group closure exceeded cap of {cap} elements")


def assemble_construction(gset: GSet, *, cap: int = DEFAULT_ELEMENT_CAP
                          ) -> HilbConstruction:
    """Build everything :class:`HilbConstruction` holds for ``gset`` and
    check nothing; :func:`check_construction` checks the laws.

    Raises ``CapExceeded`` before building anything if the pair group, of
    order 2 d^2, would pass ``cap``.

    Every map is built as what it is, with no check of its own.  The pair
    group J is G ≀ C2 on the two copies, :func:`wreath_product` at n = 2,
    so its order 2 d^2 is certified there, never closed (see
    :class:`WreathModel`).  Its one transposition lift is the swap, which
    sends point z to |Z| + z and back, an involution that exchanges the
    copies.  The pair translation pair(g1, g) = vector((g1, g)) is g1's
    translation on the first copy and g's on the second, so it keeps each
    copy and moves the pair (z, w) to (g1.z, g.w) under rho.  The
    second-slot map of g is pair(e, g), the diagonal map
    diag(g) = pair(g, g) and the antidiagonal map anti(a) = pair(a, a^-1).
    J is generated by the swap and the slot maps of G's generators.  Write
    P for the pair translations: pair is an injective homomorphism from
    G x G, J = P ⊔ swap . P, and swap . pair(g1, g) . swap = pair(g, g1).
    So the sign (-1 when an element exchanges the copies, 1 when it keeps
    them) is a homomorphism from J onto the order-2 group with kernel P,
    and the swap, an involution of sign -1, splits it.  The swap carries
    each copy's images to the other, so swap . pair(g1, g) is the sum
    copies[1][g1] + copies[0][g]: the swap halves of D and H are such
    sums, with no product.  No map is held: each is read from the model's
    copies when a check needs it.

    The diagonal group D, and the antidiagonal group H of an abelian G,
    answer membership from their normal forms (:func:`_swap_normal_form`),
    never closed (same reference):

    * D = diag(G) ⊔ swap . diag(G).  diag is pair on the diagonal of
      G x G, so an injective homomorphism, and
      swap . diag(s) . swap = diag(s), so the involution swap centralizes
      diag(G) and the union is a group.  It has order 2 d, as its swap
      half exchanges the copies and diag(G) keeps them; it holds D's
      generators (the swap and the diag(s)) and lies in D, so it is D;
    * anti(s) . anti(b) = pair(s b, s^-1 b^-1) while
      anti(s b) = pair(s b, b^-1 s^-1), so anti is a homomorphism exactly
      when G is abelian, and then an injective one, as pair is.  For
      abelian G, H = anti(G) ⊔ swap . anti(G) in the same way as D:
      swap . anti(s) . swap = pair(s^-1, s) = anti(s^-1), as the inverse
      map of a validated table is an involution, so conjugation by the
      swap inverts anti(G); its order is 2 d = 2 d |[G, G]|.  Its swap
      member swap . anti(g) = copies[1][g] + copies[0][g^-1] fixes copy g,
      the transversals {z, |Z| + g.z}, pointwise, which makes the
      intermediate quotient tame along the doubled locus: it sends z to
      |Z| + g.z and |Z| + g.z to g^-1.(g.z) = z, as translation is a
      homomorphism and g^-1 g = e in the validated table.  A nonabelian
      H is closed from the swap, the antidiagonal maps of G's generators
      and (c, e) for c in [G, G]: with the swap these give
      [G, G] x [G, G], and modulo that the antidiagonal maps of generators
      give every (a, a^-1);
    * when every g satisfies g^2 = e, a^-1 = a, so anti(a) = diag(a) for
      every a, and G is abelian: H and D have the same normal form, so
      the two intermediate subgroups coincide.

    The generators of D and H are the swap and pair translations, so both
    lie in J by construction, and so do the slot maps.

    The labels read the model's sheet coordinates: the sheet translation
    of g is read off row g of the validated table
    (:func:`_left_translation`), so it is (h, b) -> (g h, b), and the row
    of labels of sheet (g1, b), reading g1 g2 or g1^-1 g2 at (g2, b'), is
    that of (e, b) read at g1's or g1^-1's translation
    (:func:`_pair_labels`).  The fiber sizes are recorded as how often
    each symmetric point occurs among the point labels, and the
    antidiagonal orbit counts as the distinct antidiagonal labels over
    each point.
    """
    table = gset.group
    refuse_pair_group_over_cap(table.order, cap)
    nb = len(gset.base)
    gens_of_g = table.small_generating_set()
    model = wreath_product(table, nb, 2)
    swap, = model.transposition_lifts
    first = model.copies[0]
    if table.is_abelian:
        antidiagonal_group = _swap_normal_form(model, table.inverses,
                                               gens_of_g)
    else:
        antidiagonal_group = permgroup.generate(
            (swap,) + tuple(model.vector((s, table.inverses[s]))
                            for s in gens_of_g)
            + tuple(model.vector((c, table.identity))
                    for c in table.commutator_subgroup()),
            domain_size=2 * gset.size, cap=cap,
        )

    # Symmetric points: sym_of[b][b'] indexes the point {b, b'}.
    sym = symmetric_quotient(gset.base)
    sym_count = len(sym.points)
    sym_index = {ij: i for i, ij in enumerate(_index_pairs(nb))}
    sym_of = [[sym_index[(min(bz, bw), max(bz, bw))] for bw in range(nb)]
              for bz in range(nb)]
    ab_table, class_of = table.abelianization
    point_labels = _point_labels(gset, sym_of)
    anti_labels = _antidiagonal_labels(first, sym_of, class_of,
                                       ab_table.order)
    return HilbConstruction(
        gset=gset,
        swap=swap,
        pair_group=model.wreath,
        diagonal_group=_swap_normal_form(model, range(table.order),
                                         gens_of_g),
        antidiagonal_group=antidiagonal_group,
        sym=sym,
        xi_fiber_sizes=tuple(map(point_labels.count, range(sym_count))),
        antidiagonal_orbit_counts=tuple(
            _classes_per_point(anti_labels, ab_table.order, sym_count)),
        model=model,
        point_labels=point_labels,
        diagonal_labels=_diagonal_labels(table, first, sym_of),
        antidiagonal_labels=anti_labels,
    )


def check_construction(c: HilbConstruction) -> None:
    """Check every law of the squared construction ``c``, reading nothing
    but ``c``.  A failed law raises :class:`HomomorphismFailure` naming it
    (it means the model itself is broken, not the input).

    A law about all of G or all of J is checked on generators only where a
    standard induction carries it to every element: a map phi from a
    finite group with phi(e) = id and phi(s h) = phi(s) phi(h) for every
    generator s and every h is a homomorphism, and the elements that
    commute with a fixed element form a subgroup.  Each law's proof sits
    at its check.
    """
    table = c.gset.group
    d, n = table.order, c.gset.size
    identity = table.identity
    gens_of_g = table.small_generating_set()
    first = c.model.copies[0]
    pair_gens = (c.swap,) + tuple(c.model.vector((identity, s))
                                  for s in gens_of_g)
    sym_count = len(c.sym.points)
    doubled = {i for i, p in enumerate(c.sym.points) if p.is_diagonal}

    # D is normal in J exactly when every g satisfies g^2 = e, that is when
    # t = #{g : g^2 = e} is d; normality is settled on J's generators (see
    # permgroup.normalized_by).  H is normal as the slot product's kernel.
    t = table.squares.count(identity)
    if permgroup.normalized_by(c.diagonal_group, c.pair_group.generators) \
            != (t == d):
        raise HomomorphismFailure(
            "diagonal group normality differs from the g^2 = id condition"
        )

    # The slot product, sending x in J to the class of g1 g in G/[G, G],
    # where (g1.b0, g.b0) = rho(x)(b0, b0), is a homomorphism onto
    # G/[G, G] with kernel exactly H: the intermediate quotient is Galois
    # with deck group G/[G, G], all of G in the abelian case.  It is read
    # from the antidiagonal labels i * classes + class of g1 g2 over
    # symmetric point i: the swap keeps each label, and slot-map(s)
    # multiplies each label's class by the class of s.  As rho is a
    # homomorphism, the elements that multiply every class by one value
    # form a subgroup, on which the value is multiplicative; it holds the
    # generators, so it is J, and an element's value is its slot product
    # (the label of (b0, b0) has class 1).  G/[G, G] has one element for
    # each coset of [G, G], and rho(x)(b0, b0) hits each pair over
    # (b0, b0) twice as x runs over J, so the kernel has order twice the
    # number of those pairs of class 1, d |[G, G]|, checked to be |H|.  H
    # lies in the kernel, as its generators keep every antidiagonal label
    # (the orbit check below), so it is the kernel, and so normal in J, as
    # a kernel is; its order and this check reject a wrong generating set
    # of H.
    ab_table, class_of = table.abelianization
    classes = ab_table.order
    anti_labels = c.antidiagonal_labels
    anti_lines = _label_lines(anti_labels, n)
    gen_values = [ab_table.identity] + [class_of[s] for s in gens_of_g]
    targets = _reader(anti_labels)  # the labels read off times
    for x, value in zip(pair_gens, gen_values):
        times = [i + k for i in range(0, sym_count * classes, classes)
                 for k in ab_table.table[value]]
        if _rows_through(anti_lines, x) != _rows(targets(times), n):
            raise HomomorphismFailure("slot product is not a homomorphism")
    # Label ab_table.identity is class 1 over point 0 = (b0, b0).
    if 2 * anti_labels.count(ab_table.identity) != len(c.antidiagonal_group):
        raise HomomorphismFailure(
            "slot-product kernel is not the antidiagonal group"
        )

    # The three orbit partitions are read from the labels, with no orbit
    # search: _check_labels_kept puts each orbit in one label class, and
    # each class is one orbit for the reason given at its check.  J labels
    # a pair ((g1, b), (g2, b')) by its symmetric point {b, b'}.  P moves
    # it to every pair over (b, b') and the swap to (b', b), so the orbits
    # are the symmetric-point fibers, of 2 d^2 pairs off the doubled locus
    # and d^2 on it.
    point_labels = c.point_labels
    _check_labels_kept(_label_lines(point_labels, n), pair_gens, "pair-group")
    if c.xi_fiber_sizes != tuple(d * d if i in doubled else 2 * d * d
                                 for i in range(sym_count)):
        raise HomomorphismFailure("fiber size law failed")
    # The d diagonal copies T[g] = {(z, g.z)} are disjoint sheet sets: T[g]
    # holds one pair for each sheet z, and T[g] and T[h] share none for
    # g != h, as g.z = h.z would make h^-1 g != e fix z, which the free
    # action rules out (see free_gset).  The d copies of |Z| = d |B| pairs
    # and the |B| doubled fibers of d^2 pairs each both hold |B| d^2
    # pairs, so the copies are the doubled-locus preimage once they lie
    # over doubled points.
    if not doubled.issuperset(itertools.chain.from_iterable(
            _reader(copy)(point_labels)
            for copy in _diagonal_copies(first, n))):
        raise HomomorphismFailure(
            "diagonal copies do not exhaust the doubled-locus preimage"
        )

    # D labels a pair by its symmetric point and r = g1^-1 g2 if b < b',
    # r^-1 if b > b' and min(r, r^-1) if b = b'.  D holds every diagonal
    # translation, (g1, g2) -> (g g1, g g2), which keeps r and runs
    # through the d pairs of each r over (b, b'), and the swap, which
    # exchanges (b, b') with (b', b) and r with r^-1.  So its orbits over a
    # symmetric point number d off the doubled locus and (d + t) / 2 on
    # it, where each class pair {r, r^-1} merges.
    _check_labels_kept(_label_lines(c.diagonal_labels, n),
                       c.diagonal_group.generators, "diagonal-group")
    if _classes_per_point(c.diagonal_labels, d, sym_count) != [
            (d + t) // 2 if i in doubled else d for i in range(sym_count)]:
        raise HomomorphismFailure("diagonal-group orbit count law failed")

    # H labels a pair by its symmetric point and the class of g1 g2 in
    # G/[G, G].  The copy-keeping half of H, the kernel of the sign on H,
    # has index 2 in H, as the swap lies in H with sign -1, so it has
    # order d |[G, G]| (|H| is checked above); it acts freely on pairs, as
    # the translations do, so its orbits on the d^2 pairs over (b, b')
    # have d |[G, G]| members, as many as a label class holds there.  With
    # the swap, each class over a symmetric point is one orbit, so they
    # number |G/[G, G]| over every point (d for abelian G): the
    # intermediate quotient is unramified.
    _check_labels_kept(anti_lines, c.antidiagonal_group.generators,
                       "antidiagonal-group")
    if c.antidiagonal_orbit_counts != (classes,) * sym_count:
        raise HomomorphismFailure(
            "antidiagonal-group orbit count is not the abelianization order"
        )


def build_construction(gset: GSet, *, cap: int = DEFAULT_ELEMENT_CAP) -> HilbConstruction:
    """The squared construction of ``gset``, assembled
    (:func:`assemble_construction`) and then checked
    (:func:`check_construction`): every law is checked on every call or
    certified by how the construction is built.

    Raises ``CapExceeded`` before building anything if the pair group, of
    order 2 d^2, would pass ``cap``.
    """
    c = assemble_construction(gset, cap=cap)
    check_construction(c)
    return c


def diagonal_components(c: HilbConstruction) -> dict[int, tuple[int, ...]]:
    """The d disjoint sheets over the doubled locus, keyed by g.

    Sheet g is {(z, g.z)}; the sheets are disjoint by the free action, and
    their exhaustion of the doubled-locus preimage is checked at
    construction time.
    """
    return dict(enumerate(c.diagonal_copies))


def fixed_components(c: HilbConstruction) -> frozenset[int]:
    """Labels g of diagonal copies fixed pointwise by a nontrivial element
    of the diagonal group.

    The diagonal group is diag(G) ⊔ swap . diag(G) (its normal form, see
    :func:`assemble_construction`), and only swap . diag(g) can fix copy g,
    T[g] = {(z, g.z)}, pointwise: diag(h) with h != e moves every pair, as
    the action is free, and swap . diag(h) sends (z, g.z) to (h g.z, h.z),
    a fixed point only if h = g and g^2 = e.  So each copy's one
    candidate is read on all of the copy's pairs in one pass, and the
    result is re-checked against the closed form {g : g * g = identity}
    (the swap itself fixes the true diagonal).  Note the contrast with the
    antidiagonal group, where every diagonal copy has a pointwise fixer.
    """
    n = c.gset.size
    # diag(g) = copies[0][g] + copies[1][g] moves the second copy by g, so
    # copy g, the pairs (z, g.z), is the transversals {z, copies[1][g][z]}.
    found = {g for g, (tr, shifted) in enumerate(zip(*c.model.copies))
             if _fixes_transversals((tr + shifted, c.swap), n, range(n),
                                    shifted)}
    identity = c.gset.group.identity
    closed_form = {g for g, square in enumerate(c.gset.group.squares)
                   if square == identity}
    if found != closed_form:
        raise HomomorphismFailure(
            f"fixed diagonal copies {sorted(found)} disagree with the order-2 "
            f"prediction {sorted(closed_form)}"
        )
    return frozenset(found)


_NONABELIAN_DECK = (
    "the squared construction needs an abelian deck group: with a "
    "nonabelian one the intermediate quotient only realizes the "
    "abelianized cover, not a cover of the full degree"
)


def _sheets(labels: list[int], per_point: int) -> dict[int, int]:
    """The label classes i * per_point + c of ``labels`` as sheets,
    numbered point by point over the symmetric points i, and over each
    point in the order their labels first occur, which is the order of the
    classes' smallest members: the sheet number of each label, keyed in
    sheet order.  ``dict.fromkeys`` lists the labels in the order they
    first occur, in one C-level pass."""
    ordered = sorted(dict.fromkeys(labels), key=per_point.__rfloordiv__)
    return dict(zip(ordered, itertools.count()))


def square_cover(gset: GSet, base_label: str, *,
                 ramification_labels=frozenset(),
                 cap: int = DEFAULT_ELEMENT_CAP) -> CoverDescriptor:
    """The cover of the Hilbert square of ``base_label`` induced by the
    free model ``gset`` of an abelian group G of order d.

    Over each symmetric point ``P`` its d sheets are the antidiagonal-group
    orbits of :func:`build_construction`, labeled ``P#0 .. P#(d-1)`` by
    smallest member, which is the order in which their antidiagonal labels
    first occur (:func:`_sheets`); sheets over doubled points are the
    center labels (the locus blown up downstairs), and no ramification is
    introduced.  The deck group is G acting through the second-slot maps,
    read off the table: the orbits are the label classes i * d + c, where
    c is the class of g1 g2 in G/[G, G] = G, and the checked slot-product
    law says that the slot map of g multiplies every class by g, so deck(g)
    sends the sheet of label i * d + c to that of label i * d + g c.  So
    g -> deck(g) is a homomorphism by associativity of the validated table,
    and injective by cancellation, with no check of its own: its image is
    closed and isomorphic to G.  Its generators are the greedy generators
    of that image in sorted order, which the table walks over the elements
    g sorted by deck(g): x is reached from the identity by the earlier
    generators in the table exactly when deck(x) is by their images, and
    the walk picks the same generators as one over the permutations
    (:func:`permgroup.group_from_elements`).
    That G acts faithfully on the sheets of ``gset`` needs no check of its
    own: the validated table makes the action free (see :func:`free_gset`),
    and the pair group has the certified order 2 d^2
    (:func:`assemble_construction`), so the generators it uses generate G.
    """
    table = gset.group
    if not table.is_abelian:
        raise NonAbelianDeckGroup(_NONABELIAN_DECK)
    c = build_construction(gset, cap=cap)
    d = table.order

    suffixes = [f"#{k}" for k in range(d)]
    names = [tuple(map(p.label.__add__, suffixes)) for p in c.sym.points]
    total = tuple(itertools.chain.from_iterable(names))
    center = tuple(itertools.chain.from_iterable(
        point_names for p, point_names in zip(c.sym.points, names)
        if p.is_diagonal
    ))

    # deck(g) sends the sheet of label i * d + c to that of i * d + g c.
    sheet_of = _sheets(c.antidiagonal_labels, d)
    points = [label - label % d for label in sheet_of]  # i * d
    classes = [label % d for label in sheet_of]  # c
    deck = [Permutation(map(sheet_of.__getitem__,
                            map(operator.add, points,
                                map(row.__getitem__, classes))))
            for row in table.table]
    gens = _greedy_generators(sorted(range(d), key=deck.__getitem__),
                              table.identity, table._right_multiplication)
    deck_group = permgroup._listed(len(total), map(deck.__getitem__, gens),
                                   deck)

    return CoverDescriptor(
        base_label=f"Hilb2({base_label})",
        total_points=total,
        monodromy=deck_group,
        degree=d,
        deck_group=deck_group,
        galois=True,
        ramification_labels=ramification_labels,
        center_labels=center,
    )


def hilb_square_cover(xi: CoverDescriptor, *,
                      cap: int = DEFAULT_ELEMENT_CAP) -> CoverDescriptor:
    """The induced cover of the Hilbert square of the base of ``xi``.

    ``xi`` must be Galois with an abelian deck group acting freely on its
    sheets.  :func:`square_cover` builds the result from the deck group's
    table over its sorted elements, acting on the sheets over the deck
    orbits, each orbit labeled by its smallest sheet label (distinct
    labels, because the sheet labels are).
    """
    if not xi.galois:
        raise NotGalois("the squared construction needs a Galois input cover")
    deck = xi.deck_group
    if not deck.is_abelian():
        raise NonAbelianDeckGroup(_NONABELIAN_DECK)
    for p in deck.element_list:
        if not p.is_identity and any(p(x) == x for x in range(deck.domain_size)):
            raise NotGalois("deck group does not act freely on the sheets")

    table, _, _ = permgroup.quotient_table(
        deck, Group.trivial(deck.domain_size)
    )
    base_labels = tuple(
        min(xi.total_points[i] for i in block)
        for block in permgroup.orbits(deck)
    )

    return square_cover(
        free_gset(table, base_labels), xi.base_label,
        ramification_labels=xi.ramification_labels, cap=cap,
    )
