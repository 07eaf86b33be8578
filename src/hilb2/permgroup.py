"""Exact finite permutation-group engine.

Groups are closed under composition element by element (with a hard cap),
subgroup lattices are found by repeatedly extending known subgroups by
single elements, and normality is settled by conjugating the subgroup's
generators with the group's generators.  A group whose order is certified
without closing it (a regular action, see :func:`is_regular`, or a
wreath product G ≀ Sₙ that :class:`hilbcover.WreathModel` certifies)
lists its elements only when they are first read, as does a group given
by a normal form (``Group.member_at``).
No stabilizer chains, no randomness: at the scales this package works with
(a few thousand elements at most) full enumeration keeps every answer
independently auditable and bit-for-bit reproducible.

Every constructor here keeps ``Group.generators`` a generating set of the
group (identity elements dropped), so a property of the whole group that is
preserved by products and inverses is checked on the generators alone:
normality, normal closures, and the derived subgroup as the normal closure
of the generators' commutators (Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, 2005).

A :class:`Permutation` is its image tuple (a ``tuple`` subclass), so
sets, dicts and sorting hash and compare permutations in C.  Closures and
coset tables (:func:`generate`, :attr:`Group.elements`,
:func:`small_generating_set`, :func:`quotient_table`) run the shared walks
of :mod:`tables` on right-multiplication maps x -> x·g, one
``operator.itemgetter`` per generator or coset representative
(:func:`_right_multiplication`), so no product runs a Python frame; the
walks keep plain image tuples, and each element of a closed group is
wrapped as a :class:`Permutation` once.

All objects are immutable after construction (a listed element set is
filled in once and never changes), so they can be shared freely across
threads and used as dictionary keys.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial
import itertools
from math import lcm
from operator import itemgetter
from typing import Callable

from .errors import (CapExceeded, DomainMismatch, HomomorphismFailure,
                     NotAGroup, NotASubgroup)
from .tables import (GroupTable, _closure, _coset_table, _greedy_generators,
                     invariants_from_orders)

DEFAULT_ELEMENT_CAP = 20000
DEFAULT_SUBGROUP_CAP = 512


class Permutation(tuple):
    """A bijection of {0, ..., n-1}: the tuple of its images.

    Hashing, equality and ordering are those of the image tuple and run in
    C, so a permutation is looked up in a set or dict, and sorted, at tuple
    cost; ``sorted`` puts permutations in image-tuple order.
    """

    __slots__ = ()

    def __new__(cls, images) -> "Permutation":
        self = tuple.__new__(cls, images)
        n = len(self)
        if n and (len(set(self)) != n or min(self) < 0 or max(self) >= n):
            raise ValueError(
                f"not a bijection of 0..{n - 1}: {tuple.__repr__(self)}")
        return self

    def __repr__(self) -> str:
        return f"Permutation(images={tuple.__repr__(self)})"

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return _raw(range(n))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        """Build a permutation of {0..n-1} from disjoint cycles."""
        images = list(range(n))
        for cycle in cycles:
            for i, x in enumerate(cycle):
                images[x] = cycle[(i + 1) % len(cycle)]
        return cls(images)

    @property
    def images(self) -> "Permutation":
        """The tuple of images, which is the permutation itself."""
        return self

    @property
    def domain_size(self) -> int:
        return len(self)

    def __call__(self, x: int) -> int:
        return self[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: ``(p * q)(x) = p(q(x))``, i.e. apply ``q`` first."""
        if len(self) != len(other):
            raise DomainMismatch(
                f"cannot compose permutations of sizes {len(self)} and "
                f"{len(other)}"
            )
        return _raw(_right_multiplication(other)(self))

    def inverse(self) -> "Permutation":
        inverse = [0] * len(self)
        for x, y in enumerate(self):
            inverse[y] = x
        return _raw(inverse)

    @property
    def is_identity(self) -> bool:
        return self == tuple(range(len(self)))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each rotated to start at its smallest point."""
        seen = [False] * len(self)
        out = []
        for start in range(len(self)):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            x = self[start]
            while x != start:
                seen[x] = True
                cycle.append(x)
                x = self[x]
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return tuple(out)

    def order(self) -> int:
        return lcm(1, *(len(c) for c in self.cycles()))


# Wrap images already known to be a bijection as a Permutation, skipping
# the constructor's check: only for tuples made by composing or inverting
# validated permutations.  A C-level call, so wrapping each element of a
# closed group costs no Python frame.
_raw = partial(tuple.__new__, Permutation)


def _right_multiplication(g: Permutation):
    """The map x -> x·g on image tuples, ``(x·g)(i) = x(g(i))``: it picks
    the images of x at the images of g, with no Python frame per product.
    Every product is made by one of these maps: ``*`` wraps its result at
    once, and the shared walks of :mod:`tables` keep plain tuples, wrapped
    once each when the walk is done."""
    if len(g) > 1:
        # g[:] is a plain tuple, which * passes on as is; a subclass
        # would be copied item by item.
        return itemgetter(*g[:])
    # itemgetter returns a bare item for one index and needs at least one;
    # on at most one point every permutation is the identity.
    return tuple


@dataclass(frozen=True, eq=False)
class Group:
    """A permutation group on a fixed domain, of known order.

    ``generators`` generate the group and ``order`` is its size.  The
    elements are listed on first use: a group built by closure has them
    already; a group given by a normal form reads them off ``member_at``
    (its member, if any, that sends point 0 to a given point; the caller
    certifies that these form the group), which also answers ``in``; and
    a group of certified order closes its generators when ``elements`` is
    first read and checks that the closure has exactly ``order`` elements.
    ``element_list`` is sorted by image tuple, which fixes a canonical
    element order used for every deterministic construction downstream.
    """

    domain_size: int
    generators: tuple[Permutation, ...]
    order: int
    member_at: Callable[[int], Permutation | None] | None = None

    @classmethod
    def trivial(cls, domain_size: int) -> "Group":
        return _listed(domain_size, (), {Permutation.identity(domain_size)})

    @cached_property
    def elements(self) -> frozenset[Permutation]:
        if self.member_at is not None:
            return frozenset(filter(None, map(self.member_at,
                                              range(self.domain_size))))
        try:
            elements = _close(self.domain_size, self.generators, self.order)
        except CapExceeded:
            elements = ()
        if len(elements) != self.order:
            raise HomomorphismFailure(
                f"the generators do not close to the certified order "
                f"{self.order}"
            )
        return elements

    @cached_property
    def element_list(self) -> tuple[Permutation, ...]:
        return tuple(sorted(self.elements))

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.domain_size)

    def __contains__(self, p: Permutation) -> bool:
        if self.member_at is None:
            return p in self.elements
        return bool(p) and self.member_at(p[0]) == p

    def __iter__(self):
        return iter(self.element_list)

    def __len__(self) -> int:
        return self.order

    def __eq__(self, other) -> bool:
        if not isinstance(other, Group):
            return NotImplemented
        return (
            self.domain_size == other.domain_size
            and self.order == other.order
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.domain_size, self.elements))

    def __repr__(self) -> str:
        return f"Group(domain_size={self.domain_size}, order={self.order})"

    def is_abelian(self) -> bool:
        gens = self.generators or self.element_list
        return all(a * b == b * a for a in gens for b in gens)

    def is_subgroup_of(self, other: "Group") -> bool:
        return (
            self.domain_size == other.domain_size
            and self.elements <= other.elements
        )


def _listed(domain_size: int, generators, elements) -> Group:
    """A :class:`Group` whose closed element set is already known; it
    fills the ``elements`` cache, so nothing is closed again."""
    group = Group(domain_size, tuple(generators), len(elements))
    group.__dict__["elements"] = frozenset(elements)
    return group


def generating_tuple(gens, domain_size: int | None = None
                     ) -> tuple[int, tuple[Permutation, ...]]:
    """``(domain_size, generators)`` as every group here stores them: the
    distinct generators in image order, identities dropped, all checked to
    act on ``domain_size`` points (read off the first one when omitted)."""
    gens = sorted(set(gens))
    if domain_size is None:
        if not gens:
            raise DomainMismatch("an empty generating set needs an explicit domain_size")
        domain_size = gens[0].domain_size
    for g in gens:
        if g.domain_size != domain_size:
            raise DomainMismatch(
                f"generator on {g.domain_size} points does not act on "
                f"{domain_size} points"
            )
    # x * e = x would only repeat a lookup.
    return domain_size, tuple(g for g in gens if not g.is_identity)


def generate(gens, *, domain_size: int | None = None,
             cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    """Close a set of permutations under composition.

    The closure is a breadth-first walk over products, so it visits exactly
    the generated group; inverses appear automatically because every
    element of a finite group is a positive power of itself.  Raises
    :class:`CapExceeded` as soon as the closure would pass ``cap`` elements.
    """
    domain_size, gens = generating_tuple(gens, domain_size)
    return _listed(domain_size, gens, _close(domain_size, gens, cap))


def _close(domain_size: int, gens, cap: int) -> frozenset[Permutation]:
    """The elements ``gens`` generate, by :func:`tables._closure` through
    their right-multiplication maps; the walk keeps plain image tuples and
    each element is wrapped once, after it."""
    members = _closure([tuple(range(domain_size))],
                       list(map(_right_multiplication, gens)), cap)
    return frozenset(map(_raw, members))


def group_from_elements(domain_size: int, elements) -> Group:
    """Wrap an already-closed element set as a :class:`Group`.

    The caller promises closure; a small generating set is extracted so the
    result behaves like any generated group.
    """
    element_set = frozenset(elements)
    gens = small_generating_set(sorted(element_set), domain_size)
    return _listed(domain_size, gens, element_set)


def small_generating_set(element_list, domain_size: int) -> tuple[Permutation, ...]:
    """Greedy small generating set for a closed element list."""
    return _greedy_generators(element_list, Permutation.identity(domain_size),
                              _right_multiplication)


def orbits(group, points=None, *, domain_size: int | None = None) -> tuple[tuple, ...]:
    """Partition of ``points`` into orbits of the group action.

    ``group`` is a :class:`Group`, or a tuple of permutations of
    ``domain_size`` points that generate the acting group (which then need
    not be listed).  ``points`` is an indexed set of labels, one per domain
    point (position ``i`` labels domain point ``i``); it defaults to the
    indices themselves.  Blocks are ordered by their smallest domain index.
    """
    if isinstance(group, Group):
        gens, n = group.generators, group.domain_size
    else:
        gens, n = tuple(group), domain_size
        if n is None or any(g.domain_size != n for g in gens):
            raise DomainMismatch(
                f"generators must all act on domain_size={n} points"
            )
    gen_images = [g.images for g in gens]
    if points is None:
        points = tuple(range(n))
    else:
        points = tuple(points)
    if len(points) != n:
        raise DomainMismatch(
            f"expected {n} point labels, got {len(points)}"
        )
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        block = [start]
        for x in block:  # the loop also visits the points appended below
            for images in gen_images:
                y = images[x]
                if not seen[y]:
                    seen[y] = True
                    block.append(y)
        blocks.append(tuple(points[i] for i in sorted(block)))
    return tuple(blocks)


def is_regular(gens, n: int) -> bool:
    """True iff the group G generated by ``gens`` is transitive on the
    ``n`` points and its centralizer in Sym(n) is transitive too, which
    makes G regular: |G| = n.

    Proof.  If z commutes with every element of G and z(a) = b, then every
    s in G fixing a fixes b as well: s(b) = s(z(a)) = z(s(a)) = z(a) = b.
    Composites of such maps commute with G too, so when they carry a to
    every point the stabilizer of a fixes every point and is trivial, and
    the orbit-stabilizer theorem gives |G| = n (Dixon and Mortimer,
    *Permutation Groups*, 1996, Thm 4.2A).

    The candidates come from a breadth-first spanning tree from point 0:
    the tree word w_c takes 0 to c, and for each generator g the map
    z_g : c -> w_c(g(0)) is the only map commuting with G that sends 0 to
    g(0).  Each z_g is checked to commute with every generator, hence with
    G, and composites of the z_g must carry 0 to every point.  For a
    regular G they do: z_g is right multiplication by g once points are
    named by the elements taking 0 to them.  Cost: O(n·|gens|²) steps, with
    no hashing and no sorting.
    """
    gen_images = [g.images for g in gens]
    # Point c of the tree is the image of parent[c] under the generator
    # whose images are via[c]; tree lists the points in the order reached.
    parent = [-1] * n
    via = [()] * n
    parent[0] = 0
    tree = [0]
    for x in tree:
        for images in gen_images:
            y = images[x]
            if parent[y] < 0:
                parent[y] = x
                via[y] = images
                tree.append(y)
    if len(tree) != n:
        return False
    steps = [(c, parent[c], via[c]) for c in tree[1:]]
    after = [itemgetter(*images) for images in gen_images]
    centralizing = []
    for images in gen_images:
        z = [0] * n
        z[0] = images[0]
        for c, p, step in steps:
            z[c] = step[z[p]]
        before = itemgetter(*z)
        # z commutes with h: h(z(x)) == z(h(x)) for every point x.
        if any(before(h) != h_after(z)
               for h, h_after in zip(gen_images, after)):
            return False
        centralizing.append(z)
    seen = [False] * n
    seen[0] = True
    reached = [0]
    for x in reached:  # the loop also visits the points appended below
        for z in centralizing:
            y = z[x]
            if not seen[y]:
                seen[y] = True
                reached.append(y)
    return len(reached) == n


def _require_subgroup(sub: Group, group: Group) -> None:
    if sub.domain_size != group.domain_size:
        raise DomainMismatch(
            f"subgroup domain {sub.domain_size} differs from group domain "
            f"{group.domain_size}"
        )
    if not sub.elements <= group.elements:
        raise NotASubgroup("the given group does not contain the claimed subgroup")


def normal_closure(group: Group, seed, *, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    """Smallest normal subgroup of ``group`` containing every seed element.

    Alternates closing under composition with conjugating the current
    generating set by the group generators, until conjugation adds nothing.
    Conjugating generators suffices: conjugation is an automorphism, so a
    subgroup whose generators are conjugation-stable is itself stable.
    """
    seed = sorted(set(seed))
    for s in seed:
        if s not in group:
            raise NotASubgroup("seed element does not lie in the group")
    closure_gens = [s for s in seed if not s.is_identity]
    if not closure_gens:
        return Group.trivial(group.domain_size)
    current = generate(closure_gens, domain_size=group.domain_size, cap=cap)
    inverses = [(a, a.inverse()) for a in group.generators]
    while True:
        new = []
        for s in closure_gens:
            for a, ainv in inverses:
                c = a * s * ainv
                if c not in current and c not in new:
                    new.append(c)
        if not new:
            return current
        closure_gens.extend(new)
        current = generate(closure_gens, domain_size=group.domain_size, cap=cap)


def is_normal(sub: Group, group: Group) -> bool:
    """True iff conjugation by every group element maps ``sub`` onto itself.

    Checks that ``sub`` lies in ``group`` (listing both), then asks
    :func:`normalized_by` about the generators of ``group``.
    """
    _require_subgroup(sub, group)
    return normalized_by(sub, group.generators)


def normalized_by(sub: Group, gens) -> bool:
    """True iff the group generated by ``gens`` normalizes ``sub``, each
    conjugate tested by ``in sub``.  That group is never listed; a caller
    that knows ``sub`` lies in it learns that ``sub`` is normal there.

    Only generators are conjugated.  If s h s^-1 lies in ``sub`` for every
    generator h of ``sub``, then s sub s^-1 is contained in ``sub``, and
    equal to it because both are finite of the same order.  The elements s
    with s sub s^-1 = sub form a subgroup, so once it holds for every
    generator s in ``gens`` it holds for the whole group they generate.
    """
    hgens = sub.generators or sub.element_list
    by_hgens = list(map(_right_multiplication, hgens))
    for a in gens:
        by_ainv = _right_multiplication(a.inverse())
        if any(by_ainv(by_h(a)) not in sub for by_h in by_hgens):
            return False
    return True


def core(group: Group, sub: Group) -> Group:
    """Largest normal subgroup of ``group`` contained in ``sub``.

    Computed literally as the intersection of all conjugates of ``sub``.
    """
    _require_subgroup(sub, group)
    members = set(sub.elements)
    for a in group.element_list:
        if len(members) == 1:
            break
        ainv = a.inverse()
        members &= {a * h * ainv for h in sub.element_list}
    return group_from_elements(group.domain_size, members)


def normalizer(group: Group, sub: Group) -> Group:
    """Elements of ``group`` whose conjugation maps ``sub`` onto itself."""
    _require_subgroup(sub, group)
    hgens = sub.generators or sub.element_list
    members = []
    for a in group.element_list:
        ainv = a.inverse()
        if all(a * h * ainv in sub for h in hgens):
            members.append(a)
    return group_from_elements(group.domain_size, members)


def subgroups(group: Group, *, cap: int = DEFAULT_SUBGROUP_CAP) -> tuple[Group, ...]:
    """All subgroups, by breadth-first single-element extension.

    Starting from the trivial subgroup, every known subgroup is extended by
    each outside element and the extension closed; any subgroup is reachable
    this way because a proper subgroup of it extended by one of its missing
    elements stays inside it.  Only groups of order at most ``cap`` are
    accepted.
    """
    if group.order > cap:
        raise CapExceeded(
            f"subgroup enumeration is capped at order {cap}; group has order "
            f"{group.order}"
        )
    n = group.domain_size
    ident = Permutation.identity(n)
    trivial = frozenset({ident})
    found: dict[frozenset, tuple[Permutation, ...]] = {trivial: ()}
    queue = deque([trivial])
    while queue:
        current = queue.popleft()
        gens = found[current]
        for x in group.element_list:
            if x in current:
                continue
            ext_gens = gens + (x,)
            ext = generate(ext_gens, domain_size=n, cap=group.order).elements
            if ext not in found:
                found[ext] = ext_gens
                queue.append(ext)
    groups = [
        _listed(n, (g for g in gens if not g.is_identity), els)
        for els, gens in found.items()
    ]
    groups.sort(key=lambda g: (g.order, g.element_list))
    return tuple(groups)


def commutator_subgroup(group: Group) -> Group:
    """The derived subgroup G', as the normal closure of the commutators
    [a, b] of pairs of generators.

    The normal closure N of those commutators lies in G'.  In G/N the
    images of the generators commute, so G/N is abelian and G' lies in N.
    One commutator per unordered pair suffices, since [b, a] = [a, b]^-1
    and [a, a] = e.  The result is wrapped by :func:`group_from_elements`,
    so its generators depend only on its elements.
    """
    comms = [a * b * a.inverse() * b.inverse()
             for a, b in itertools.combinations(group.generators, 2)]
    derived = normal_closure(group, comms, cap=group.order)
    return group_from_elements(group.domain_size, derived.elements)


def quotient_table(group: Group, normal_sub: Group) -> tuple[GroupTable, dict, tuple]:
    """Multiplication table of ``group / normal_sub``.

    Returns the table, the element-to-coset-index map, and the coset
    representatives (smallest element of each coset in canonical order).
    """
    _require_subgroup(normal_sub, group)
    if not normalized_by(normal_sub, group.generators):
        raise NotASubgroup("quotients need a normal subgroup")
    elements = group.element_list
    table, coset_of, reps = _coset_table(elements, normal_sub.element_list,
                                         _right_multiplication)
    # Key the numbering by the group's own elements, not by the plain image
    # tuples the products return.
    coset_of = dict(zip(elements, map(coset_of.__getitem__, elements)))
    return table, coset_of, tuple(reps)


def abelian_invariants(group: Group) -> tuple[int, ...]:
    """Invariant factors of a finite abelian permutation group."""
    if not group.is_abelian():
        raise NotAGroup("invariant factors are defined for abelian groups")
    return invariants_from_orders(map(Permutation.order, group.element_list))
