"""Command-line front end.

Subcommands: ``classify`` (covers of a surface's Hilbert square),
``construct`` (the squared-cover model for one abelian group and base),
``verify`` (the full property suite at a configurable scale), ``hodge``
(Hodge numbers of the Hilbert square from a surface triple).

Exit codes: 0 success, 1 failed verification property, 2 malformed input,
3 cap exceeded, 4 non-abelian deck group.  Error messages go to stderr and
error paths produce no report output.  The ``HILB2_CAP`` environment
variable overrides the default caps; explicit flags override both.
"""
from __future__ import annotations

import argparse
from dataclasses import dataclass
import functools
import os
import string
import sys

from . import catalog, permgroup, serialize
from .descriptors import SurfaceDescriptor
from .errors import (
    BadLength,
    CapExceeded,
    Hilb2Error,
    InfiniteGroup,
    NonAbelianDeckGroup,
    PresentationSyntaxError,
    UnknownCatalogEntry,
)
from .fpgroup import (
    DEFAULT_COSET_CAP,
    AbelianInvariants,
    abelianization,
    coset_enumeration,
    parse_presentation,
    parse_word,
    permutation_realization,
    smith_invariant_factors,
    subgroups_of_abelian,
)
from .hilbcover import (
    build_construction,
    fixed_components,
    free_gset,
    refuse_pair_group_over_cap,
)
from .hodge import isv_pattern_check, isv_surface_check, symmetric_square_hodge
from .monodromy import (
    classify_hilb_covers,
    cover_from_subgroup,
    cover_isomorphic,
    galois_closure,
    hilb_covers_by_type,
    wreath_quotient_check,
)
from .permgroup import DEFAULT_ELEMENT_CAP
from .tables import (
    GroupTable,
    abelian_group_tables,
    group_from_spec,
    parse_group_spec,
    symmetric_table,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_CAP = 3
EXIT_NONABELIAN = 4


@dataclass(frozen=True)
class Caps:
    coset_cap: int
    group_cap: int


def _resolve_caps(args) -> Caps:
    coset, group = DEFAULT_COSET_CAP, DEFAULT_ELEMENT_CAP
    env = os.environ.get("HILB2_CAP")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"HILB2_CAP is not an integer: {env!r}") from None
        coset = group = value
    if getattr(args, "coset_cap", None) is not None:
        coset = args.coset_cap
    if getattr(args, "group_cap", None) is not None:
        group = args.group_cap
    if coset < 1 or group < 1:
        raise ValueError("caps must be positive")
    return Caps(coset_cap=coset, group_cap=group)


def _invariants_name(invariants) -> str:
    if not invariants:
        return "Z1"
    return "x".join(f"Z{d}" for d in invariants)


def _base_labels(size: int) -> tuple[str, ...]:
    letters = string.ascii_lowercase
    if size <= len(letters):
        return tuple(letters[:size])
    return tuple(f"b{i}" for i in range(size))


# ---------------------------------------------------------------------------
# classify


def _load_surface(args) -> SurfaceDescriptor:
    if args.catalog is not None:
        return catalog.get_surface(args.catalog)
    return SurfaceDescriptor(
        name="inline",
        pi1_smooth=parse_presentation(args.presentation),
        singular_points=(),
        hodge=None,
    )


def cmd_classify(args, caps: Caps) -> int:
    surface = _load_surface(args)
    deck_types, by_type = hilb_covers_by_type(surface, cap=caps.group_cap)
    if args.format == "json":
        # One dict per distinct cover, repeated for every subgroup of its
        # type.
        results = {t: serialize.cover_to_dict(c) for t, c in by_type.items()}
        print(serialize.emit(serialize.envelope(
            "classify", [results[t] for t in deck_types]
        )))
        return EXIT_OK
    pi1ab = abelianization(surface.pi1_smooth)
    print(f"covers of Hilb2({surface.name})")
    print(f"pi1^ab upstairs: {_invariants_name(pi1ab.torsion)}")
    print(f"{'degree':>6}  {'deck':<8}  {'galois':<6}  branch")
    # A cover's deck group is the quotient of its type, so the type names
    # it.
    deck_names = {t: _invariants_name(t) for t in by_type}
    for t in deck_types:
        cover = by_type[t]
        branch = ",".join(sorted(cover.ramification_labels)) or "-"
        galois = "yes" if cover.galois else "no"
        print(f"{cover.degree:>6}  {deck_names[t]:<8}  {galois:<6}  {branch}")
    print(f"{len(deck_types)} cover(s)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# construct


def _ordered_sym_indices(construction) -> list[int]:
    """Off-diagonal points first, then diagonal, each in label order."""
    points = construction.sym.points
    off = [i for i, p in enumerate(points) if not p.is_diagonal]
    diag = [i for i, p in enumerate(points) if p.is_diagonal]
    return off + diag


def cmd_construct(args, caps: Caps) -> int:
    spec = parse_group_spec(args.group)
    name = spec.name
    if not spec.is_abelian:
        raise NonAbelianDeckGroup(
            f"group {name} is not abelian: the squared construction only "
            f"realizes the abelianized quotient for a nonabelian group, so "
            f"no cover of the full degree exists"
        )
    if args.base_size < 1:
        raise ValueError("base size must be at least 1")
    pairs = (spec.order * args.base_size) ** 2
    if pairs > caps.coset_cap:
        raise CapExceeded(
            f"the square would have {pairs} pairs > coset cap {caps.coset_cap}"
        )
    refuse_pair_group_over_cap(spec.order, caps.group_cap)
    table = spec.table()
    gset = free_gset(table, _base_labels(args.base_size))
    # The sign splits on every construction that builds (see
    # build_construction), so the sign splitting is reported as ok.
    construction = build_construction(gset, cap=caps.group_cap)
    fixed = fixed_components(construction)

    order = _ordered_sym_indices(construction)
    fibers = [
        {
            "point": construction.sym.points[i].label,
            "xi_fiber": construction.xi_fiber_sizes[i],
            "orbit_count": construction.antidiagonal_orbit_counts[i],
        }
        for i in order
    ]
    components = [
        {"g": g, "size": len(block), "fixed": g in fixed}
        for g, block in enumerate(construction.diagonal_copies)
    ]
    if args.format == "json":
        result = {
            "type": "construction",
            "group": name,
            "group_order": table.order,
            "base_size": args.base_size,
            "pair_group_order": len(construction.pair_group),
            "intermediate_group_order": len(construction.antidiagonal_group),
            "sign_splitting_ok": True,
            "fibers": fibers,
            "components": components,
        }
        print(serialize.emit(serialize.envelope("construct", [result])))
        return EXIT_OK
    print(f"construction for G={name}, base size {args.base_size} "
          f"(d={construction.d}, sheet count {gset.size})")
    print(f"|J| = {len(construction.pair_group)}")
    print(f"|H| = {len(construction.antidiagonal_group)}")
    print("sign splitting: ok")
    print("fibers " + "/".join(str(f["xi_fiber"]) for f in fibers)
          + "; orbit counts " + "/".join(str(f["orbit_count"]) for f in fibers))
    for f in fibers:
        print(f"  {f['point']}: Xi-fiber {f['xi_fiber']}, "
              f"orbits {f['orbit_count']}")
    print("diagonal components:")
    for c in components:
        flag = "yes" if c["fixed"] else "no"
        print(f"  T[{c['g']}] size {c['size']} fixed {flag}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# hodge


def cmd_hodge(args, caps: Caps) -> int:
    try:
        dims = tuple(int(part) for part in args.vector.split(","))
    except ValueError:
        raise ValueError(
            f"cannot parse Hodge vector {args.vector!r}: "
            f"expected comma-separated integers like 1,0,1"
        ) from None
    out = symmetric_square_hodge(dims)
    surface_isv = isv_surface_check(dims)
    hilb_isv = isv_pattern_check(out)
    if args.format == "json":
        result = {
            "type": "hodge",
            "input": list(dims),
            "output": list(out),
            "surface_isv": surface_isv,
            "hilb_isv": hilb_isv,
        }
        print(serialize.emit(serialize.envelope("hodge", [result])))
        return EXIT_OK
    verdict = "yes" if hilb_isv else "no"
    print(f"({','.join(map(str, out))}) ISV: {verdict}")
    surface_verdict = "yes" if surface_isv else "no"
    print(f"surface ({','.join(map(str, dims))}) ISV: {surface_verdict}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "ok" | "FAIL" | "skip"
    detail: str | None = None


def _verify_checks(caps: Caps, fault: bool):
    """The named property suite; every entry is (name, zero-arg callable)."""
    checks = []
    cache: dict = {}

    def built(name: str, table: GroupTable, b: int):
        key = (name, b)
        if key not in cache:
            predicted = 2 * table.order ** 2
            if predicted > caps.group_cap:
                raise CapExceeded(
                    f"|J| would be {predicted} > group cap {caps.group_cap}"
                )
            cache[key] = build_construction(
                free_gset(table, _base_labels(b)), cap=caps.group_cap
            )
        return cache[key]

    def add(name, fn):
        checks.append((name, fn))

    # Each construction entry names laws that build_construction checks on
    # every call (fixed_components the fixed copies); a failed law raises
    # HomomorphismFailure naming it, which reports the entry as FAIL.
    def laws_hold(name: str, table: GroupTable, b: int, *,
                  fixed: bool = False, fault: bool = False) -> bool:
        construction = built(name, table, b)
        if fixed:
            fixed_components(construction)
        return not fault

    for cell_name, table in abelian_group_tables(6):
        for b in (1, 2):
            tag = f"construction[{cell_name},b={b}]"
            cell = functools.partial(laws_hold, cell_name, table, b)
            add(f"{tag}: big-fiber sizes 2d^2/d^2, intermediate orbit "
                f"counts |G|", functools.partial(cell, fault=fault))
            fault = False  # the injected fault fails the first entry only
            add(f"{tag}: pair group 2d^2, intermediate 2d and normal, "
                f"sign splits", cell)
            add(f"{tag}: diagonal subgroup laws (normal iff exponent 2, "
                f"doubled-point orbits (d+t)/2)", cell)
            add(f"{tag}: |G| diagonal components, fixed iff g^2=id",
                functools.partial(cell, fixed=True))

    add("construction[S3,b=1]: diagonal subgroup not normal; intermediate "
        "quotient collapses to the abelianization",
        functools.partial(laws_hold, "S3", symmetric_table(3), 1))

    wreath_cells = [
        ("Z2", 2), ("Z3", 2), ("Z4", 2), ("Z2xZ2", 2),
        ("S3", 2), ("Q8", 2), ("Z2", 3), ("Z3", 3),
    ]
    for q_name, n in wreath_cells:
        def wreath(qn=q_name, nn=n) -> bool:
            _, q_table = group_from_spec(qn)
            return wreath_quotient_check(q_table, nn, cap=caps.group_cap).ok
        add(f"wreath[{q_name},n={n}]: killing transposition lifts leaves "
            f"Q^ab", wreath)

    for entry in catalog.surface_names():
        def snf_oracle(name=entry) -> bool:
            surface = catalog.get_surface(name)
            invariants = abelianization(surface.pi1_smooth)
            table = coset_enumeration(
                surface.pi1_smooth, (), cap=caps.coset_cap
            )
            realization = permutation_realization(
                table, cap=caps.group_cap
            )
            commutator = permgroup.commutator_subgroup(realization)
            quotient, _, _ = permgroup.quotient_table(
                realization, commutator
            )
            brute = quotient.abelian_invariants()
            return invariants.rank == 0 and invariants.torsion == brute
        add(f"abelianization[{entry}]: SNF equals brute-force commutator "
            f"quotient", snf_oracle)

    def snf_fixed_a() -> bool:
        return smith_invariant_factors([[2, 0], [0, 3]]) == (1, 6)

    def snf_fixed_b() -> bool:
        return smith_invariant_factors([[2, 4], [6, 8]]) == (2, 4)

    add("smith normal form: diag(2,3) has invariant factors (1,6)",
        snf_fixed_a)
    add("smith normal form: [[2,4],[6,8]] has invariant factors (2,4)",
        snf_fixed_b)

    def hodge_fixed() -> bool:
        return (
            symmetric_square_hodge((1, 0, 1)) == (1, 0, 1, 0, 1)
            and symmetric_square_hodge((1, 2, 1)) == (1, 2, 2, 2, 1)
            and symmetric_square_hodge((1, 0, 0)) == (1, 0, 0, 0, 0)
        )

    def hodge_isv() -> bool:
        return (
            isv_pattern_check(symmetric_square_hodge((1, 0, 1)))
            and not isv_pattern_check(symmetric_square_hodge((1, 2, 1)))
            and not isv_pattern_check(symmetric_square_hodge((1, 0, 0)))
        )

    add("hodge: squared-surface values on the three reference triples",
        hodge_fixed)
    add("hodge: ISV pattern verdicts on the three reference triples",
        hodge_isv)

    classify_entries = [
        "simply-connected", "smooth-enriques", "enriques-type",
        "quaternion", "cyclic-2", "cyclic-3", "cyclic-4",
    ]
    for entry in classify_entries:
        def classify_check(name=entry) -> bool:
            surface = catalog.get_surface(name)
            covers = classify_hilb_covers(surface, cap=caps.group_cap)
            subs = subgroups_of_abelian(abelianization(surface.pi1_smooth))
            if len(covers) != len(subs):
                return False
            if covers[0].degree != 1:
                return False
            for cover in covers:
                if not cover.galois:
                    return False
                if not cover.deck_group.is_abelian():
                    return False
                if surface.is_smooth and not cover.is_etale:
                    return False
            return True
        add(f"classify[{entry}]: one cover per subgroup, all Galois "
            f"abelian", classify_check)

    def s3_and_transposition():
        """S3 on three points and its non-normal subgroup <(0 1)>."""
        s3 = permgroup.generate(
            (permgroup.Permutation((1, 0, 2)),
             permgroup.Permutation((1, 2, 0))),
            cap=caps.group_cap,
        )
        h = permgroup.generate(
            (permgroup.Permutation((1, 0, 2)),), cap=caps.group_cap
        )
        return s3, h

    def closure_nongalois() -> bool:
        s3, h = s3_and_transposition()
        cover = cover_from_subgroup(s3, h)
        closed = galois_closure(cover)
        return (
            not cover.galois
            and closed.galois
            and closed.degree == len(s3) // len(permgroup.core(s3, h))
            and closed.degree % cover.degree == 0
        )

    def closure_idempotent() -> bool:
        s3, h = s3_and_transposition()
        closed = galois_closure(cover_from_subgroup(s3, h))
        return galois_closure(closed) is closed

    def closure_galois_fixed() -> bool:
        z4 = permgroup.generate(
            (permgroup.Permutation((1, 2, 3, 0)),), cap=caps.group_cap
        )
        h = permgroup.generate(
            (permgroup.Permutation((2, 3, 0, 1)),), cap=caps.group_cap
        )
        cover = cover_from_subgroup(z4, h)
        return cover.galois and galois_closure(cover) is cover

    add("galois closure: non-Galois degree-3 cover closes to the regular "
        "cover", closure_nongalois)
    add("galois closure: idempotent on its own output", closure_idempotent)
    add("galois closure: Galois input returned unchanged",
        closure_galois_fixed)

    def coset_enumeration_quaternion() -> bool:
        presentation = parse_presentation(
            "< a b | a^4, a^2 b^-2, b^-1 a b a >"
        )
        table = coset_enumeration(presentation, (), cap=caps.coset_cap)
        realization = permutation_realization(table, cap=caps.group_cap)
        return table.index == 8 and len(realization) == 8

    def coset_enumeration_subgroup() -> bool:
        presentation = parse_presentation("< a b | a^3, b^2, a b a b >")
        table = coset_enumeration(
            presentation, (parse_word(presentation, "b"),),
            cap=caps.coset_cap,
        )
        return table.index == 3

    add("coset enumeration: quaternion presentation has index 8 over the "
        "trivial subgroup", coset_enumeration_quaternion)
    add("coset enumeration: order-6 presentation has index 3 over <b>",
        coset_enumeration_subgroup)

    def abelian_lattice_klein() -> bool:
        subs = subgroups_of_abelian(AbelianInvariants(0, (2, 2)))
        return len(subs) == 5

    def abelian_lattice_cyclic4() -> bool:
        subs = subgroups_of_abelian(AbelianInvariants(0, (4,)))
        return len(subs) == 3

    def abelian_lattice_lagrange() -> bool:
        subs = subgroups_of_abelian(AbelianInvariants(0, (2, 4)))
        return all(8 % sub.order == 0 for sub in subs)

    add("abelian subgroups: (Z2)^2 has exactly 5", abelian_lattice_klein)
    add("abelian subgroups: Z4 has exactly 3", abelian_lattice_cyclic4)
    add("abelian subgroups: orders divide |Z2xZ4|", abelian_lattice_lagrange)

    def closure_isomorphism_invariance() -> bool:
        s3, h = s3_and_transposition()
        closed = galois_closure(cover_from_subgroup(s3, h))
        regular = cover_from_subgroup(
            s3, permgroup.generate((), domain_size=3, cap=caps.group_cap)
        )
        return cover_isomorphic(closed, regular)

    add("galois closure: closure of <(01)> in S3 is the regular cover",
        closure_isomorphism_invariance)

    return checks


def _run_checks(checks) -> list[CheckResult]:
    results = []
    for name, fn in checks:
        try:
            results.append(CheckResult(name, "ok" if fn() else "FAIL"))
        except CapExceeded as capped:
            results.append(CheckResult(name, "skip", str(capped)))
        except Exception as crashed:  # a crashed check is a failed check
            results.append(CheckResult(
                name, "FAIL", f"{type(crashed).__name__}: {crashed}"
            ))
    return results


def cmd_verify(args, caps: Caps) -> int:
    results = _run_checks(_verify_checks(caps, args.inject_fault))
    failed = sum(1 for r in results if r.status == "FAIL")
    skipped = sum(1 for r in results if r.status == "skip")
    passed = len(results) - failed - skipped
    if args.format == "json":
        payload = [
            {"name": r.name, "status": r.status, "detail": r.detail}
            for r in results
        ]
        print(serialize.emit(serialize.envelope("verify", payload)))
    else:
        for r in results:
            suffix = f"  ({r.detail})" if r.detail else ""
            print(f"{r.status:<4} - {r.name}{suffix}")
        print(f"{passed} passed, {failed} failed, {skipped} skipped")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--coset-cap", type=int, default=None, metavar="N",
                        help="max cosets during enumeration, and max pairs "
                             "in the square of construct")
    parser.add_argument("--group-cap", type=int, default=None, metavar="N",
                        help="max elements in any generated group")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call.

    Parsing leaves no state on it: each call gets a fresh ``Namespace``.
    """
    parser = argparse.ArgumentParser(
        prog="hilb2",
        description="Covers of Hilbert squares from finite monodromy data.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    classify = sub.add_parser(
        "classify",
        help="list all covers of the Hilbert square of a surface",
    )
    source = classify.add_mutually_exclusive_group(required=True)
    source.add_argument("--catalog", metavar="NAME",
                        help=f"built-in surface: "
                             f"{', '.join(catalog.surface_names())}")
    source.add_argument("--presentation", metavar="TEXT",
                        help="fundamental group of the smooth part, "
                             "e.g. '< a | a^2 >'")
    _add_common(classify)

    construct = sub.add_parser(
        "construct",
        help="build and verify the squared cover for one abelian group",
    )
    construct.add_argument("--group", required=True, metavar="SPEC",
                           help="deck group, e.g. Z4 or Z2xZ2")
    construct.add_argument("--base-size", type=int, default=2, metavar="N",
                           help="number of base sheets (default: 2)")
    _add_common(construct)

    verify = sub.add_parser(
        "verify", help="run the full property suite"
    )
    verify.add_argument("--inject-fault", action="store_true",
                        help=argparse.SUPPRESS)
    _add_common(verify)

    hodge = sub.add_parser(
        "hodge",
        help="Hodge numbers of the Hilbert square from a surface triple",
    )
    hodge.add_argument("vector", metavar="H0,H1,H2",
                       help="surface Hodge triple, e.g. 1,0,1")
    _add_common(hodge)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)
    try:
        caps = _resolve_caps(args)
        # Looked up per call, not pinned in the shared parser, so a
        # rebound cmd_* (a wrapper or a test's monkeypatch) still runs.
        return globals()[f"cmd_{args.subcommand}"](args, caps)
    except CapExceeded as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_CAP
    except NonAbelianDeckGroup as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_NONABELIAN
    except (PresentationSyntaxError, UnknownCatalogEntry, InfiniteGroup,
            BadLength, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Hilb2Error as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def main_script() -> None:
    sys.exit(main(sys.argv[1:]))
