"""Seeded inputs for the benchmark's workloads and the closed forms that
every output is checked against.

A seed changes only how an input is spelled (factor order, generator
names, relator order, argument order) and the order of the items in a
pass; it never changes the groups the inputs denote.  So every seed does
the same mathematical work, and a run's numbers depend on the code, not
on the seed.

The expected values here are derived independently of the library:
orders, invariant factors and subgroup counts are written down or counted
by brute force in this file, never read back from ``hilb2``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import itertools
import json
from math import factorial, prod
import random
from typing import Callable

from hilb2 import fpgroup, monodromy, permgroup, tables
from hilb2.errors import CapExceeded

WORKLOADS = ("square-sweep", "classify-mix", "presentations")

# Exit codes documented by the hilb2 command line.
EXIT_OK, EXIT_BAD_INPUT, EXIT_CAP, EXIT_NONABELIAN = 0, 2, 3, 4


@dataclass(frozen=True)
class Item:
    """One unit of work.

    ``key`` names the mathematical input and is the same for every seed;
    ``argv`` (for command-line items) or ``run`` (for library items) is
    the seeded spelling.  ``check`` receives the outcome and returns None
    when it is correct, otherwise a message.
    """

    key: str
    refused: bool
    check: Callable[[object], str | None]
    argv: tuple[str, ...] | None = None
    run: Callable[[], object] | None = None


@dataclass(frozen=True)
class CliOutcome:
    code: int
    stdout: str
    stderr: str


# ---------------------------------------------------------------------------
# independent closed forms


@lru_cache(maxsize=None)
def subgroup_orders(invariants: tuple[int, ...]) -> tuple[int, ...]:
    """Sorted orders of every subgroup of Z_n1 x ... x Z_nr.

    Cyclic groups have one subgroup per divisor.  Otherwise every
    subgroup is generated by at most r elements, so closing every
    multiset of r elements finds them all.
    """
    if len(invariants) <= 1:
        n = invariants[0] if invariants else 1
        return tuple(k for k in range(1, n + 1) if n % k == 0)
    elements = list(itertools.product(*(range(n) for n in invariants)))
    zero = (0,) * len(invariants)
    found = set()
    for gens in itertools.combinations_with_replacement(
            elements, len(invariants)):
        members = {zero}
        frontier = [zero]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = tuple((a + b) % n for a, b, n in zip(x, g, invariants))
                if y not in members:
                    members.add(y)
                    frontier.append(y)
        found.add(frozenset(members))
    return tuple(sorted(len(s) for s in found))


def _refusal_problem(outcome: CliOutcome, code: int) -> str | None:
    if outcome.code != code:
        return f"exit code {outcome.code}, expected {code}"
    if outcome.stdout:
        return "refusal printed a report on stdout"
    lines = outcome.stderr.splitlines()
    if len(lines) != 1 or not lines[0].startswith("error: "):
        return f"expected one 'error:' line on stderr, got {outcome.stderr!r}"
    return None


def _envelope(outcome: CliOutcome, command: str):
    """The decoded JSON results, or a problem string."""
    if outcome.code != EXIT_OK:
        return f"exit code {outcome.code}: {outcome.stderr.strip()}"
    if outcome.stderr:
        return f"unexpected stderr {outcome.stderr!r}"
    data = json.loads(outcome.stdout)
    if data.get("schema_version") != 1 or data.get("command") != command:
        return "bad JSON envelope"
    return data["results"]


# ---------------------------------------------------------------------------
# square-sweep: `construct --format json` over every abelian group of
# order <= 11 (by invariant factors) and base sizes 1..3.

SWEEP_GROUPS = (
    (1,), (2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4),
    (2, 2, 2), (9,), (3, 3), (10,), (11,),
)
SWEEP_BASES = (1, 2, 3)

# (key, group spec, extra arguments, expected exit code).  The capped
# ones stop part-way through generating the pair group (order 2d^2) and
# outnumber the cheap ones, so refuse_p50_ms is the time a cap takes to
# fire.
SWEEP_REFUSALS = (
    ("construct S3", "S3", (), EXIT_NONABELIAN),
    ("construct Q8", "Q8", (), EXIT_NONABELIAN),
    ("construct bad spec", "Z4xZ", (), EXIT_BAD_INPUT),
    ("construct Z8 b=2 cap 100", "Z8", ("--group-cap", "100"), EXIT_CAP),
    ("construct Z11 b=1 cap 200", "Z11",
     ("--base-size", "1", "--group-cap", "200"), EXIT_CAP),
    ("construct Z3xZ3 b=2 cap 150", "Z3xZ3", ("--group-cap", "150"), EXIT_CAP),
    ("construct Z10 b=2 cap 150", "Z10", ("--group-cap", "150"), EXIT_CAP),
)


def _check_construction(invariants, base: int, spec: str):
    d = prod(invariants)
    letters = "abc"[:base]
    off = [f"{letters[i]}+{letters[j]}"
           for i in range(base) for j in range(i + 1, base)]
    diag = [f"2{x}" for x in letters]
    want_fibers = (
        [{"point": p, "xi_fiber": 2 * d * d, "orbit_count": d} for p in off]
        + [{"point": p, "xi_fiber": d * d, "orbit_count": d} for p in diag]
    )
    want_fixed = 2 ** sum(1 for n in invariants if n % 2 == 0)

    def check(outcome: CliOutcome) -> str | None:
        results = _envelope(outcome, "construct")
        if isinstance(results, str):
            return results
        [r] = results
        expected = {
            "type": "construction", "group": spec, "group_order": d,
            "base_size": base, "pair_group_order": 2 * d * d,
            "intermediate_group_order": 2 * d, "sign_splitting_ok": True,
            "fibers": want_fibers,
        }
        for field, value in expected.items():
            if r.get(field) != value:
                return f"{field} is {r.get(field)!r}, expected {value!r}"
        components = r["components"]
        if [c["g"] for c in components] != list(range(d)):
            return "diagonal components are not indexed 0..d-1"
        if any(c["size"] != d * base for c in components):
            return "a diagonal component does not have |Z| points"
        fixed = sum(1 for c in components if c["fixed"])
        if fixed != want_fixed:
            return f"{fixed} fixed components, expected {want_fixed}"
        return None

    return check


def _argv(rng: random.Random, command: str, subject, extra=()) -> tuple[str, ...]:
    """``command`` with its subject option, ``--format json`` and the
    extra options, the option pairs in a seeded order."""
    pairs = [list(subject), ["--format", "json"]]
    pairs += [list(extra[i:i + 2]) for i in range(0, len(extra), 2)]
    rng.shuffle(pairs)
    return (command,) + tuple(x for pair in pairs for x in pair)


def square_sweep(rng: random.Random) -> list[Item]:
    items = []
    for invariants in SWEEP_GROUPS:
        for base in SWEEP_BASES:
            factors = list(invariants)
            rng.shuffle(factors)
            spec = "x".join(f"Z{n}" for n in factors)
            key = f"construct {'x'.join(f'Z{n}' for n in invariants)} b={base}"
            items.append(Item(
                key=key, refused=False,
                argv=_argv(rng, "construct", ("--group", spec),
                           ("--base-size", str(base))),
                check=_check_construction(invariants, base, spec),
            ))
    for key, spec, extra, code in SWEEP_REFUSALS:
        items.append(Item(
            key=key, refused=True,
            argv=_argv(rng, "construct", ("--group", spec), extra),
            check=lambda o, c=code: _refusal_problem(o, c),
        ))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# classify-mix: `classify --format json` on answered and refused inputs.

NAME_POOLS = (("a", "b", "c", "d"), ("x", "y", "z", "w"),
              ("s", "t", "u", "v"), ("g", "h", "k", "m"))

# Abelian presentations by invariant factors: answered with default caps.
CLASSIFY_ANSWERED = ((2, 2), (2, 4), (3, 3), (2, 6), (2, 2, 2), (), (2,), (3,),
                     (4,), (5,), (6,), (8,), (9,))
# Nonabelian or infinite groups with a finite abelianization, answered
# through it: (key, invariant factors, generator names, relators).
CLASSIFY_NONABELIAN = (
    ("D4", (2, 2), ["r", "s"], ["r^4", "s^2", "s r s r"]),
    ("D6", (2, 2), ["r", "s"], ["r^6", "s^2", "s r s r"]),
    ("Dic3", (4,), ["a", "b"], ["a^6", "a^3 b^-2", "b^-1 a b a"]),
    ("S3", (2,), ["a", "b"], ["a^2", "b^3", "a b a b"]),
    ("Z2*Z2", (2, 2), ["a", "b"], ["a^2", "b^2"]),
)
# Catalog entries with their abelianization and singular labels.
# Together with the small presentations above they make up more than half
# of the items, so that item_p50_ms is a small classify and follows the
# per-call cost of cli and serialize.  The median item falls in the middle
# of the five inputs whose abelianization is Z2xZ2, which cost the same.
CLASSIFY_CATALOG = (
    ("quaternion", (2, 2), ("p1",)),
    ("cyclic-6", (6,), ("p1",)),
    ("cyclic-8", (8,), ("p1",)),
    ("enriques-type", (2,), ("p1",)),
    ("simply-connected", (), ()),
    ("smooth-enriques", (2,), ()),
    ("cyclic-2", (2,), ("p1",)),
    ("cyclic-3", (3,), ("p1",)),
    ("cyclic-4", (4,), ("p1",)),
    ("cyclic-5", (5,), ("p1",)),
    ("nonabelian-order6", (2,), ()),
)
# Refused with exit 3 under --group-cap 100, after the uncapped subgroup
# lattice has been built: the cap fires on the first deck group of order
# at least 8.  They cost about the same and outnumber the exit-2
# refusals below, so refuse_p50_ms is the time spent before a cap fires.
CLASSIFY_CAPPED = ((90,), (96,), (100,), (108,), (8, 8))
# Refused with exit 2: (key, presentation template over generators A B C).
CLASSIFY_MALFORMED = (
    ("missing exponent", "< A B | A^2, B^ >"),
    ("unknown generator", "< A B | A^2, C^3 >"),
    ("free rank 2", "< A B | A B A^-1 B^-1 >"),
)


def _abelian_presentation(rng: random.Random, invariants) -> str:
    names = rng.choice(NAME_POOLS)[:len(invariants)]
    relators = []
    for name, n in zip(names, invariants):
        relators.append(f"{name}^{rng.choice((n, -n))}")
    for a, b in itertools.combinations(names, 2):
        a, b = rng.sample((a, b), 2)
        relators.append(rng.choice((
            f"{a} {b} {a}^-1 {b}^-1", f"{a}^-1 {b}^-1 {a} {b}",
        )))
    rng.shuffle(relators)
    return f"< {' '.join(names)} | {', '.join(relators)} >"


def _check_classify(invariants, base_label: str, singular):
    def check(outcome: CliOutcome) -> str | None:
        covers = _envelope(outcome, "classify")
        if isinstance(covers, str):
            return covers
        orders = subgroup_orders(invariants)
        if len(covers) != len(orders):
            return f"{len(covers)} covers, expected {len(orders)} subgroups"
        # For a finite abelian group there are as many subgroups of index
        # k as of order k, so the degrees are the subgroup orders.
        degrees = [c["degree"] for c in covers]
        if degrees != sorted(orders):
            return f"degrees {degrees}, expected {sorted(orders)}"
        for c in covers:
            d = c["degree"]
            if c["base_label"] != f"Hilb2({base_label})" or not c["galois"]:
                return "a cover has the wrong base label or is not Galois"
            # The classifying base has two points: 3 symmetric points, 2
            # of them doubled.
            if len(c["total_points"]) != 3 * d or len(c["center_labels"]) != 2 * d:
                return f"degree-{d} cover has the wrong sheet counts"
            want = sorted(singular) if d > 1 else []
            if c["ramification_labels"] != want:
                return f"degree-{d} cover branches over {c['ramification_labels']}"
        return None

    return check


def classify_mix(rng: random.Random) -> list[Item]:
    items = []

    def cli_item(key, refused, source, check, extra=()):
        items.append(Item(key=key, refused=refused, check=check,
                          argv=_argv(rng, "classify", source, extra)))

    for invariants in CLASSIFY_ANSWERED:
        name = "x".join(f"Z{n}" for n in invariants) or "Z1"
        cli_item(f"classify {name}", False,
                 ("--presentation", _abelian_presentation(rng, invariants)),
                 _check_classify(invariants, "inline", ()))
    for key, invariants, names, relators in CLASSIFY_NONABELIAN:
        relators = rng.sample(relators, len(relators))
        cli_item(f"classify {key}", False,
                 ("--presentation", _spell(rng, names, relators)),
                 _check_classify(invariants, "inline", ()))
    for entry, invariants, singular in CLASSIFY_CATALOG:
        cli_item(f"classify catalog {entry}", False, ("--catalog", entry),
                 _check_classify(invariants, entry, singular))
    for invariants in CLASSIFY_CAPPED:
        name = "x".join(f"Z{n}" for n in invariants)
        cli_item(f"classify {name} cap 100", True,
                 ("--presentation", _abelian_presentation(rng, invariants)),
                 lambda o: _refusal_problem(o, EXIT_CAP),
                 ("--group-cap", "100"))
    for key, template in CLASSIFY_MALFORMED:
        names = rng.choice(NAME_POOLS)
        text = template.replace("A", names[0]).replace("B", names[1])
        text = text.replace("C", names[2])
        cli_item(f"classify {key}", True, ("--presentation", text),
                 lambda o: _refusal_problem(o, EXIT_BAD_INPUT))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# presentations: the library's finitely-presented-group pipeline, called
# directly.  No hilbcover code runs here.

# Enumerations of order at most this also run the brute-force
# commutator-quotient oracle.
BRUTE_FORCE_MAX_ORDER = 120
INFINITE_COSET_CAP = 4000


def _dihedral(n: int):
    return 2 * n, ((2, 2) if n % 2 == 0 else (2,)), \
        ["r", "s"], [f"r^{n}", "s^2", "s r s r"]


def _dicyclic(n: int):
    return 4 * n, ((2, 2) if n % 2 == 0 else (4,)), \
        ["a", "b"], [f"a^{2 * n}", f"a^{n} b^-2", "b^-1 a b a"]


# (key, order, invariant factors of the abelianization, generator names,
# relators).  Relator order is fixed: Todd-Coxeter's work depends on it.
FINITE_PRESENTATIONS = (
    ("Z2xZ2", 4, (2, 2), ["a", "b"], ["a^2", "b^2", "a b a^-1 b^-1"]),
    ("Z12", 12, (12,), ["a"], ["a^12"]),
    ("Z6xZ4", 24, (2, 12), ["a", "b"], ["a^6", "b^4", "a b a^-1 b^-1"]),
    ("Z2xZ2xZ2", 8, (2, 2, 2), ["a", "b", "c"],
     ["a^2", "b^2", "c^2", "a b a^-1 b^-1", "a c a^-1 c^-1",
      "b c b^-1 c^-1"]),
    ("Z40xZ40", 1600, (40, 40), ["a", "b"],
     ["a^40", "b^40", "a b a^-1 b^-1"]),
    ("D5",) + _dihedral(5),
    ("D6",) + _dihedral(6),
    ("D12",) + _dihedral(12),
    ("D60",) + _dihedral(60),
    ("D800",) + _dihedral(800),
    ("Q8",) + _dicyclic(2),
    ("Dic3",) + _dicyclic(3),
    ("Dic30",) + _dicyclic(30),
    ("S4", 24, (2,), ["a", "b"], ["a^2", "b^3", "a b a b a b a b"]),
    ("A5", 60, (), ["a", "b"], ["a^2", "b^3", "a b a b a b a b a b"]),
    ("S3xS3", 36, (2, 2), ["a", "b", "c", "d"],
     ["a^2", "b^3", "a b a b", "c^2", "d^3", "c d c d", "a c a^-1 c^-1",
      "a d a^-1 d^-1", "b c b^-1 c^-1", "b d b^-1 d^-1"]),
    ("A5xZ2", 120, (2,), ["a", "b", "c"],
     ["a^2", "b^3", "a b a b a b a b a b", "c^2", "a c a^-1 c^-1",
      "b c b^-1 c^-1"]),
    ("S4xZ3", 72, (6,), ["a", "b", "c"],
     ["a^2", "b^3", "a b a b a b a b", "c^3", "a c a^-1 c^-1",
      "b c b^-1 c^-1"]),
    ("Q8xZ3", 24, (2, 6), ["a", "b", "c"],
     ["a^4", "a^2 b^-2", "b^-1 a b a", "c^3", "a c a^-1 c^-1",
      "b c b^-1 c^-1"]),
)
# Infinite groups with finite abelianization: only the coset cap stops them.
INFINITE_PRESENTATIONS = (
    ("triangle (3,3,3)", (3, 3), ["a", "b"], ["a^3", "b^3", "a b a b a b"]),
    ("triangle (2,3,6)", (6,), ["a", "b"],
     ["a^2", "b^3", "a b a b a b a b a b a b"]),
    ("triangle (2,4,4)", (2, 4), ["a", "b"], ["a^2", "b^4", "a b a b a b a b"]),
)
SUBGROUP_LATTICES = ((2, 2), (2, 4), (3, 3), (2, 6), (2, 2, 2), (12,), (4, 4),
                     (2, 2, 4))
# The wreath cells that `hilb2 verify` checks: (group spec, n, |Q|,
# invariant factors of Q's abelianization).
WREATH_CELLS = (
    ("Z2", 2, 2, (2,)), ("Z3", 2, 3, (3,)), ("Z4", 2, 4, (4,)),
    ("Z2xZ2", 2, 4, (2, 2)), ("S3", 2, 6, (2,)), ("Q8", 2, 8, (2, 2)),
    ("Z2", 3, 2, (2,)), ("Z3", 3, 3, (3,)),
)


def _spell(rng: random.Random, names, relators) -> str:
    """Rename the generators; the letter numbering stays the same."""
    pool = rng.choice(NAME_POOLS)
    rename = str.maketrans(dict(zip(names, pool)))
    words = [rel.translate(rename) for rel in relators]
    return f"< {' '.join(pool[:len(names)])} | {', '.join(words)} >"


def _run_finite(text: str) -> dict:
    p = fpgroup.parse_presentation(text)
    ab = fpgroup.abelianization(p)
    table = fpgroup.coset_enumeration(p, ())
    group = fpgroup.permutation_realization(table)
    out = {"rank": ab.rank, "torsion": ab.torsion, "index": table.index,
           "order": len(group), "brute": None}
    if table.index <= BRUTE_FORCE_MAX_ORDER:
        commutator = permgroup.commutator_subgroup(group)
        quotient, _, _ = permgroup.quotient_table(group, commutator)
        out["brute"] = quotient.abelian_invariants()
    return out


def _check_finite(order: int, torsion):
    def check(out: dict) -> str | None:
        if out["index"] != order or out["order"] != order:
            return f"index {out['index']} / order {out['order']}, expected {order}"
        if out["rank"] != 0 or out["torsion"] != torsion:
            return f"SNF gave rank {out['rank']} torsion {out['torsion']}, expected {torsion}"
        if order <= BRUTE_FORCE_MAX_ORDER and out["brute"] != torsion:
            return f"brute-force abelianization {out['brute']}, expected {torsion}"
        return None
    return check


def _run_infinite(text: str) -> dict:
    p = fpgroup.parse_presentation(text)
    ab = fpgroup.abelianization(p)
    try:
        table = fpgroup.coset_enumeration(p, (), cap=INFINITE_COSET_CAP)
    except CapExceeded as error:
        return {"torsion": ab.torsion, "refused": str(error)}
    return {"torsion": ab.torsion, "refused": None, "index": table.index}


def _check_infinite(torsion):
    def check(out: dict) -> str | None:
        if out["refused"] is None:
            return f"an infinite group enumerated to index {out['index']}"
        if out["torsion"] != torsion:
            return f"SNF gave torsion {out['torsion']}, expected {torsion}"
        return None
    return check


def _run_lattice(invariants) -> tuple[int, ...]:
    subs = fpgroup.subgroups_of_abelian(fpgroup.AbelianInvariants(0, invariants))
    return tuple(sorted(s.order for s in subs))


def _check_lattice(got, invariants) -> str | None:
    want = subgroup_orders(invariants)
    if got != want:
        return f"subgroup orders {got}, expected {want}"
    return None


def _run_wreath(spec: str, n: int):
    _, q_table = tables.group_from_spec(spec)
    return monodromy.wreath_quotient_check(q_table, n)


def _check_wreath(q_order: int, n: int, qab):
    def check(report) -> str | None:
        if not report.ok:
            return "wreath quotient check failed"
        if report.wreath_order != q_order ** n * factorial(n):
            return f"|W| = {report.wreath_order}"
        if report.q_abelianized != qab:
            return f"Q^ab = {report.q_abelianized}, expected {qab}"
        return None
    return check


def presentations(rng: random.Random) -> list[Item]:
    items = []
    for key, order, torsion, names, relators in FINITE_PRESENTATIONS:
        text = _spell(rng, names, relators)
        items.append(Item(key=f"presentation {key}", refused=False,
                          run=lambda t=text: _run_finite(t),
                          check=_check_finite(order, torsion)))
    for key, torsion, names, relators in INFINITE_PRESENTATIONS:
        text = _spell(rng, names, relators)
        items.append(Item(key=f"presentation {key}", refused=True,
                          run=lambda t=text: _run_infinite(t),
                          check=_check_infinite(torsion)))
    for invariants in SUBGROUP_LATTICES:
        items.append(Item(
            key=f"subgroups {'x'.join(f'Z{n}' for n in invariants)}",
            refused=False, run=lambda i=invariants: _run_lattice(i),
            check=lambda got, i=invariants: _check_lattice(got, i)))
    for spec, n, q_order, qab in WREATH_CELLS:
        items.append(Item(key=f"wreath {spec} n={n}", refused=False,
                          run=lambda s=spec, k=n: _run_wreath(s, k),
                          check=_check_wreath(q_order, n, qab)))
    rng.shuffle(items)
    return items


_BUILDERS = {
    "square-sweep": square_sweep,
    "classify-mix": classify_mix,
    "presentations": presentations,
}


def build_items(workload: str, seed: int) -> list[Item]:
    """The workload's items for one pass, spelled and ordered by ``seed``."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
