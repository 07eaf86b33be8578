"""Exact JSON encoding of the descriptor types.

Everything in this package is integer-valued, so serialization is lossless
by construction: permutations are image lists, groups are generator lists
plus a domain size (decoding regenerates the same element set),
presentations are their canonical text.  Dictionaries carry a ``type`` tag
for dispatch, and reports are wrapped in a versioned envelope.

:func:`emit` writes exactly what ``json.dumps(data, indent=2,
sort_keys=True)`` writes, byte for byte.  With an indent the standard
library encodes through its pure-Python generators; :func:`emit` is one
recursive writer instead, for the types the package emits: ``str``,
``int``, ``bool`` and ``None``, and exact ``dict`` (with ``str`` keys),
``list`` and ``tuple``.  It escapes strings with the C escaper
(``json.encoder.encode_basestring_ascii``) that ``json`` itself uses,
writes a list of one scalar type with one C-level ``map``, and encodes a
container that recurs once per nesting level, by identity: ``classify``
hands one cover dict to every subgroup of a quotient type.  Anything else
(a float, a key that is not a ``str``, a subclass, a container that holds
itself) it hands to ``json.dumps``, which writes it or refuses it.
"""
from __future__ import annotations

import json

from . import permgroup
from .descriptors import CoverDescriptor, SurfaceDescriptor
from .fpgroup import AbelianInvariants, parse_presentation
from .permgroup import Group, Permutation

SCHEMA_VERSION = 1


def group_to_dict(group: Group) -> dict:
    return {
        "domain_size": group.domain_size,
        "generators": [list(p.images) for p in group.generators],
    }


def group_from_dict(data: dict) -> Group:
    return permgroup.generate(
        tuple(Permutation(tuple(images)) for images in data["generators"]),
        domain_size=data["domain_size"],
    )


def cover_to_dict(cover: CoverDescriptor) -> dict:
    return {
        "type": "cover",
        "base_label": cover.base_label,
        "total_points": list(cover.total_points),
        "monodromy": group_to_dict(cover.monodromy),
        "degree": cover.degree,
        "deck_group": group_to_dict(cover.deck_group),
        "galois": cover.galois,
        "ramification_labels": sorted(cover.ramification_labels),
        "center_labels": list(cover.center_labels),
    }


def cover_from_dict(data: dict) -> CoverDescriptor:
    return CoverDescriptor(
        base_label=data["base_label"],
        total_points=tuple(data["total_points"]),
        monodromy=group_from_dict(data["monodromy"]),
        degree=data["degree"],
        deck_group=group_from_dict(data["deck_group"]),
        galois=data["galois"],
        ramification_labels=frozenset(data["ramification_labels"]),
        center_labels=tuple(data["center_labels"]),
    )


def surface_to_dict(surface: SurfaceDescriptor) -> dict:
    return {
        "type": "surface",
        "name": surface.name,
        "pi1_smooth": str(surface.pi1_smooth),
        "singular_points": [list(pair) for pair in surface.singular_points],
        "hodge": None if surface.hodge is None else list(surface.hodge),
    }


def surface_from_dict(data: dict) -> SurfaceDescriptor:
    return SurfaceDescriptor(
        name=data["name"],
        pi1_smooth=parse_presentation(data["pi1_smooth"]),
        singular_points=tuple(
            (label, ade) for label, ade in data["singular_points"]
        ),
        hodge=None if data["hodge"] is None else tuple(data["hodge"]),
    )


def invariants_to_dict(invariants: AbelianInvariants) -> dict:
    return {
        "type": "abelian_invariants",
        "rank": invariants.rank,
        "torsion": list(invariants.torsion),
    }


def invariants_from_dict(data: dict) -> AbelianInvariants:
    return AbelianInvariants(
        rank=data["rank"], torsion=tuple(data["torsion"])
    )


_ENCODERS = {
    CoverDescriptor: cover_to_dict,
    SurfaceDescriptor: surface_to_dict,
    AbelianInvariants: invariants_to_dict,
}
_DECODERS = {
    "cover": cover_from_dict,
    "surface": surface_from_dict,
    "abelian_invariants": invariants_from_dict,
}


def to_dict(obj) -> dict:
    encoder = _ENCODERS.get(type(obj))
    if encoder is None:
        raise TypeError(f"no JSON encoding for {type(obj).__name__}")
    return encoder(obj)


def from_dict(data: dict):
    decoder = _DECODERS.get(data.get("type"))
    if decoder is None:
        raise ValueError(f"unknown record type {data.get('type')!r}")
    return decoder(data)


def envelope(command: str, results: list) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "results": results,
    }


_escape = json.encoder.encode_basestring_ascii
_INDENT = "  "

# How json writes each scalar type the package emits, by exact type.
_SCALARS = {
    str: _escape,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def emit(data: dict) -> str:
    """``json.dumps(data, indent=2, sort_keys=True)``, character for
    character (see the module docstring)."""
    memo: dict[tuple[int, int], str] = {}
    active: set[int] = set()
    scalars = _SCALARS

    def container(o, level: int) -> str:
        if not o:
            return "{}" if type(o) is dict else "[]"
        key = (id(o), level)
        text = memo.get(key)
        if text is not None:
            return text
        if key[0] in active:
            raise ValueError("Circular reference detected")
        active.add(key[0])
        inner, sub = "\n" + _INDENT * (level + 1), level + 1
        if type(o) is dict:
            opening, closing = "{", "}"
            # _escape refuses a key that is not a str.
            parts = [
                _escape(k) + ": "
                + (scalars[type(v)](v) if type(v) in scalars
                   else value(v, sub))
                for k, v in sorted(o.items())
            ]
        else:
            opening, closing = "[", "]"
            types = set(map(type, o))
            scalar = scalars.get(types.pop()) if len(types) == 1 else None
            parts = (map(scalar, o) if scalar is not None
                     else [value(v, sub) for v in o])
        text = (opening + inner + ("," + inner).join(parts)
                + "\n" + _INDENT * level + closing)
        active.discard(key[0])
        memo[key] = text
        return text

    def value(o, level: int) -> str:
        scalar = scalars.get(type(o))
        if scalar is not None:
            return scalar(o)
        if type(o) in (dict, list, tuple):
            return container(o, level)
        raise TypeError(f"{type(o).__name__} is written by json")

    # The writer raises TypeError on any other type or key, and ValueError
    # on a container that holds itself; json.dumps then writes or refuses.
    try:
        return value(data, 0)
    except (TypeError, ValueError):
        return json.dumps(data, indent=2, sort_keys=True)


def parse(text: str) -> dict:
    return json.loads(text)
