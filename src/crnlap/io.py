"""Network document format: JSON parsing, validation, canonical serialization.

Schema (UTF-8 JSON):

    {
      "species":  ["A", "B"],
      "vertices": [{"id": "1", "complex": {"A": 2, "B": 1}}, ...],
      "edges":    [{"from": "1", "to": "2", "k": 1}, ...],
      "metadata": {...}                      # optional, free-form
    }

Numbers may be JSON integers, decimal/fraction strings ("0.5", "3/4"), or
{"num": p, "den": q} pairs -- all parsed exactly.  Raw JSON floats force
float mode.  Serialization is canonical: integral rationals as ints,
other rationals as num/den pairs, so parse o serialize is the identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .crn import ReactionNetwork
from .errors import (
    CrnlapError,
    DuplicateComplexError,
    DuplicateEdgeError,
    DuplicateVertexError,
    NegativeComplexEntryError,
    NonPositiveLabelError,
    SchemaError,
    SemanticError,
    UnknownEndpointError,
)
from .graph import LabeledDigraph

Number = Fraction | float


def parse_number(value, path: str, mode: str = "auto") -> Number:
    """Parse a document number; exact unless the document used a raw float."""
    if isinstance(value, bool):
        raise SchemaError(f"expected a number, got {value!r}", path)
    if isinstance(value, int):
        out: Number = Fraction(value)
    elif isinstance(value, float):
        if mode == "exact":
            raise SemanticError(
                "exact mode requires ints, decimal strings, or num/den pairs", path
            )
        out = value
    elif isinstance(value, str):
        try:
            out = Fraction(value)
        except (ValueError, ZeroDivisionError) as e:
            raise SchemaError(f"cannot parse number string {value!r}: {e}", path)
    elif isinstance(value, dict):
        if set(value) != {"num", "den"}:
            raise SchemaError('number object must have exactly "num" and "den"', path)
        if not isinstance(value["num"], int) or not isinstance(value["den"], int):
            raise SchemaError("num/den must be integers", path)
        if value["den"] == 0:
            raise SchemaError("den must be nonzero", path)
        out = Fraction(value["num"], value["den"])
    else:
        raise SchemaError(f"expected a number, got {type(value).__name__}", path)
    if mode == "float":
        return float(out)
    return out


def number_to_json(value: Number):
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return {"num": value.numerator, "den": value.denominator}
    return float(value)


@dataclass
class NetworkDocument:
    """Parsed network file, preserving exactness of the input numbers."""

    species: list[str]
    vertices: list[tuple[str, dict[str, Number]]]  # (id, complex map)
    edges: list[tuple[str, str, Number]]
    metadata: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        obj = {
            "species": list(self.species),
            "vertices": [
                {
                    "id": vid,
                    "complex": {s: number_to_json(c) for s, c in comp.items()},
                }
                for vid, comp in self.vertices
            ],
            "edges": [
                {"from": s, "to": d, "k": number_to_json(k)} for s, d, k in self.edges
            ],
        }
        if self.metadata:
            obj["metadata"] = self.metadata
        return obj

    def serialize(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)


def _expect(obj, key: str, kind, path: str):
    if key not in obj:
        raise SchemaError(f'missing field "{key}"', f"{path}.{key}" if path else key)
    value = obj[key]
    if not isinstance(value, kind):
        raise SchemaError(
            f'field "{key}" must be {kind.__name__}, got {type(value).__name__}',
            f"{path}.{key}" if path else key,
        )
    return value


def parse_document(text: str, mode: str = "auto") -> NetworkDocument:
    """Parse and schema-check a document; diagnostics carry field paths."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON: {e}", "")
    if not isinstance(obj, dict):
        raise SchemaError("document must be a JSON object", "")
    species_raw = _expect(obj, "species", list, "")
    species = []
    for i, s in enumerate(species_raw):
        if not isinstance(s, str):
            raise SchemaError("species names must be strings", f"species[{i}]")
        species.append(s)
    if len(set(species)) != len(species):
        raise SemanticError("duplicate species name", "species")

    vertices = []
    for i, v in enumerate(_expect(obj, "vertices", list, "")):
        vpath = f"vertices[{i}]"
        if not isinstance(v, dict):
            raise SchemaError("vertex must be an object", vpath)
        vid = _expect(v, "id", (str, int), vpath)
        comp_raw = _expect(v, "complex", dict, vpath)
        comp: dict[str, Number] = {}
        for s, c in comp_raw.items():
            if s not in species:
                raise SemanticError(f"unknown species {s!r} in complex", f"{vpath}.complex")
            comp[s] = parse_number(c, f"{vpath}.complex.{s}", mode)
        vertices.append((str(vid), comp))

    edges = []
    for i, e in enumerate(_expect(obj, "edges", list, "")):
        epath = f"edges[{i}]"
        if not isinstance(e, dict):
            raise SchemaError("edge must be an object", epath)
        src = _expect(e, "from", (str, int), epath)
        dst = _expect(e, "to", (str, int), epath)
        k = parse_number(_expect(e, "k", object, epath), f"{epath}.k", mode)
        if k <= 0:
            raise SemanticError("edge label k must be positive", f"{epath}.k")
        edges.append((str(src), str(dst), k))

    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SchemaError('"metadata" must be an object', "metadata")
    return NetworkDocument(
        species=species, vertices=vertices, edges=edges, metadata=metadata
    )


def document_to_network(doc: NetworkDocument) -> ReactionNetwork:
    """Build the reaction network; semantic violations carry field paths."""
    ids = [vid for vid, _ in doc.vertices]
    try:
        graph = LabeledDigraph(ids, doc.edges)
    except (
        DuplicateVertexError,
        DuplicateEdgeError,
        UnknownEndpointError,
        NonPositiveLabelError,
    ) as e:
        raise SemanticError(str(e), "edges")
    except CrnlapError as e:
        raise SemanticError(str(e), "")
    complexes = [
        [comp.get(s, Fraction(0)) for _, comp in doc.vertices] for s in doc.species
    ]
    try:
        return ReactionNetwork(doc.species, complexes, graph)
    except (DuplicateComplexError, NegativeComplexEntryError) as e:
        raise SemanticError(str(e), "vertices")


def parse_network(text: str, mode: str = "auto") -> tuple[NetworkDocument, ReactionNetwork]:
    """One-call parse + validate + build."""
    doc = parse_document(text, mode)
    return doc, document_to_network(doc)
