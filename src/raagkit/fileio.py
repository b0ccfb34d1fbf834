"""JSON readers and writers for the on-disk formats the CLI consumes.

Graph files carry ``vertices`` and ``edges``.  Hom files carry ``source``,
``target`` and ``map``, where the endpoint fields may be inline graphs or
paths (resolved relative to the referencing file).  Coalgebra files carry
``group`` and ``images``; the group is a graph, a path to one, or a handle
description with its own generating set.  Presentation files carry
``generators`` and ``relators``.
"""

from __future__ import annotations

import json
import os

from .coalgebra import CoalgebraMap, make_coalgebra
from .errors import RaagError
from .functors import ac_text, handle_with_generators, raag_of_graph
from .graphs import Graph, GraphHom, validate_graph, validate_hom
from .recovery import FinitePresentation, presentation
from .words import word_text


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise RaagError(f"{path}: not valid JSON ({exc})") from exc


def _field(data, name: str, where: str):
    if not isinstance(data, dict) or name not in data:
        raise RaagError(f"{where}: missing field {name!r}")
    return data[name]


def _texts(value, kind: type, message: str):
    """value, if it is a JSON array (kind list) or object (kind dict) whose
    entries are all strings; otherwise RaagError(message)."""
    items = value.values() if isinstance(value, dict) else value
    if not isinstance(value, kind) or not all(isinstance(x, str) for x in items):
        raise RaagError(message)
    return value


def graph_from_data(data) -> Graph:
    vertices = _field(data, "vertices", "graph")
    edges = _field(data, "edges", "graph")
    if not isinstance(vertices, list):
        raise RaagError("graph: 'vertices' must be an array of names")
    if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e)
            for e in edges):
        raise RaagError("graph: 'edges' must be an array of name pairs")
    return validate_graph(vertices, edges)


def graph_data(graph: Graph) -> dict:
    return {
        "vertices": list(graph.vertices),
        "edges": [[u, v] for u, v in graph.sorted_edges()],
    }


def load_graph(path: str) -> Graph:
    return graph_from_data(_load_json(path))


def _resolve_graph(field, base_dir: str, where: str) -> Graph:
    if isinstance(field, str):
        return load_graph(os.path.join(base_dir, field))
    if isinstance(field, dict):
        return graph_from_data(field)
    raise RaagError(f"{where}: expected a graph or a path to one")


def load_hom(path: str) -> GraphHom:
    data = _load_json(path)
    base = os.path.dirname(os.path.abspath(path))
    src = _resolve_graph(_field(data, "source", path), base, f"{path} source")
    dst = _resolve_graph(_field(data, "target", path), base, f"{path} target")
    table = _texts(_field(data, "map", path), dict,
                   f"{path}: 'map' must be an object vertex -> vertex")
    return validate_hom(src, dst, table)


def _resolve_group(field, base_dir: str, where: str):
    if isinstance(field, str):
        return raag_of_graph(load_graph(os.path.join(base_dir, field)))
    if isinstance(field, dict) and "vertices" in field:
        return raag_of_graph(graph_from_data(field))
    if isinstance(field, dict) and "graph" in field:
        graph = _resolve_graph(field["graph"], base_dir, where)
        generators = field.get("generators")
        if generators is None:
            return raag_of_graph(graph)
        return handle_with_generators(graph, _texts(
            generators, dict, f"{where}: 'generators' must map names to words"))
    raise RaagError(f"{where}: cannot interpret the 'group' field")


def load_group(path: str):
    """A group handle from a graph file or a handle description file."""
    data = _load_json(path)
    base = os.path.dirname(os.path.abspath(path))
    return _resolve_group(data, base, path)


def load_coalgebra(path: str) -> CoalgebraMap:
    data = _load_json(path)
    base = os.path.dirname(os.path.abspath(path))
    group = _resolve_group(_field(data, "group", path), base, f"{path} group")
    images = _texts(_field(data, "images", path), dict,
                    f"{path}: 'images' must map generators to symbol words")
    return make_coalgebra(group, images)


def coalgebra_data(c: CoalgebraMap) -> dict:
    group = c.group
    if group.is_default:
        group_field = graph_data(group.graph)
    else:
        group_field = {
            "graph": graph_data(group.graph),
            "generators": {name: word_text(w) for name, w in group.generator_items()},
        }
    return {
        "group": group_field,
        "images": {name: ac_text(c.image_of(name))
                   for name, _ in group.generator_items()},
    }


def load_presentation(path: str) -> FinitePresentation:
    data = _load_json(path)
    gens = _texts(_field(data, "generators", path), list,
                  f"{path}: 'generators' must be an array of names")
    rels = _texts(_field(data, "relators", path), list,
                  f"{path}: 'relators' must be an array of word texts")
    return presentation(gens, rels)
