"""Package import hygiene: every dependency between oamsense modules is a
module-level import, so the import graph can be read off the module tops."""

import ast
from pathlib import Path

import oamsense

MODULES = sorted(Path(oamsense.__file__).resolve().parent.glob("*.py"))


def _package_modules(node) -> list[str]:
    """The oamsense modules an import statement names, or [] for any other node."""
    if isinstance(node, ast.ImportFrom):
        if node.level > 0:  # from . import x, y / from .x import name
            return [node.module] if node.module else [a.name for a in node.names]
        if node.module == "oamsense":
            return [a.name for a in node.names]
        if (node.module or "").startswith("oamsense."):
            return [node.module.split(".")[1]]
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("oamsense.")]
    return []


def _top_level_graph() -> dict[str, set[str]]:
    return {
        path.stem: {name for node in ast.parse(path.read_text()).body
                    for name in _package_modules(node)}
        for path in MODULES
    }


def _closure(graph: dict[str, set[str]], module: str) -> set[str]:
    seen, todo = set(), list(graph[module])
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(graph.get(name, ()))
    return seen


def test_no_package_import_inside_a_function():
    # lazy scipy and standard-library imports stay allowed
    found = []
    for path in MODULES:
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(func)
                          if _package_modules(node)]
    assert found == []


def test_module_graph_has_no_cycle():
    graph = _top_level_graph()
    assert graph["beams"] >= {"swg", "table"}
    assert _closure(graph, "swg") == {"table"}
    assert [m for m in graph if m in _closure(graph, m)] == []
