"""The demos run nowhere in the suite: check, without running them, that their imports resolve."""

import ast
import importlib
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demo_imports_from_fragma_resolve():
    assert len(DEMOS) >= 5
    for demo in DEMOS:
        for node in ast.walk(ast.parse(demo.read_text(), filename=str(demo))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "fragma":
                        importlib.import_module(alias.name)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fragma":
                module = importlib.import_module(node.module)
                missing = [a.name for a in node.names if not hasattr(module, a.name)]
                assert not missing, f"{demo.name}: {node.module} has no {missing}"
