"""The benchmark's traced run wraps sparsescene functions by name; keep them resolvable."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_targets() -> tuple:
    """``TARGETS`` of perfbench/spans.py, read from its source without running it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {SPANS}")


def _defines(module: str, attr: str) -> bool:
    mod = importlib.import_module(f"sparsescene.{module}")
    # ``bank`` targets are methods of DictionaryBank, as perfbench wraps them
    return attr in vars(mod.DictionaryBank if module == "bank" else mod)


def test_every_traced_target_resolves():
    targets = _traced_targets()
    missing = [f"{m}.{a}" for _, m, a in targets if not _defines(m, a)]
    assert targets and not missing, f"perfbench traces missing names: {missing}"
