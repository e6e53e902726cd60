"""The README's Python examples run as written, and they and the demos import
from the top level only what the top level documents."""
import ast
import inspect
import re
from pathlib import Path

import pytest

import vqkit

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# the names the README example and the demos import, and the exceptions
DOCUMENTED = {
    "Codebook", "Tape", "VQConfig", "quantize", "collapse_config", "resolve_config",
    "run_affine_toy", "run_init_study", "run_toy_trajectory", "run_training",
    "ConfigError", "ContractViolation", "DegenerateInput", "NumericFailure", "VQKitError",
}


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(source):
    exec(compile(source, f"{README.name} example", "exec"), {})


def test_the_top_level_is_the_documented_api():
    assert {name for name in vqkit.__all__
            if not inspect.ismodule(getattr(vqkit, name))} == DOCUMENTED
    assert DEMOS
    imported = set()
    for source in BLOCKS + [path.read_text() for path in DEMOS]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "vqkit" and not node.level:
                imported.update(alias.name for alias in node.names)
    assert imported and imported <= DOCUMENTED, imported - DOCUMENTED
