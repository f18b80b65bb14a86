"""Sanity checks for the example scripts.

Full example runs take minutes; here we verify each script parses, has a
main() and a usage docstring, and that the cheapest one actually runs
end to end.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


class TestExampleHygiene:
    def test_examples_exist(self):
        names = {path.name for path in EXAMPLES}
        assert {"quickstart.py", "stock_exchange.py", "hotspot_shift.py",
                "executor_scale_out.py"} <= names

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_example_parses_with_main_and_docstring(self, path):
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path.name} has no module docstring"
        assert "Usage::" in ast.get_docstring(tree)
        functions = {
            node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        }
        assert "main" in functions

    def test_quickstart_runs_end_to_end(self, tmp_path):
        # Run with a shortened duration by patching through an env-driven
        # subprocess: the script itself must work as shipped, so run it
        # for real but bound the wall time generously.
        proc = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "throughput" in proc.stdout
        assert "final core allocation" in proc.stdout
