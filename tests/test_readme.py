"""The README's Python API example runs and prints the values it claims."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_block_values():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(block).body:
        line = lines[node.end_lineno - 1]
        if isinstance(node, ast.Expr) and "#" in line:
            # a trailing comment opens with the literal the expression returns
            expected = ast.literal_eval(line.split("#", 1)[1].split()[0])
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert repr(value) == repr(expected), line
            checked += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked == 4
