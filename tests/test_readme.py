"""The README's library example runs and gives the results its comments state."""

import ast
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_end_to_end():
    text = README.read_text(encoding="utf-8")
    block = text.split("Example, end to end:", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace, results = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            comment = lines[stmt.lineno - 1].partition("#")[2].strip()
            assert comment.startswith(repr(value)), (comment, value)
            results.append(value)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    assert results == ["UNDECIDED", Fraction(25, 2), Fraction(25, 2)]
