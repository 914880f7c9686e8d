"""README's python block runs as printed and prints the values it quotes."""

import ast
import re
from pathlib import Path

import numpy as np

_README = Path(__file__).resolve().parents[1] / "README.md"

# each value the block quotes: the first line of the statement whose
# comments quote it, what gives it once that statement has run (an
# expression statement's value is `_`), and the quote
_QUOTES = (
    ("psi0 = equal_superposition(2)", "psi0", "[0.7071, 0.7071]"),
    ("meter_qfi_grid(0.2, 20.0, 2.0, psi0)", "_", "31.65"),
    ("joint_qfi_grid(0.2, 20.0, 2.0, psi0)", "_", "34.15"),
    ("sensor_qfi(0.2, 20.0)", "_", "4.155"),
    ("tau_max, q, edge = find_t_max(2.0, psi0,", "tau_max", "[0.2247, 0.1344, 0.1045]"),
    ("tau_max, q, edge = find_t_max(2.0, psi0,", "q", "[33.09, 500.6, 1487]"),
    ("tau_max, q, edge = find_t_max(2.0, psi0,", "edge", "[False, False, False]"),
    ("w = slow_spectrum(", "w.shape", "(81, 4)"),
    ("tau_max, q, edge = find_t_max(2.0, tuple(", "tau_max", "[0.2247, 0.2260, 0.2266]"),
    ("tau_max, q, edge = find_t_max(2.0, tuple(", "q", "[33.09, 46.98, 54.83]"),
)


def _prints_as(value, quote):
    """True where value, each number rounded to the significant digits that
    quote prints it with, reads as quote: a number, a list, or a shape."""
    if quote.startswith("("):
        return tuple(value) == ast.literal_eval(quote)
    tokens = re.findall(r"[^\[\],\s]+", quote)
    values = np.atleast_1d(value).tolist()
    if len(tokens) != len(values):
        return False
    for v, token in zip(values, tokens):
        if token in ("True", "False"):
            if v is not (token == "True"):
                return False
        elif float(f"{v:.{len(token.replace('.', '').lstrip('0'))}g}") != float(token):
            return False
    return True


def test_readme_python_block_prints_the_values_it_quotes():
    block = re.search(r"^```python\n(.*?)^```", _README.read_text(encoding="utf-8"),
                      re.S | re.M).group(1)
    lines = block.splitlines()
    tree = ast.parse(block)
    namespace, checked = {}, set()
    for k, node in enumerate(tree.body):
        if isinstance(node, ast.Expr):
            namespace["_"] = eval(compile(ast.Expression(node.value), "README", "eval"),
                                  namespace)
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
        # the statement's own comments and the comment lines up to the next one
        end = tree.body[k + 1].lineno - 1 if k + 1 < len(tree.body) else len(lines)
        comments = " ".join(line.split("#", 1)[1] for line in lines[node.lineno - 1:end]
                            if "#" in line)
        for i, (first, expression, quote) in enumerate(_QUOTES):
            if lines[node.lineno - 1].startswith(first):
                assert quote in comments, (first, quote)
                value = eval(expression, namespace)
                assert _prints_as(value, quote), (first, expression, value, quote)
                checked.add(i)
    assert checked == set(range(len(_QUOTES)))
