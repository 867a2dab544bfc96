"""Where ``src/contactgeo`` may catch a pole or an overflow.

Every value read at a sample point goes through ``scalar.evaluate``,
which turns a pole, an overflow or a float that is not finite into
``NonFiniteValue`` with the point as its witness.  A caller that caught
``DivisionByZero``, ``OverflowError`` or ``ZeroDivisionError`` itself
would apply a rule of its own (skip the point, say), so an ``except``
clause that can catch one of them is allowed only at the functions
below, each for the reason given.  A broader clause (``ArithmeticError``,
``ExpressionError``, ``Exception`` or a bare ``except``) counts too.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "contactgeo"

CAUGHT = {"DivisionByZero", "OverflowError", "ZeroDivisionError", "ArithmeticError",
          "ExpressionError", "Exception", "BaseException"}

ALLOWED = {
    ("scalar", "evaluate"):
        "the rule itself: a pole or an overflow becomes NonFiniteValue naming the point",
    ("geometry", "bounds"):
        "an enclosure that cannot be decided is None, and the points are then judged",
}


def _names(node):
    if node is None:
        return {"BaseException"}  # a bare except
    if isinstance(node, ast.Tuple):
        return set().union(*(_names(elt) for elt in node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    return set()


def _catchers(tree):
    """The qualified names of the functions holding a clause that catches."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.ExceptHandler) and _names(child.type) & CAUGHT:
                found.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(tree, ())
    return found


def test_poles_and_overflows_are_caught_only_where_allowed():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= {(path.stem, name) for name in _catchers(ast.parse(path.read_text()))}
    assert found == set(ALLOWED)
    assert all(ALLOWED.values())


def test_a_clause_elsewhere_is_found():
    tree = ast.parse("def f():\n    try:\n        pass\n    except (KeyError, OverflowError):\n"
                     "        pass\nclass C:\n    def g(self):\n        try:\n            pass\n"
                     "        except:\n            pass\n")
    assert _catchers(tree) == {"f", "C.g"}
