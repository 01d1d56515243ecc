"""README.md's library example runs and prints what its comments say."""

import ast
import contextlib
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def _comments(source):
    """The comment text of each line that has one, by line number."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start[0]: tok.string[1:].strip() for tok in tokens if tok.type == tokenize.COMMENT}


def _checks(source):
    """Run ``source`` statement by statement and yield (shown, expected) for
    each expression statement: a ``print`` call shows its output, any other
    expression its value, and the line's comment is the expected output."""
    comments, namespace = _comments(source), {}
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        expected = comments.get(stmt.end_lineno)
        assert expected is not None, f"no output comment on {code!r}"
        call = stmt.value
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "print":
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(code, namespace)
            yield code, out.getvalue().rstrip("\n"), expected
        else:
            # a set prints in hash-seed order, so a value is compared as a value
            yield code, eval(code, namespace), eval(expected, {})


def test_the_library_example_prints_what_its_comments_say():
    blocks = _python_blocks(README.read_text(encoding="utf-8"))
    assert blocks
    checked = 0
    for block in blocks:
        for code, shown, expected in _checks(block):
            assert shown == expected, code
            checked += 1
    assert checked == 4
