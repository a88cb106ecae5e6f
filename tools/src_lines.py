#!/usr/bin/env python3
"""Line counts of the package sources, the yardstick for smaller code.

    python3 tools/src_lines.py [ROOT]

Prints one JSON object: for each module under ``ROOT`` (default
``src/`` next to this directory) and for their total, ``lines`` (every
physical line) and ``code`` (lines holding code: no blank line, no line
holding only a comment, and no line of a module, class or function
docstring).
"""

import ast
import io
import json
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """Line numbers spanned by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(text):
    """``{"lines": ..., "code": ...}`` of one Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= _docstring_lines(ast.parse(text))
    return {"lines": len(text.splitlines()), "code": len(code)}


def main(root):
    out, total = {}, {"lines": 0, "code": 0}
    for folder, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    out[os.path.relpath(path, root)] = counts = count(fh.read())
                for key in total:
                    total[key] += counts[key]
    out["total"] = total
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
