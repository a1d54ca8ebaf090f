"""Source-lines-of-code counting (the paper's Table I).

Table I compares implementation effort across languages by SLOC
(C++ 494, Python 162, Pandas 162, Matlab 102, Octave 102, Julia 162).
Here the "languages" are backend modules; :func:`backend_sloc_table`
counts each backend's implementation file the same way the paper's
convention does: non-blank, non-comment source lines (docstrings count
as comments, since they are documentation, not code).

What a backend's file holds is what that backend implements *itself*:
its Kernel 2 and Kernel 3 (and adjacency handle), plus whichever Kernel
0/1 steps it replaces — ``dataframe`` its sort, ``python`` both kernels
whole.  Kernels 0 and 1 as such are defined once, in
:mod:`repro.backends.base`, and are counted with the shared substrate,
like the paper's common generator specification — so the scipy
"Matlab analogue" lands beside the paper's Matlab row (102) instead of
carrying a private copy of the file plumbing.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path
from typing import Dict, List

from repro.backends.registry import available_backends


def count_sloc(source: str) -> int:
    """Count non-blank, non-comment, non-docstring lines of Python.

    Comment lines (``#``) and docstring-only lines are excluded via the
    token stream; blank lines are excluded trivially.

    Examples
    --------
    >>> count_sloc('x = 1\\n# comment\\n\\ny = 2\\n')
    2
    """
    comment_lines = set()
    docstring_lines = set()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except tokenize.TokenizeError as exc:  # pragma: no cover - invalid input
        raise ValueError(f"cannot tokenize source: {exc}") from exc
    for token in tokens:
        if token.type == tokenize.COMMENT:
            comment_lines.add(token.start[0])

    # Docstrings: string-expression statements at module/class/function top.
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:  # pragma: no cover - invalid input
        raise ValueError(f"cannot parse source: {exc}") from exc
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if not isinstance(body, list) or not body:
            continue
        first = body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            for line in range(first.lineno, first.end_lineno + 1):
                docstring_lines.add(line)

    sloc = 0
    for lineno, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if lineno in docstring_lines:
            continue
        if lineno in comment_lines and stripped.startswith("#"):
            continue
        sloc += 1
    return sloc


def count_file_sloc(path: Path) -> int:
    """SLOC of one Python file."""
    return count_sloc(Path(path).read_text(encoding="utf-8"))


def _backend_module_path(backend_name: str) -> Path:
    """Locate the implementation file of a registered backend."""
    import importlib

    from repro.backends.registry import get_backend

    instance = get_backend(backend_name)
    module = importlib.import_module(type(instance).__module__)
    return Path(module.__file__)


def backend_sloc_table(backends: List[str] | None = None) -> Dict[str, int]:
    """SLOC per backend implementation module (Table I analogue).

    Returns a mapping ``backend name -> source lines`` in registry
    order.  Shared substrate code (edgeio, sort, grb, frame, and the
    Kernel 0/1 definitions in ``backends/base.py``) is *not* attributed
    to backends — the paper's per-language counts likewise exclude the
    common generator specification.
    """
    names = backends if backends is not None else available_backends()
    return {name: count_file_sloc(_backend_module_path(name)) for name in names}
