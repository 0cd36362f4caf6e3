"""Plain-text instance and linkage files.

Instance format (LF line endings, UTF-8, `#` starts a comment):

    dims D1 D2
    pair R1 C1 R2 C2
    ...

Coordinates are 0-based, and the board is always the full grid: a
problem on a proper subgrid has no instance file.  A linkage file
holds one `path I: (r,c) ...` line per pair, 1-based path numbers in
pair order.  Parsing then serialising then parsing is the identity on
the parsed value.
"""

from __future__ import annotations

import re

from .grid import ProblemContractError, ProductGraph, Vertex, _vertex
from .problem import LinkageProblem


class InstanceFormatError(ValueError):
    """The file does not match the documented format."""


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_instance(text: str) -> LinkageProblem:
    dims: tuple[int, int] | None = None
    pairs: list[tuple[Vertex, Vertex]] = []
    for lineno, line in _content_lines(text):
        fields = line.split()
        if fields[0] == "dims":
            if dims is not None:
                raise InstanceFormatError(f"line {lineno}: duplicate dims line")
            if len(fields) != 3:
                raise InstanceFormatError(f"line {lineno}: expected 'dims D1 D2'")
            try:
                dims = (int(fields[1]), int(fields[2]))
            except ValueError:
                raise InstanceFormatError(f"line {lineno}: dims must be integers") from None
        elif fields[0] == "pair":
            if dims is None:
                raise InstanceFormatError(f"line {lineno}: pair before dims")
            if len(fields) != 5:
                raise InstanceFormatError(f"line {lineno}: expected 'pair R1 C1 R2 C2'")
            try:
                r1, c1, r2, c2 = (int(x) for x in fields[1:])
            except ValueError:
                raise InstanceFormatError(f"line {lineno}: coordinates must be integers") from None
            pairs.append((_vertex((r1, c1)), _vertex((r2, c2))))
        else:
            raise InstanceFormatError(f"line {lineno}: unknown directive {fields[0]!r}")
    if dims is None:
        raise InstanceFormatError("missing dims line")
    if dims[0] < 0 or dims[1] < 0:
        raise InstanceFormatError("dims must be nonnegative")
    return LinkageProblem(ProductGraph(*dims), tuple(pairs))


def serialize_instance(problem: LinkageProblem) -> str:
    sub = problem.subgrid
    if sub.vertex_count != sub.base.vertex_count:
        raise ProblemContractError("the instance format describes full boards only")
    lines = [f"dims {sub.base.d1} {sub.base.d2}"]
    for s, t in problem.pairs:
        lines.append(f"pair {s.row} {s.col} {t.row} {t.col}")
    return "\n".join(lines) + "\n"


_PATH_RE = re.compile(r"^path\s+(\d+)\s*:\s*(.*)$")
_VERTEX_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_linkage(text: str) -> list[list[Vertex]]:
    entries: dict[int, list[Vertex]] = {}
    for lineno, line in _content_lines(text):
        m = _PATH_RE.match(line)
        if not m:
            raise InstanceFormatError(f"line {lineno}: expected 'path I: (r,c) ...'")
        index = int(m.group(1))
        if index < 1 or index in entries:
            raise InstanceFormatError(f"line {lineno}: bad or duplicate path number {index}")
        body = m.group(2)
        leftover = _VERTEX_RE.sub("", body).strip()
        if leftover:
            raise InstanceFormatError(f"line {lineno}: unparsable path data {leftover!r}")
        verts = [_vertex((int(r), int(c))) for r, c in _VERTEX_RE.findall(body)]
        if not verts:
            raise InstanceFormatError(f"line {lineno}: empty path")
        entries[index] = verts
    if sorted(entries) != list(range(1, len(entries) + 1)):
        raise InstanceFormatError("path numbers must be 1..k without gaps")
    return [entries[i] for i in range(1, len(entries) + 1)]


def serialize_linkage(paths) -> str:
    lines = []
    for i, path in enumerate(paths, start=1):
        body = " ".join(f"({v[0]},{v[1]})" for v in path)
        lines.append(f"path {i}: {body}")
    return "\n".join(lines) + "\n" if lines else ""
