"""Readers and writers for grid maps, scenario files, and roadmap graphs.

Grid maps use the Moving AI benchmark layout: a four-line header (type octile,
height, width, map) followed by one character per cell, '.' or 'G' passable
and '@', 'O', 'T', 'W' blocked.  Scenario files are 'version 1' plus one
9-field tab-separated line per agent.  Roadmaps use a small text format
('v <n>' vertex lines, 'e <m>' edge lines, '#' comments); scenario entries for
roadmaps put the start and goal vertex ids in the x columns, 0 in the y
columns, the vertex count in the width column, and 1 in the height column.

All format violations raise ParseError with a one-line diagnostic naming the
offending line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

from .graph import GridSpec, IntGraph, RealGraph, Vertex, build_grid_graph, cell_vertex_ids

__all__ = [
    "ParseError",
    "ScenarioEntry",
    "Instance",
    "parse_map",
    "serialize_map",
    "parse_scen",
    "serialize_scen",
    "parse_roadmap",
    "serialize_roadmap",
    "place_agents",
    "make_instance",
]

_PASSABLE = frozenset(".G")
_BLOCKED = frozenset("@OTW")


class ParseError(ValueError):
    """A map, scenario, or roadmap file violates its format."""


@dataclass(frozen=True)
class ScenarioEntry:
    """One line of a scenario file: an agent's start/goal plus file metadata."""

    bucket: int
    map_name: str
    width: int
    height: int
    start: tuple[int, int]
    goal: tuple[int, int]
    optimal_length: float


@dataclass(frozen=True)
class Instance:
    """A solvable problem: a graph plus injective start and goal vertex lists."""

    graph: RealGraph | IntGraph
    starts: tuple[int, ...]
    goals: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.starts) != len(self.goals):
            raise ValueError(f"{len(self.starts)} starts vs {len(self.goals)} goals")
        if not self.starts:
            raise ValueError("instance needs at least one agent")
        n = self.graph.n
        for name, ids in (("start", self.starts), ("goal", self.goals)):
            for a, v in enumerate(ids):
                if not (0 <= v < n):
                    raise ValueError(f"agent {a} {name} vertex {v} out of range 0..{n - 1}")
            if len(set(ids)) != len(ids):
                raise ValueError(f"{name} vertices are not pairwise distinct")
        if len(self.starts) >= n:
            raise ValueError(f"{len(self.starts)} agents need fewer agents than the {n} vertices")

    @property
    def n_agents(self) -> int:
        return len(self.starts)


def _lines(text: str) -> list[str]:
    # tolerate \r\n and a missing trailing newline
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_map(text: str) -> GridSpec:
    """Parse a Moving AI grid map file into a GridSpec."""
    lines = _lines(text)
    if len(lines) < 4:
        raise ParseError("map: file ends before the 4-line header")
    if lines[0] != "type octile":
        raise ParseError(f"map line 1: expected 'type octile', got {lines[0]!r}")
    height = _header_int(lines[1], "height", 2)
    width = _header_int(lines[2], "width", 3)
    if lines[3] != "map":
        raise ParseError(f"map line 4: expected 'map', got {lines[3]!r}")
    if height <= 0 or width <= 0:
        raise ParseError(f"map: dimensions {width}x{height} must be positive")
    rows = lines[4:]
    while rows and rows[-1] == "":
        rows.pop()
    if len(rows) != height:
        raise ParseError(f"map: expected {height} rows after the header, found {len(rows)}")
    passable: list[bool] = []
    for y, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"map row {y + 1}: length {len(row)} != width {width}")
        for c in row:
            if c in _PASSABLE:
                passable.append(True)
            elif c in _BLOCKED:
                passable.append(False)
            else:
                raise ParseError(f"map row {y + 1}: unknown cell character {c!r}")
    return GridSpec(width, height, tuple(passable))


def _header_int(line: str, key: str, lineno: int) -> int:
    parts = line.split(" ")
    if len(parts) != 2 or parts[0] != key:
        raise ParseError(f"map line {lineno}: expected '{key} <n>', got {line!r}")
    try:
        return int(parts[1])
    except ValueError:
        raise ParseError(f"map line {lineno}: expected '{key} <n>', got {line!r}") from None


def serialize_map(grid: GridSpec) -> str:
    """Render a GridSpec back to map-file text ('.' passable, '@' blocked)."""
    out = ["type octile", f"height {grid.height}", f"width {grid.width}", "map"]
    for y in range(grid.height):
        row = grid.passable[y * grid.width : (y + 1) * grid.width]
        out.append("".join("." if p else "@" for p in row))
    return "\n".join(out) + "\n"


def parse_scen(text: str) -> list[ScenarioEntry]:
    """Parse a 'version 1' scenario file into its entries, in file order."""
    lines = _lines(text)
    if not lines or lines[0].strip() != "version 1":
        got = lines[0] if lines else ""
        raise ParseError(f"scen line 1: expected 'version 1', got {got!r}")
    entries: list[ScenarioEntry] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line.strip() == "":
            continue
        fields = line.split("\t")
        if len(fields) != 9:
            raise ParseError(f"scen line {lineno}: expected 9 tab-separated fields, got {len(fields)}")
        names = ("bucket", "map", "width", "height", "sx", "sy", "gx", "gy", "optimal")
        ints: dict[str, int] = {}
        for name, val in zip(names, fields):
            if name in ("map", "optimal"):
                continue
            try:
                ints[name] = int(val)
            except ValueError:
                raise ParseError(f"scen line {lineno}: field {name} is not an integer: {val!r}") from None
        try:
            optimal = float(fields[8])
        except ValueError:
            raise ParseError(f"scen line {lineno}: field optimal is not a number: {fields[8]!r}") from None
        if not math.isfinite(optimal):
            raise ParseError(f"scen line {lineno}: field optimal is not finite: {fields[8]!r}")
        width, height = ints["width"], ints["height"]
        start = (ints["sx"], ints["sy"])
        goal = (ints["gx"], ints["gy"])
        for name, (x, y) in (("start", start), ("goal", goal)):
            if not (0 <= x < width and 0 <= y < height):
                raise ParseError(
                    f"scen line {lineno}: {name} ({x},{y}) outside declared {width}x{height} bounds"
                )
        if start == goal:
            raise ParseError(f"scen line {lineno}: start equals goal")
        entries.append(ScenarioEntry(ints["bucket"], fields[1], width, height, start, goal, optimal))
    return entries


def serialize_scen(entries: Sequence[ScenarioEntry]) -> str:
    """Render scenario entries back to file text (floats via repr)."""
    out = ["version 1"]
    for e in entries:
        out.append(
            "\t".join(
                str(x)
                for x in (
                    e.bucket,
                    e.map_name,
                    e.width,
                    e.height,
                    e.start[0],
                    e.start[1],
                    e.goal[0],
                    e.goal[1],
                    repr(e.optimal_length),
                )
            )
        )
    return "\n".join(out) + "\n"


def _cell(value) -> str:
    """One value of a CSV row or a key=value line: floats by repr, bools as true/false, None as empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _header(cls) -> str:
    return ",".join(f.name for f in fields(cls))


def _to_csv(cls, records) -> str:
    """Header and one line per record, one column per field of cls."""
    lines = [_header(cls)]
    for r in records:
        values = [(f, getattr(r, f.name)) for f in fields(cls)]
        lines.append(",".join(f.metadata.get("missing", "") if v is None else _cell(v) for f, v in values))
    return "\n".join(lines) + "\n"


def parse_roadmap(text: str) -> RealGraph:
    """Parse the roadmap text format into a RealGraph.

    Grammar: 'v <n>', then n lines '<id> <x> <y>' (ids 0..n-1, any order),
    then 'e <m>', then m lines '<u> <v> <w>'.  '#' starts a comment.
    """
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(_lines(text), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body.split()))
    if not rows:
        raise ParseError("roadmap: empty file")
    it = iter(rows)
    lineno, head = next(it)
    n = _directive_count(head, "v", lineno)
    positions: dict[int, tuple[float, float]] = {}
    for _ in range(n):
        lineno, tok = _next_row(it, "vertex")
        if len(tok) != 3:
            raise ParseError(f"roadmap line {lineno}: expected '<id> <x> <y>', got {len(tok)} fields")
        vid = _int_tok(tok[0], "vertex id", lineno)
        if not (0 <= vid < n):
            raise ParseError(f"roadmap line {lineno}: vertex id {vid} out of range 0..{n - 1}")
        if vid in positions:
            raise ParseError(f"roadmap line {lineno}: duplicate vertex id {vid}")
        positions[vid] = (_float_tok(tok[1], "x", lineno), _float_tok(tok[2], "y", lineno))
    lineno, head = _next_row(it, "'e <m>' header")
    m = _directive_count(head, "e", lineno)
    edges: list[tuple[int, int, float]] = []
    for _ in range(m):
        lineno, tok = _next_row(it, "edge")
        if len(tok) != 3:
            raise ParseError(f"roadmap line {lineno}: expected '<u> <v> <w>', got {len(tok)} fields")
        u = _int_tok(tok[0], "edge endpoint", lineno)
        v = _int_tok(tok[1], "edge endpoint", lineno)
        w = _float_tok(tok[2], "edge weight", lineno)
        edges.append((u, v, w))
    leftover = next(it, None)
    if leftover is not None:
        raise ParseError(f"roadmap line {leftover[0]}: unexpected content after the declared edges")
    vertices = [Vertex(i, positions[i]) for i in range(n)]
    try:
        return RealGraph(vertices, edges)
    except ValueError as exc:
        raise ParseError(f"roadmap: {exc}") from None


def _directive_count(tok: list[str], letter: str, lineno: int) -> int:
    if len(tok) != 2 or tok[0] != letter:
        raise ParseError(f"roadmap line {lineno}: expected '{letter} <count>', got {' '.join(tok)!r}")
    count = _int_tok(tok[1], "count", lineno)
    if count < 0:
        raise ParseError(f"roadmap line {lineno}: negative count {count}")
    return count


def _next_row(it, what: str) -> tuple[int, list[str]]:
    row = next(it, None)
    if row is None:
        raise ParseError(f"roadmap: file ends before expected {what} line")
    return row


def _int_tok(tok: str, what: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"roadmap line {lineno}: {what} is not an integer: {tok!r}") from None


def _float_tok(tok: str, what: str, lineno: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ParseError(f"roadmap line {lineno}: {what} is not a number: {tok!r}") from None


def serialize_roadmap(g: RealGraph | IntGraph) -> str:
    """Render a graph to roadmap text.

    parse_roadmap(serialize_roadmap(g)) has g's vertices, positions, edges and
    weights (as floats: parse_roadmap always returns a RealGraph).
    """
    out = [f"v {g.n}"]
    for v in g.vertices:
        out.append(f"{v.id} {v.pos[0]!r} {v.pos[1]!r}")
    out.append(f"e {len(g.edges)}")
    for u, v, w in g.edges:
        out.append(f"{u} {v} {w!r}")
    return "\n".join(out) + "\n"


def place_agents(
    graph: RealGraph | IntGraph,
    entries: Sequence[ScenarioEntry],
    cell_ids: dict[tuple[int, int], int] | None = None,
) -> Instance:
    """An Instance on graph with one agent per scenario entry, in order.

    With cell_ids (cell_vertex_ids of the grid the graph was built from),
    entry coordinates are cells; without, the x columns carry vertex ids and
    the y columns must be 0.  Blocked or unknown cells and vertices are
    reported per entry; start/goal injectivity and the agents < vertices bound
    are enforced by the Instance constructor.
    """
    starts: list[int] = []
    goals: list[int] = []
    for a, e in enumerate(entries):
        for name, cell, acc in (("start", e.start, starts), ("goal", e.goal, goals)):
            if cell_ids is not None:
                vid = cell_ids.get(cell)
                if vid is None:
                    raise ValueError(f"agent {a} {name} cell {cell} is blocked or out of bounds")
            else:
                vid, zero = cell
                if zero != 0:
                    raise ValueError(f"agent {a} {name}: roadmap entries need 0 in the y column, got {zero}")
                if not (0 <= vid < graph.n):
                    raise ValueError(f"agent {a} {name} vertex {vid} out of range 0..{graph.n - 1}")
            acc.append(vid)
    return Instance(graph, tuple(starts), tuple(goals))


def make_instance(
    source: GridSpec | RealGraph,
    entries: Sequence[ScenarioEntry],
    n_agents: int,
    *,
    k: int = 3,
) -> Instance:
    """Build an Instance from the first n_agents scenario entries.

    A GridSpec source is expanded to its 2^k graph and entry coordinates are
    cell positions; a RealGraph source is used as-is and the x columns carry
    vertex ids.  place_agents maps and checks the entries.
    """
    if n_agents < 1:
        raise ValueError(f"n_agents must be >= 1, got {n_agents}")
    if n_agents > len(entries):
        raise ValueError(f"scenario provides {len(entries)} entries, requested {n_agents} agents")
    selected = entries[:n_agents]
    if isinstance(source, GridSpec):
        return place_agents(build_grid_graph(source, k), selected, cell_vertex_ids(source))
    return place_agents(source, selected)
