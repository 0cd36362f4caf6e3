"""Constructive routing of vertex-disjoint path systems on the grid.

solve() always succeeds on any problem with k at most (d1 + d2) // 2
pairs; the construction is inductive on the grid dimensions and every
run is recorded as a trace of case decisions that can be replayed to
reproduce the linkage bit for bit.

Each case step peels columns off the grid (transposing when rows are the
better side to peel) and hands the smaller problem to the next step:

* one active row: the grid is a clique and each pair is a direct edge;
* two active rows: every terminal of one row steps down its column into
  the other row, detouring through an empty column when the cell below
  is taken, and the row clique finishes the job;
* some pair shares a column: that pair is an edge; each other terminal
  of the column steps across its own row into the first free cell, or
  through a spare row when its own row is full, and the column is
  deleted;
* otherwise a pair spanning two columns is bridged inside them, the
  block terminals on rows that are full outside the two columns move
  first, each down its own block column into a free cell of a lower
  row, or across to the other block column and down that one, the
  remaining terminals of those columns are walked out into free entries
  of the rest of the grid, and both columns are deleted.  The full rows
  never outnumber the block's slack (the full-rows bound, argued at its
  check), and a counting argument at the relocation shows it never
  runs out of room.

Every evacuation is one call to drain_block, and no step uses the
max-flow engine.  The steps run in a loop, not by recursion, and the
linkage is folded back out of the finished trace by the same code that
replays it.

Internal failures raise SolverInvariantError carrying the trace: the
construction cannot fail on a legal input, so a failure is a bug, never
an infeasibility verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import Vertex, flip
from .menger import disjoint_paths  # unused; perfbench/tracing.py wraps this name
from .problem import Linkage, LinkageProblem, ProblemContractError

class SolverInvariantError(RuntimeError):
    """An internal construction step failed; carries the trace so far."""

    def __init__(self, message: str, trace: "SolverTrace | None" = None) -> None:
        super().__init__(message)
        self.trace = trace


def cyclic_dual_params(d: int) -> tuple[int, int]:
    """Grid dimensions whose product graph is the dual graph of the
    cyclic d-polytope on d + 2 vertices: (floor(d/2), ceil(d/2))."""
    if d < 2:
        raise ProblemContractError(f"dimension must be at least 2, got {d}")
    return d // 2, (d + 1) // 2


# ---------------------------------------------------------------------------
# trace records


@dataclass(frozen=True)
class TransposeStep:
    reason: str


@dataclass(frozen=True)
class SingleRowStep:
    row: int
    paths: dict[int, tuple[Vertex, ...]]


@dataclass(frozen=True)
class TwoRowsStep:
    target_row: int
    paths: dict[int, tuple[Vertex, ...]]


@dataclass(frozen=True)
class LinePairStep:
    pair: int
    column: int
    bridge: tuple[Vertex, ...]
    moved: tuple[Vertex, ...]
    staying: tuple[Vertex, ...]
    stubs: dict[int, tuple]


@dataclass(frozen=True)
class TwoColumnStep:
    pair: int
    cols: tuple[int, int]
    slack: int
    bend_row: int
    bridge: tuple[Vertex, ...]
    top_rows: tuple[int, ...]
    pushes: dict[Vertex, str] | None
    into_block: int
    in_block: int
    matching: dict[int, int] | None
    stubs: dict[int, tuple]


@dataclass(frozen=True)
class SolverTrace:
    steps: tuple = ()

    @property
    def depth(self) -> int:
        return sum(1 for s in self.steps if not isinstance(s, TransposeStep))


def _fmt_path(path) -> str:
    return "".join(f"({v[0]},{v[1]})" for v in path)


def render_trace(trace: SolverTrace) -> str:
    lines = []
    for n, st in enumerate(trace.steps, start=1):
        if isinstance(st, TransposeStep):
            lines.append(f"step {n}: transpose reason={st.reason}")
        elif isinstance(st, SingleRowStep):
            lines.append(f"step {n}: single-row row={st.row} pairs={len(st.paths)}")
        elif isinstance(st, TwoRowsStep):
            lines.append(f"step {n}: two-rows target-row={st.target_row} pairs={len(st.paths)}")
        elif isinstance(st, LinePairStep):
            lines.append(
                f"step {n}: pair-in-column pair={st.pair + 1} column={st.column}"
                f" bridge={_fmt_path(st.bridge)} moved={len(st.moved)} staying={len(st.staying)}"
            )
        else:
            pushes = "-" if st.pushes is None else ",".join(
                f"{tuple(v)}:{how}" for v, how in sorted(st.pushes.items()))
            matching = "-" if st.matching is None else ",".join(
                f"{a}->{b}" for a, b in sorted(st.matching.items()))
            lines.append(
                f"step {n}: two-columns pair={st.pair + 1} cols={st.cols} slack={st.slack}"
                f" bend-row={st.bend_row} bridge={_fmt_path(st.bridge)} top-rows={st.top_rows}"
                f" into-block={st.into_block} in-block={st.in_block}"
                f" pushes={pushes} matching={matching}"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# reusable routing pieces (each independently testable)


def bridge_candidates(rows, block_cols, s: Vertex, t: Vertex):
    """The len(rows)-many internally disjoint s-t paths inside two columns.

    Two bends of length two (through s's row or t's row) and one
    length-three path through every remaining row; each candidate is
    returned with the row that contributes both of its block entries.
    """
    c_s, c_t = s[1], t[1]
    if {c_s, c_t} != set(block_cols) or c_s == c_t or s[0] == t[0]:
        raise SolverInvariantError(
            "bridge endpoints must span the two block columns on distinct rows")
    cands = [
        ([s, Vertex(s[0], c_t), t], s[0]),
        ([s, Vertex(t[0], c_s), t], t[0]),
    ]
    for r in rows:
        if r != s[0] and r != t[0]:
            cands.append(([s, Vertex(r, c_s), Vertex(r, c_t), t], r))
    return cands


def bridge_path(rows, block_cols, s: Vertex, t: Vertex, occupied) -> tuple[list[Vertex], int]:
    """First candidate whose interior avoids every other terminal.

    At most len(rows) - 1 terminals other than s, t can sit in the two
    columns and the candidates are internally disjoint, so one is free.
    """
    others = set(occupied) - {s, t}
    for path, bend in bridge_candidates(rows, block_cols, s, t):
        if not any(v in others for v in path[1:-1]):
            return list(path), bend
    raise SolverInvariantError("every bridge candidate is blocked; occupancy cap violated")


def _plain_by_row(rows, block_cols, occupied, anchors) -> dict[int, list[Vertex]]:
    """The block's plain (non-anchor) terminals by row, in label and
    block-column order; visits terminals only, not the whole block."""
    row_set = set(rows)
    hit = {v[0] for v in occupied
           if v[1] in block_cols and v[0] in row_set and v not in anchors}
    return {r: [v for v in (Vertex(r, c) for c in block_cols)
                if v in occupied and v not in anchors] for r in sorted(hit)}


def _free_dest(r: int, dest_cols, occupied) -> Vertex | None:
    return next((w for w in (Vertex(r, c) for c in dest_cols) if w not in occupied), None)


def _match_spares(plain, rows, block_cols, dest_cols, occupied) -> dict[int, int]:
    needy = [r for r, xs in plain.items()
             if len(xs) > 1 or _free_dest(r, dest_cols, occupied) is None]
    if not needy:
        return {}
    spare = []
    for r in sorted(rows):
        if (r not in plain and any(Vertex(r, c) not in occupied for c in block_cols)
                and _free_dest(r, dest_cols, occupied) is not None):
            spare.append(r)
            if len(spare) == len(needy):
                break
    if len(spare) < len(needy):
        raise SolverInvariantError("rows needing a detour outnumber spare rows")
    return dict(zip(needy, spare))


def doubled_row_matching(rows, block_cols, dest_cols, occupied, anchors) -> dict[int, int]:
    """Injective map from the block rows that need a detour to spare rows.

    A row needs a detour when it holds two plain terminals, or one that
    faces a full destination row.  A spare row holds no plain terminal
    and has a free block entry and a free destination entry.  Spare rows
    are looked for only when a detour is needed, lowest label first, and
    matched to the needy rows in label order; the solver's counting
    arguments guarantee enough of them.
    """
    plain = _plain_by_row(rows, block_cols, occupied, set(anchors))
    return _match_spares(plain, rows, block_cols, dest_cols, occupied)


def drain_block(rows, block_cols, dest_cols, occupied, anchors,
                matching: dict[int, int] | None = None) -> dict[Vertex, list[Vertex]]:
    """Walk every plain terminal out of the block into the destination
    columns; the block is one or two columns wide.

    A plain terminal crosses straight into the first free entry of its
    own destination row, except that a row matched to a spare row (see
    doubled_row_matching) sends one terminal through the spare row's free
    block entry in that terminal's column and on to the spare row's first
    free destination entry.  All paths are pairwise disjoint, never pass
    through a terminal, and no destination row receives more than one
    endpoint.  A doubled row needs a free destination entry of its own
    for the terminal that stays; a lone terminal that detours needs its
    spare row's entry in its own column free, which holds in a one-column
    block and for every spare row without an anchor.
    """
    plain_rows = _plain_by_row(rows, block_cols, occupied, set(anchors))
    if matching is None:
        matching = _match_spares(plain_rows, rows, block_cols, dest_cols, occupied)

    def end(r: int) -> Vertex:
        # each destination row takes one endpoint, so its first free
        # entry cannot have been claimed by another path
        w = _free_dest(r, dest_cols, occupied)
        if w is None:
            raise SolverInvariantError(f"no free destination entry in row {r}")
        return w

    out: dict[Vertex, list[Vertex]] = {}
    for r, plain in plain_rows.items():
        spare = matching.get(r)
        if spare is not None:
            detour = next((x for x in plain if Vertex(spare, x[1]) not in occupied), None)
            if detour is None:
                raise SolverInvariantError(f"spare row {spare} has no free block entry")
            out[detour] = [detour, Vertex(spare, detour[1]), end(spare)]
            plain = [x for x in plain if x != detour]
        elif len(plain) > 1:
            raise SolverInvariantError(f"doubled row {r} missing from the matching")
        for x in plain:
            out[x] = [x, end(r)]
    return out


# ---------------------------------------------------------------------------
# solver internals


class _Moves:
    """Accumulates relocation stubs; one chain per original terminal."""

    def __init__(self, terminals) -> None:
        self.cur_of = {t: t for t in terminals}
        self.origin_of = {t: t for t in terminals}
        self.path: dict[Vertex, list[Vertex]] = {}

    def apply(self, cur: Vertex, path) -> None:
        origin = self.origin_of.pop(cur)
        prev = self.path.get(origin)
        self.path[origin] = (prev[:-1] + list(path)) if prev else list(path)
        self.cur_of[origin] = path[-1]
        self.origin_of[path[-1]] = origin

    def dest(self, origin: Vertex) -> Vertex:
        return self.cur_of[origin]

    def stub(self, origin: Vertex):
        p = self.path.get(origin)
        return tuple(p) if p else None


def _stitch(inner, stub_s, stub_t):
    path = list(inner)
    if stub_s is not None and path[0] != stub_s[-1]:
        path.reverse()
    elif stub_s is None and stub_t is not None and path[-1] != stub_t[-1]:
        path.reverse()
    if stub_s is not None:
        if path[0] != stub_s[-1]:
            raise SolverInvariantError("stub does not meet its recursive path")
        path = list(stub_s) + path[1:]
    if stub_t is not None:
        if path[-1] != stub_t[-1]:
            raise SolverInvariantError("stub does not meet its recursive path")
        path = path + list(stub_t)[-2::-1]
    return path


def _finish(step, rec: dict[int, list[Vertex]]) -> dict[int, list[Vertex]]:
    """Stitch one step's stubs onto the paths routed by the steps after it."""
    out = dict(rec)
    for idx, (stub_s, stub_t) in step.stubs.items():
        inner = out.get(idx)
        if inner is None:
            raise SolverInvariantError(f"pair {idx} missing from the later steps")
        out[idx] = _stitch(inner, stub_s, stub_t)
    out[step.pair] = list(step.bridge)
    return out


def _base_single_row(rows, pairs):
    return SingleRowStep(rows[0], {idx: (s, t) for s, t, idx in pairs})


def _base_two_rows(rows, cols, pairs):
    # flipped, the top row is a one-column block drained into the target
    # row; 2k <= len(cols) terminals leave at least as many columns with
    # both cells free as columns with both cells taken, so every top
    # terminal facing a taken cell finds a free column to detour through
    top, target = rows
    terminals = [v for s, t, _ in pairs for v in (s, t)]
    drained = drain_block(cols, (top,), (target,), {flip(v) for v in terminals}, ())
    stub = {v: [v] for v in terminals}
    for x, path in drained.items():
        stub[flip(x)] = [flip(w) for w in path]
    return TwoRowsStep(target, {idx: tuple(stub[s] + stub[t][::-1]) for s, t, idx in pairs})


def _case_line_pair(rows, cols, pairs, chosen):
    # each other terminal of the column hops across its own row; one whose
    # row is full detours through a spare row, and counting terminals
    # against 2k <= d1' + d2' (with d2' >= 2) leaves enough spare rows
    s1, t1, i1 = chosen
    col0 = s1[1]
    occupied = {v for s, t, _ in pairs for v in (s, t)}
    rest_cols = tuple(c for c in cols if c != col0)
    drained = drain_block(rows, (col0,), rest_cols, occupied, (s1, t1))
    moves = _Moves(occupied)
    for x, path in drained.items():
        moves.apply(x, path)
    staying = sorted(v for v in occupied if v[1] != col0)
    rec_pairs = []
    stubs = {}
    for s, t, idx in pairs:
        if idx == i1:
            continue
        rec_pairs.append((moves.dest(s), moves.dest(t), idx))
        stub_s, stub_t = moves.stub(s), moves.stub(t)
        if stub_s is not None or stub_t is not None:
            stubs[idx] = (stub_s, stub_t)
    step = LinePairStep(i1, col0, (s1, t1), tuple(sorted(drained)), tuple(staying), stubs)
    return step, (rows, rest_cols, rec_pairs)


def _case_two_columns(rows, cols, pairs):
    s1, t1, i1 = pairs[0]
    block_cols = (s1[1], t1[1])
    block_set = frozenset(block_cols)
    rest_cols = tuple(c for c in cols if c not in block_set)
    anchors = {s1, t1}
    occupied = {v for s, t, _ in pairs for v in (s, t)}
    d1p = len(rows) - 1
    block_terms = sorted(v for v in occupied if v[1] in block_set)
    slack = d1p + 2 - len(block_terms)
    if not 0 <= slack <= d1p:
        raise SolverInvariantError("two-column occupancy out of range")
    bridge, bend = bridge_path(rows, block_cols, s1, t1, occupied)
    others = [v for v in block_terms if v not in anchors]
    if any(v[0] == bend for v in others):
        raise SolverInvariantError("plain terminal on the bridge row")

    moves = _Moves(occupied)
    matching = None
    # The saturated rows never outnumber the slack: 2k <= d1' + d2' leaves
    # at most d2' - 2 + slack terminals outside the block, a full row takes
    # d2' - 1 of them, and slack + 1 full rows would need
    # slack * (d2' - 2) < 0 (this case runs on at least three columns).
    full_rows = tuple(r for r in rows
                      if all(Vertex(r, c) in occupied for c in rest_cols))
    if len(full_rows) > slack:
        raise SolverInvariantError("more saturated rows than the occupancy slack allows")
    top_rows = tuple(sorted({bend, *full_rows}))
    low_rows = tuple(r for r in rows if r not in top_rows)
    # a mover, a plain block terminal on a saturated row, cannot leave
    # across its row, so it steps down its own block column to the lowest
    # free low cell, or, when that column is packed, across to its
    # row-mate cell and down the other column
    movers = sorted(v for v in others if v[0] in top_rows)
    in_block = len(others) - len(movers)
    pushes = {}
    for x in movers:
        mate = Vertex(x[0], block_cols[1] if x[1] == block_cols[0] else block_cols[0])
        for how, path in (("down", [x]), ("across", [x, mate])):
            c = path[-1][1]
            down = next((r for r in low_rows if Vertex(r, c) not in occupied), None)
            if down is not None and occupied.isdisjoint(path[1:]):
                break
        else:
            # Unreachable.  Let h be the block's rows, B = h + 1 - slack its
            # terminals and L the low rows; the full-rows bound gives
            # |L| >= h - 1 - slack.  If chi movers of a column c find no
            # free low cell in c, counting B by rows gives
            #     chi + alpha + m' + t' = B - |L| <= 2,
            # with alpha the anchors on top rows, m' the movers of the
            # other column and t' its terminals on low rows.  If the
            # bridge bends through a third row, rows s0 and t0 each hold
            # two block terminals and each adds one to alpha + t', so no
            # mover crosses.  Otherwise the bend row holds an anchor, so
            # alpha >= 1 and at most one mover per step crosses; when one
            # does, m' = t' = 0, so its row-mate cell and the other
            # column's low cells are free.
            raise SolverInvariantError(f"mover {tuple(x)} has no reachable low-block cell")
        path.append(Vertex(down, c))
        pushes[x] = how
        occupied.discard(x)
        occupied.add(path[-1])
        moves.apply(x, path)
    if any(v[1] in block_set and v[0] in low_rows and v not in anchors for v in occupied):
        for r in low_rows:
            if all(Vertex(r, c) in occupied for c in rest_cols):
                raise SolverInvariantError("destination row saturated after relabeling")
        matching = doubled_row_matching(low_rows, block_cols, rest_cols, occupied, anchors)
        drained = drain_block(low_rows, block_cols, rest_cols, occupied, anchors, matching)
        for cur in sorted(drained):
            path = drained[cur]
            occupied.discard(cur)
            occupied.add(path[-1])
            moves.apply(cur, path)

    rec_pairs = []
    stubs = {}
    rest_set = frozenset(rest_cols)
    for s, t, idx in pairs[1:]:
        ns, nt = moves.dest(s), moves.dest(t)
        if ns[1] not in rest_set or nt[1] not in rest_set:
            raise SolverInvariantError("a terminal was left behind in the deleted columns")
        rec_pairs.append((ns, nt, idx))
        stub_s, stub_t = moves.stub(s), moves.stub(t)
        if stub_s is not None or stub_t is not None:
            stubs[idx] = (stub_s, stub_t)
    step = TwoColumnStep(i1, block_cols, slack, bend, tuple(bridge), top_rows,
                         pushes or None, len(movers), in_block, matching, stubs)
    return step, (rows, rest_cols, rec_pairs)


def _transpose(rows, cols, pairs, reason):
    flipped = [(flip(s), flip(t), idx) for s, t, idx in pairs]
    return TransposeStep(reason), (cols, rows, flipped)


def _next_step(rows, cols, pairs, retransposed):
    """The case step for this problem and the smaller problem it leaves
    (None after a base case)."""
    if len(rows) > 2 >= len(cols) or len(rows) > 1 == len(cols):
        # a lone column, even of two cells, is routed as a row clique
        return _transpose(rows, cols, pairs, "narrow-side-first")
    if len(rows) == 1:
        return _base_single_row(rows, pairs), None
    if len(rows) == 2:
        return _base_two_rows(rows, cols, pairs), None
    for s, t, idx in pairs:
        if s[1] == t[1]:
            return _case_line_pair(rows, cols, pairs, (s, t, idx))
        if s[0] == t[0]:
            return _transpose(rows, cols, pairs, "pair-in-row")
    s1, t1, _ = pairs[0]
    block = {s1[1], t1[1]}
    in_block = sum(1 for s, t, _ in pairs for v in (s, t) if v[1] in block)
    if in_block > len(rows) + 1:
        if retransposed:
            raise SolverInvariantError("both the column and the row block overflow")
        return _transpose(rows, cols, pairs, "two-column-overflow")
    return _case_two_columns(rows, cols, pairs)


def _solve(rows, cols, pairs, steps) -> None:
    """Append case steps to steps until a base case or no pair is left."""
    retransposed = False
    while pairs:
        step, reduced = _next_step(rows, cols, pairs, retransposed)
        steps.append(step)
        if reduced is None:
            return
        rows, cols, pairs = reduced
        retransposed = isinstance(step, TransposeStep) and step.reason == "two-column-overflow"


def solve(problem: LinkageProblem) -> tuple[Linkage, SolverTrace]:
    """Route every pair of the problem with pairwise disjoint paths.

    Requires k <= (d1' + d2') // 2 for the problem's active dimensions
    (k <= |V| // 2 when the grid is a single clique); within that bound
    the construction always succeeds, so any internal failure surfaces
    as SolverInvariantError rather than a result.
    """
    bound = problem.guaranteed_bound
    if problem.k > bound:
        raise ProblemContractError(
            f"{problem.k} pairs exceed the guaranteed bound {bound};"
            " use the exhaustive oracle for such instances")
    sub = problem.subgrid
    pairs = [(s, t, i) for i, (s, t) in enumerate(problem.pairs)]
    steps: list = []
    try:
        _solve(sub.rows, sub.cols, pairs, steps)
        trace = SolverTrace(tuple(steps))
        return replay(problem, trace), trace
    except SolverInvariantError as err:
        err.trace = SolverTrace(tuple(steps))
        raise


def replay(problem: LinkageProblem, trace: SolverTrace) -> Linkage:
    """Rebuild the linkage from the recorded case decisions alone.

    solve() builds its own linkage this way too: the last step's paths
    come first, and each earlier step stitches its stubs onto them.
    """
    acc: dict[int, list[Vertex]] = {}
    for step in reversed(trace.steps):
        if isinstance(step, TransposeStep):
            acc = {i: [flip(v) for v in p] for i, p in acc.items()}
        elif isinstance(step, (SingleRowStep, TwoRowsStep)):
            for i, p in step.paths.items():
                acc[i] = list(p)
        else:
            acc = _finish(step, acc)
    return Linkage(tuple(tuple(acc[i]) for i in range(len(problem.pairs))))
