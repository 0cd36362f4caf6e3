"""Constructive routing of vertex-disjoint path systems on the grid.

solve() always succeeds on any problem with k at most (d1 + d2) // 2
pairs; the construction is inductive on the grid dimensions and every
run is recorded as a trace of case decisions that can be replayed to
reproduce the linkage bit for bit.

Each case step peels columns off the grid (transposing when rows are the
better side to peel) and hands the smaller problem to the next step:

* one active row: the grid is a clique and each pair is a direct edge;
* two active rows: every terminal of one row whose partner is not in
  that row steps down its column into the other row, detouring through
  an empty column when the cell below is taken, and the row clique
  finishes the job;
* some pair shares a column: that pair and every other pair inside the
  column are edges; each other terminal of the column steps across its
  own row, or through a spare row when its own row is full, into its
  partner's column when that cell is free (leaving a pair that shares a
  column for a later step) and into the first free cell otherwise, and
  the column is deleted;
* otherwise a pair spanning two columns is bridged inside them, the
  block terminals on rows that are full outside the two columns move
  first, each down its own block column into a free cell of a lower
  row, or across to the other block column and down that one, the
  remaining terminals of those columns are walked out into free entries
  of the rest of the grid, their partners' columns first, and both
  columns are deleted.  The full rows never outnumber the block's slack
  (the full-rows bound, argued at its check), and a counting argument at
  the relocation shows it never runs out of room.

The steps run in a loop, not by recursion, on one _Board that each step
updates for the cells it moves only.  It keeps the active lines as
ordered sets in label order, indexes the terminals by row, by column and
by pair (a map from each terminal's cell to its partner's, whose keys are
the occupied cells) and keeps a heap of the pairs that share a line, so a
step reads only its block's lines and the pairs it moves: a two-column
step finds the rows full outside its block among one rest column's rows,
and walks the others lazily, in label order; a transpose swaps the line
indexes and re-keys the pairs in one pass.  Every evacuation is one call
to drain_block, which is handed the block's terminals to walk out and
finds its own spare rows; the package has no max-flow engine.  Each step
logs its moves in the order made, and steps keep each pair's (s, t)
order, so replay undoes a step's moves, last first, onto the later paths
as they stand.  A line-pair step records the other pairs it routes as
edges beside its log, never in it, and replay sets them after undoing
the moves.  A record keeps no fact its bridge or log holds: render_trace
reads the block columns and bend row off the bridge, and off the log the
pushes, the moves that end in a block column and come first, and the
matching, the 3-cell moves after them.  The steps route, and key every
lookup, on plain (r, c) tuples; the linkage is folded back out of the
finished trace by the same code that replays it, and replay builds its
Vertex objects with grid's one constructor.

Internal failures raise SolverInvariantError carrying the trace: the
construction cannot fail on a legal input, so a failure is a bug, never
an infeasibility verdict.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain

from .grid import _vertex, flip
from .problem import Linkage, LinkageProblem, ProblemContractError

Cell = tuple[int, int]  # a board cell (r, c); a Vertex compares and hashes equal

class SolverInvariantError(RuntimeError):
    """An internal construction step failed; carries the trace so far."""

    def __init__(self, message: str, trace: "SolverTrace | None" = None) -> None:
        super().__init__(message)
        self.trace = trace


def disjoint_paths(s, a_set, b_set, forbidden=(), k=None):
    """A name perfbench/tracing.py wraps; the solver routes with no flow and
    never calls it.  ROADMAP item 15 deletes it together with tracing.py."""
    raise SolverInvariantError("the package has no max-flow engine")


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
    paths: dict[int, tuple[Cell, ...]]


@dataclass(frozen=True)
class TwoRowsStep:
    target_row: int
    paths: dict[int, tuple[Cell, ...]]


@dataclass(frozen=True)
class LinePairStep:
    pair: int
    bridge: tuple[Cell, ...]
    staying: int  # terminals left outside the column
    moves: tuple  # (pair, side, path) in the order made; side 0 is s, 1 is t
    edges: tuple  # (pair, (s, t)) for each other pair inside the column, in index order


@dataclass(frozen=True)
class TwoColumnStep:
    pair: int
    slack: int
    bridge: tuple[Cell, ...]
    top_rows: tuple[int, ...]
    moves: tuple  # as LinePairStep.moves


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
            edges = ",".join(f"{i + 1}:{_fmt_path(edge)}" for i, edge in st.edges) or "-"
            lines.append(
                f"step {n}: pair-in-column pair={st.pair + 1} column={st.bridge[0][1]}"
                f" bridge={_fmt_path(st.bridge)} edges={edges} moved={len(st.moves)}"
                f" staying={st.staying}"
            )
        else:
            cols = (st.bridge[0][1], st.bridge[-1][1])
            pushes = [path for _, _, path in st.moves if path[-1][1] in cols]
            shown = ",".join(f"{tuple(path[0])}:{'down' if len(path) == 2 else 'across'}"
                             for path in pushes) or "-"
            detours = sorted((p[0][0], p[1][0]) for _, _, p in st.moves[len(pushes):] if len(p) == 3)
            matching = ",".join(f"{a}->{b}" for a, b in detours) or "-"
            lines.append(
                f"step {n}: two-columns pair={st.pair + 1} cols={cols} slack={st.slack}"
                f" bend-row={st.bridge[-2][0]} bridge={_fmt_path(st.bridge)} top-rows={st.top_rows}"
                f" into-block={len(pushes)} in-block={len(st.moves) - 2 * len(pushes)}"
                f" pushes={shown} matching={matching}"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# reusable routing pieces (each independently testable)


def bridge_path(rows, s: Cell, t: Cell, occupied) -> list[Cell]:
    """An s-t path inside the block columns, which are s's and t's, whose
    interior avoids every cell of occupied.  Every candidate's bend row is
    that of path[-2], and its two block cells are s, t or interior cells,
    so no other terminal stands on it.

    The len(rows)-many candidates are internally disjoint: two bends of
    length two (through s's row, then t's row) and one path of length
    three through every other row, tried in that order.  At most
    len(rows) - 1 terminals other than s, t can sit in the two columns,
    so one candidate is free.
    """
    c_s, c_t = s[1], t[1]
    if c_s == c_t or s[0] == t[0]:
        raise SolverInvariantError("bridge endpoints must lie in two columns on distinct rows")
    bends = ([s, (s[0], c_t), t], [s, (t[0], c_s), t])
    thirds = ([s, (r, c_s), (r, c_t), t] for r in rows if r != s[0] and r != t[0])
    for path in chain(bends, thirds):
        if occupied.isdisjoint(path[1:-1]):
            return path
    raise SolverInvariantError("every bridge candidate is blocked; occupancy cap violated")


def _free_dest(r: int, dest_cols, occupied) -> Cell | None:
    for c in dest_cols:
        if (r, c) not in occupied:
            return r, c
    return None


def _end(r: int, x: Cell, free: Cell | None, dest_cols, occupied) -> Cell:
    """x's end in row r: its partner's column's entry if free, else free."""
    c = occupied[x][1]
    if c in dest_cols and (r, c) not in occupied:
        return r, c
    if free is None:
        raise SolverInvariantError(f"no free destination entry in row {r}")
    return free


def drain_block(rows, block_cols, dest_cols, occupied: dict[Cell, Cell],
                plain) -> dict[Cell, list[Cell]]:
    """Walk the plain terminals out of the block into the destination
    columns; the block is one or two columns wide.  occupied maps each
    terminal's cell to its partner's cell (its keys are the occupied
    cells); the block terminals outside plain, its anchors, stay.

    Returns the paths, keyed by each plain terminal's cell.  The rows that
    need a detour, those with two plain terminals or one facing a full
    destination row, are matched injectively to spare rows, which hold no
    plain terminal and have a free destination entry; a detour is a 3-cell
    path from its row through its spare row.  The spare rows are one lazy
    pass over rows, in label order: each needy row, in label order, takes
    the next spare row whose block entry under one of its terminals, in
    block-column order, is free, so a spare row passed over is never
    offered again.  No step loses a detour by that.  In a one-column block
    (a line-pair step, the two-row base) a spare row fails only when its
    block cell is taken, and so fails every row.  In a two-column step
    every row full outside the block is a top row, so only a doubled row
    needs a detour, and a spare row holds at most one anchor (s1 and t1
    sit on distinct rows), so a doubled row takes the first spare row.  The
    solver's counting arguments guarantee enough spare rows.

    A plain terminal crosses straight into a free entry of its own
    destination row; a matched row's detour goes down its column into
    the spare row and across it.  Each path ends in its terminal's
    partner's column when that is a destination column whose entry in
    the row is free, leaving the pair sharing a column, and on the row's
    first free entry otherwise.  All paths are pairwise disjoint, never
    pass through a terminal, and no destination row receives more than
    one endpoint; a doubled row needs a free destination entry of its
    own for the terminal that stays.  Which free entry a path ends on
    does not matter to any counting argument: a path meets the
    destination columns only at its endpoint, and the solver's cases ask
    only for one free entry in each destination row.
    """
    if not plain:
        return {}
    plain_rows: dict[int, list[Cell]] = {}  # in label order
    for x in sorted(plain):
        plain_rows.setdefault(x[0], []).append(x)
    out, spares = {}, None
    for r, xs in plain_rows.items():
        free = _free_dest(r, dest_cols, occupied)
        if len(xs) > 1 or free is None:
            spares = spares or (s for s in rows
                                if s not in plain_rows and _free_dest(s, dest_cols, occupied))
            spare, x = next(((spare, x) for spare in spares for c in block_cols for x in xs
                             if x[1] == c and (spare, c) not in occupied), (None, None))
            if x is None:
                raise SolverInvariantError("rows needing a detour outnumber spare rows")
            spare_free = _free_dest(spare, dest_cols, occupied)
            out[x] = [x, (spare, x[1]), _end(spare, x, spare_free, dest_cols, occupied)]
            xs = [y for y in xs if y != x]
        for x in xs:
            out[x] = [x, _end(r, x, free, dest_cols, occupied)]
    return out


# ---------------------------------------------------------------------------
# solver internals


def _aligned(s: Cell, t: Cell) -> bool:
    return s[0] == t[0] or s[1] == t[1]


class _Board:
    """The active lines (ordered sets) and live pairs of a solve, and their
    indexes: occupied, idx_of, the line indexes by_row and by_col (by_row[r]
    holds c for each terminal (r, c), or is empty) and the heap aligned,
    whose stale indices first_aligned drops.  pairs stays in index order;
    moves logs this step's moves in the order made.
    """

    def __init__(self, rows, cols, pairs) -> None:
        self.rows, self.cols = dict.fromkeys(rows), dict.fromkeys(cols)
        self.by_row, self.by_col = by_row, by_col = defaultdict(set), defaultdict(set)
        self.pairs, self.occupied, self.idx_of = live, occupied, idx_of = {}, {}, {}
        self.aligned = aligned = []  # ascending: a heap
        self.moves: list[tuple] = []
        for idx, ((a, b), (c, d)) in enumerate(pairs):
            by_row[a].add(b)
            by_col[b].add(a)
            by_row[c].add(d)
            by_col[d].add(c)
            live[idx] = s, t = (a, b), (c, d)
            occupied[s], occupied[t] = t, s
            idx_of[s] = idx_of[t] = idx
            if a == c or b == d:
                aligned.append(idx)

    def first_aligned(self) -> int | None:
        """The lowest index of a live pair on one row or one column."""
        heap = self.aligned
        while heap:
            pair = self.pairs.get(heap[0])
            if pair is not None and _aligned(*pair):
                return heap[0]
            heappop(heap)
        return None

    def relocate(self, x: Cell, path: list[Cell]) -> None:
        """Move the terminal at x along path to its free last cell; log the move."""
        y = path[-1]
        partner = self.occupied[y] = self.occupied.pop(x)
        self.occupied[partner] = y
        self.by_row[x[0]].discard(x[1])
        self.by_col[x[1]].discard(x[0])
        self.by_row[y[0]].add(y[1])
        self.by_col[y[1]].add(y[0])
        self.idx_of[y] = idx = self.idx_of.pop(x)
        side = 0 if x == self.pairs[idx][0] else 1
        self.moves.append((idx, side, tuple(path)))
        self.pairs[idx] = (y, partner) if side == 0 else (partner, y)
        if _aligned(y, partner):
            heappush(self.aligned, idx)

    def route(self, idx: int) -> None:
        """Take the routed pair idx off the board."""
        for v in self.pairs.pop(idx):
            del self.occupied[v], self.idx_of[v]
            self.by_row[v[0]].discard(v[1])
            self.by_col[v[1]].discard(v[0])

    def transpose(self, reason: str) -> TransposeStep:
        self.rows, self.cols, self.by_row, self.by_col = self.cols, self.rows, self.by_col, self.by_row
        pairs = self.pairs
        self.pairs, self.occupied, self.idx_of = live, occupied, idx_of = {}, {}, {}
        for idx, ((b, a), (d, c)) in pairs.items():
            live[idx] = s, t = (a, b), (c, d)
            occupied[s], occupied[t] = t, s
            idx_of[s] = idx_of[t] = idx
        return TransposeStep(reason)


def _finish(step, acc: dict[int, list[Cell]], cells) -> None:
    """Undo one step's moves, read through cells, last first: an s move ends
    where its pair's later path starts, a t move where it ends."""
    for idx, side, move in reversed(step.moves):
        path = acc.get(idx)
        if path is None:
            raise SolverInvariantError(f"pair {idx} missing from the later steps")
        move = cells(move)
        if move[-1] != (path[-1] if side else path[0]):
            raise SolverInvariantError("a move does not meet its pair's later path")
        acc[idx] = [*path, *move[-2::-1]] if side else [*move[:-1], *path]
    acc[step.pair] = cells(step.bridge)
    if isinstance(step, LinePairStep):
        for idx, edge in step.edges:
            acc[idx] = cells(edge)


def _base_two_rows(board):
    # flipped, the top row is a one-column block drained into the target
    # row, less the pairs inside it, which stay as edges; 2k <= len(cols)
    # terminals leave at least as many columns with both cells free as
    # columns with both cells taken, so every top terminal facing a taken
    # cell finds a free column to detour through
    top, target = board.rows
    flipped = {flip(v): flip(w) for v, w in board.occupied.items()}
    drained = drain_block(board.cols, (top,), (target,), flipped,
                          [v for v, w in flipped.items() if v[1] == top != w[1]])
    stub = {flip(x): [flip(w) for w in path] for x, path in drained.items()}
    return TwoRowsStep(target, {idx: tuple(stub.get(s, [s]) + stub.get(t, [t])[::-1])
                                for idx, (s, t) in board.pairs.items()})


def _case_line_pair(board, i1):
    # every pair inside the column is an edge of its clique; each other
    # terminal of the column hops across its own row, and one whose row is
    # full detours through a spare row: counting terminals against
    # 2k <= d1' + d2' (with d2' >= 2) leaves enough spare rows, and a row
    # holding an edge was never spare.  The edges stay on the board while
    # the drain runs, so no detour passes through them
    s1, t1 = board.pairs[i1]
    col0 = s1[1]
    del board.cols[col0]
    inside, plain = [], []  # an inside pair is listed at its upper terminal
    for r in board.by_col[col0]:
        w = board.occupied[r, col0]
        if w[1] != col0:
            plain.append((r, col0))
        elif r < w[0]:
            inside.append(board.idx_of[w])
    edges = () if len(inside) == 1 else tuple([(i, board.pairs[i]) for i in sorted(inside) if i != i1])
    drained = drain_block(board.rows, (col0,), board.cols, board.occupied, plain)
    for x, path in drained.items():
        board.relocate(x, path)
    for i in inside:
        board.route(i)
    moves, board.moves = tuple(board.moves), []
    return LinePairStep(i1, (s1, t1), len(board.occupied) - len(drained), moves, edges)


def _case_two_columns(board, i1):
    rows, occupied, rest_cols = board.rows, board.occupied, board.cols
    s1, t1 = board.pairs[i1]
    block_cols = (s1[1], t1[1])
    del rest_cols[s1[1]], rest_cols[t1[1]]
    anchors = {s1, t1}
    others = sorted({(r, c) for c in block_cols for r in board.by_col[c]} - anchors)
    slack = len(rows) - 1 - len(others)  # >= 0, as _next_step transposes an overflow
    bridge = bridge_path(rows, s1, t1, occupied.keys())
    bend = bridge[-2][0]

    # The saturated rows never outnumber the slack: 2k <= d1' + d2' leaves
    # at most d2' - 2 + slack terminals outside the block, a full row takes
    # d2' - 1 of them, and slack + 1 full rows would need
    # slack * (d2' - 2) < 0 (this case runs on at least three columns).
    n = len(rest_cols)  # a full row meets every rest column; by_row counts block cells too
    full_rows = [r for r in board.by_col[next(iter(rest_cols))]
                 if len(cols := board.by_row[r]) >= n and len(cols.difference(block_cols)) == n]
    if len(full_rows) > slack:
        raise SolverInvariantError("more saturated rows than the occupancy slack allows")
    top_rows = tuple(sorted({bend, *full_rows}))
    # a mover, a plain block terminal on a saturated row, cannot leave
    # across its row, so it steps down its own block column to the lowest
    # free low cell, or, when that column is packed, across to its
    # row-mate cell and down the other column
    movers = [v for v in others if v[0] in top_rows]
    for x in movers:
        mate = (x[0], block_cols[1] if x[1] == block_cols[0] else block_cols[0])
        for path in ([x], [x, mate]):
            c = path[-1][1]
            down = next((r for r in rows if r not in top_rows and (r, c) not in occupied), None)
            if down is not None and occupied.keys().isdisjoint(path[1:]):
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
        path.append((down, c))
        board.relocate(x, path)
    # every plain block terminal now sits on a low row
    plain = {(r, c) for c in block_cols for r in board.by_col[c]} - anchors
    low_rows = (r for r in rows if r not in top_rows)
    drained = drain_block(low_rows, block_cols, rest_cols, occupied, plain)
    for cur in sorted(drained):
        board.relocate(cur, drained[cur])
    if board.by_col[s1[1]] != {s1[0]} or board.by_col[t1[1]] != {t1[0]}:
        raise SolverInvariantError("a terminal was left behind in the deleted columns")
    board.route(i1)
    moves, board.moves = tuple(board.moves), []
    return TwoColumnStep(i1, slack, tuple(bridge), top_rows, moves)


def _next_step(board, steps):
    """The case step for the board after steps; a step that is not a base
    case updates the board in place to the smaller problem it leaves."""
    rows, cols = board.rows, board.cols
    if len(rows) > 2 >= len(cols) or len(rows) > 1 == len(cols):
        # a lone column, even of two cells, is routed as a row clique
        return board.transpose("narrow-side-first")
    if len(rows) == 1:
        return SingleRowStep(next(iter(rows)), dict(board.pairs))
    if len(rows) == 2:
        return _base_two_rows(board)
    i1 = board.first_aligned()
    if i1 is not None:
        s, t = board.pairs[i1]
        if s[1] == t[1]:
            return _case_line_pair(board, i1)
        return board.transpose("pair-in-row")
    i1 = next(iter(board.pairs))  # the lowest live index: pairs stay in index order
    s1, t1 = board.pairs[i1]
    if len(board.by_col[s1[1]]) + len(board.by_col[t1[1]]) > len(rows) + 1:
        if steps[-1:] == [TransposeStep("two-column-overflow")]:
            raise SolverInvariantError("both the column and the row block overflow")
        return board.transpose("two-column-overflow")
    return _case_two_columns(board, i1)


def _solve(rows, cols, pairs, steps) -> None:
    """Append case steps to steps until a base case or no pair is left."""
    board = _Board(rows, cols, pairs)
    while board.pairs:
        steps.append(_next_step(board, steps))
        if isinstance(steps[-1], (SingleRowStep, TwoRowsStep)):
            return


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
    steps: list = []
    try:
        _solve(sub.rows, sub.cols, problem.pairs, steps)
        trace = SolverTrace(tuple(steps))
        return replay(problem, trace), trace
    except SolverInvariantError as err:
        err.trace = SolverTrace(tuple(steps))
        raise


def replay(problem: LinkageProblem, trace: SolverTrace) -> Linkage:
    """Rebuild the linkage from the recorded case decisions alone.

    solve() builds its own linkage this way too: the last step's paths
    come first, and each earlier step undoes its moves onto them.  The
    paths keep the problem's orientation; a step after an odd number of
    transposes has its cells mirrored once, as they are read.
    """
    acc: dict[int, list[Cell]] = {}
    mirrored = sum(isinstance(step, TransposeStep) for step in trace.steps) % 2 == 1
    for step in reversed(trace.steps):
        cells = (lambda path: [flip(v) for v in path]) if mirrored else tuple
        if isinstance(step, TransposeStep):
            mirrored = not mirrored
        elif isinstance(step, (SingleRowStep, TwoRowsStep)):
            for i, p in step.paths.items():
                acc[i] = cells(p)
        else:
            _finish(step, acc, cells)
    return Linkage(tuple(tuple(map(_vertex, acc[i])) for i in range(len(problem.pairs))))
