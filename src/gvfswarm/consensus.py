"""Saturated consensus on windowed path parameters.

Each drone publishes a sliding-window average of its path parameter
and applies a non-negative, bounded correction computed from neighbor
disagreement through the saturation

    sat(s) = tau_l + (tau_h - tau_l)/r * clip(s, 0, r).

The reference protocol xdot_i = sat(sum_j (x_j - x_i)) drives every
state to max(x(0)) on a spanning tree: laggards get a positive push,
the front runner holds sat(negative) = tau_l. integrate_consensus
implements that protocol exactly for analysis and demos; the flight
loop converts the same correction into a speed budget (see sim).

Neighbor sums are node-first: values are (N, ...), any batch axes
after the node axis. They run over the 2M (owner, neighbor) entries of
one slot-major table, so they cost O(N + M) whatever the degrees, and
every node adds its terms in one order, from +0.0, for a row and for a
batch alike (see neighbor_disagreement). integrate_consensus names
each node by its place in that table's order, so its batched sums
need no gather back to node order.

The Lyapunov function is V = sum_i int_0^{etabar_i} satbar(s) ds with
etabar = eta - r/2 and satbar the odd-symmetrized saturation; V >= 0,
V = 0 exactly at eta = (r/2) 1, and V is non-increasing along the
protocol on any connected graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._box import TWO, ZERO, box
from .graph import Graph, NeighborTable

__all__ = [
    "SaturationParams",
    "sat",
    "lyapunov_value",
    "WindowAverager",
    "neighbor_disagreement",
    "ConsensusRun",
    "integrate_consensus",
]

# cells per block of an observer pass: a block holds this many telemetry
# cells, or eta values (the simulator without telemetry, and
# integrate_consensus), so its 32-64 KiB temporaries come from malloc's
# heap, not from fresh pages. WindowAverager's block of window folds
# and the store slab it adds hold this many cells together
_SUMMARY_BLOCK = 1 << 12

# integrate_consensus looks for runs at their fixed point at the first V
# block boundary at least this many steps after its last look
_SETTLE_CHECK = 64


def _addressable(shape: tuple) -> tuple:
    """``shape``, or MemoryError if no float64 array of it fits the address space.

    numpy reports such a shape as a ValueError ("array is too big",
    "Maximum allowed dimension exceeded"); one it can address but not
    allocate is its own MemoryError.
    """
    size = math.prod(max(d, 1) for d in shape)
    if size * 8 > np.iinfo(np.intp).max:
        raise MemoryError(
            f"a float64 array of at least 1e{len(str(size)) - 1} values exceeds the address space")
    return shape


@dataclass(frozen=True)
class SaturationParams:
    """Bounds and linear zone of the consensus saturation.

    tau_l is the output on non-positive disagreement (0 disables any
    push on the front runner), tau_h the ceiling, r the width of the
    linear zone.
    """

    tau_l: float = 0.0
    tau_h: float = 1.0
    r: float = 1.0

    def __post_init__(self) -> None:
        for name, value in (("tau_l", self.tau_l), ("tau_h", self.tau_h), ("r", self.r)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.tau_l < 0:
            raise ValueError(f"tau_l must be non-negative, got {self.tau_l}")
        if not self.tau_h > self.tau_l:
            raise ValueError(f"tau_h must exceed tau_l, got {self.tau_h} <= {self.tau_l}")
        if not self.r > 0:
            raise ValueError(f"r must be positive, got {self.r}")
        # sat's operands, boxed once: the zone width, the slope and the floor
        k = (self.tau_h - self.tau_l) / self.r
        object.__setattr__(self, "_r", box(self.r))
        object.__setattr__(self, "_slope", box(k))
        object.__setattr__(self, "_tau_l", box(self.tau_l))
        # and V's: r/2, k/2, the corner value k r^2 / 8 and the amplitude a
        object.__setattr__(self, "_half_r", box(self.r / 2.0))
        object.__setattr__(self, "_half_k", box(0.5 * k))
        object.__setattr__(self, "_corner", box(k * self.r * self.r / 8.0))
        object.__setattr__(self, "_a", box((self.tau_h - self.tau_l) / 2.0))


def sat(s, params: SaturationParams):
    """Saturation tau_l + (tau_h - tau_l)/r * clip(s, 0, r). Array-capable."""
    # in place on the clipped copy: * and + commute bitwise, so the bits
    # are those of tau_l + slope * clip(s, 0, r)
    out = np.asarray(s, dtype=float).clip(ZERO, params._r)
    out *= params._slope
    out += params._tau_l
    return float(out) if out.ndim == 0 else out


def lyapunov_value(eta, params: SaturationParams):
    """Closed-form V(eta), summed over the last axis.

    Per component, with etabar = eta - r/2, slope k = (tau_h - tau_l)/r
    and amplitude a = (tau_h - tau_l)/2:

        |etabar| <= r/2:  k etabar^2 / 2
        otherwise:        k r^2 / 8 + a (|etabar| - r/2)

    np.where evaluates both pieces everywhere, and the quadratic one
    overflows for |etabar| above about 1e154, where it is not taken;
    that overflow is ignored, so a finite V raises no warning.
    """
    out = np.sum(_lyapunov_terms(eta, params), axis=-1)
    return float(out) if out.ndim == 0 else out


def _lyapunov_terms(eta, params: SaturationParams) -> np.ndarray:
    """The per-component terms of V(eta), in the layout of eta."""
    eta = np.asarray(eta, dtype=float)
    etabar = eta - params._half_r
    abse = np.abs(etabar)
    with np.errstate(over="ignore"):
        quad = params._half_k * etabar * etabar
    return np.where(
        abse <= params._half_r,
        quad,
        params._corner + params._a * (abse - params._half_r),
    )


class WindowAverager:
    """Sliding trapezoidal average over a fixed time window.

    Samples arrive at a fixed cadence dt; sample k is taken at t = k dt.
    Once the elapsed time covers the window the average integrates the
    newest full sample intervals plus a linearly interpolated partial
    interval so the support is exactly ``window`` long. Before that it
    averages over everything seen so far ([0, t]); the first sample is
    returned as is.

    The output is bitwise equal to ``np.trapezoid`` over the retained
    samples, plus the lerped sliver. ``push`` writes the term of the
    interval it closes, dt * (x_k + x_{k-1}) / 2 as np.trapezoid
    evaluates it, to the next row of a linear term store of 2(k + 3)
    rows, and each window adds its terms in the order numpy's
    reduction over time does, since the order fixes the bits:

    - Two or more values: numpy folds whole rows, ((+0.0 + t_0) + t_1)
      + ..., so warm-up is a running sum, and over the full window one
      np.add.reduce over a strided (k, m, ...) view of the store folds
      the next m windows over the terms already pushed, once per m
      ticks. The rows not pushed yet are -0.0, the exact additive
      identity; each ``push`` adds its term to the folds still pending.
    - A lone column (a scalar or one drone): numpy sums it pairwise,
      which no fold extends, so each tick reduces its window afresh.

    m = min(k, _SUMMARY_BLOCK // (2 size)), at least 2, so the block of
    folds and the store slab added to it fit a core's L1 cache together
    (README has the per-add costs). The block pass also writes the m slivers,
    from samples already pushed, over the block's oldest m terms, which
    no later window reads. When a block would overrun the store, the
    k - 1 terms the newest window shares move to the front. Sample s
    sits in slot s mod (k + 3) of a ring, so the sample count names
    every slot; the block's slivers read their m + 1 ends in one
    wrapped gather, an (m + 1, ...) temporary.

    Values may be any fixed trailing shape (one slot per drone); the
    average is taken elementwise over time.
    """

    def __init__(self, window: float, dt: float, shape: tuple[int, ...] = ()):
        if not window > 0:
            raise ValueError(f"window must be positive, got {window}")
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if dt > window:
            raise ValueError(f"dt {dt} exceeds the window {window}")
        self.window = float(window)
        self.dt = float(dt)
        self.shape = tuple(shape)
        w = self.window / self.dt
        if not math.isfinite(w):
            raise ValueError(f"window {window} / dt {dt} is not a finite count of steps")
        self._k = int(math.floor(w + 1e-9))  # full intervals in the window
        fr = w - self._k  # the partial interval, as a fraction of dt
        self._fr = fr if fr >= 1e-9 else 0.0
        # the array operands, boxed once: dt, the window, the lerp weight
        # 1 - fr of the sliver's left end and the sliver's weight fr dt / 2
        self._dt, self._window = box(self.dt), box(self.window)
        self._lerp, self._sliver = box(1.0 - self._fr), box(self._fr * self.dt * 0.5)
        # k full intervals, one partial, one spare slot
        self._capacity = self._k + 3
        # the term of the interval ending at sample k sits at row k - 1
        # until the store's first compaction
        self._terms = np.zeros(_addressable((2 * self._capacity,) + self.shape))
        self._end = 0  # one past the newest term's row
        # sample s sits in slot s mod capacity
        self._buffer = np.zeros((self._capacity,) + self.shape)
        self._count = 0  # total samples pushed
        size = math.prod(self.shape)
        m = min(self._k, max(2, _SUMMARY_BLOCK // (2 * size))) if size > 1 else 1
        self._size = size
        # the block's m folds (in warm-up, row 0 is the running sum) and the
        # newest window's row j in it; over the full window, that window's
        # sliver sits in store row end - k, over its oldest term, which the
        # block pass has already folded
        self._prefix = np.zeros((m,) + self.shape)
        self._j = m - 1

    @property
    def count(self) -> int:
        return self._count

    def push(self, value) -> None:
        value = np.asarray(value, dtype=float)
        if value.shape != self.shape:
            raise ValueError(f"expected shape {self.shape}, got {value.shape}")
        if self._count:
            warm = self._count * self.dt < self.window
            m = len(self._prefix)
            opens = not warm and self._j == m - 1  # the newest window starts a block
            if opens and self._end + m > len(self._terms):
                # the k - 1 terms the newest window shares move to the front,
                # as one flat copy: numpy moves overlapping 1-d data in place
                flat, row, keep = self._terms.reshape(-1), self._size, self._k - 1
                flat[:keep * row] = flat[(self._end - keep) * row:self._end * row]
                self._end = keep
            # the interval's term, dt * (x_k + x_{k-1}) / 2, in its store row
            previous = self._buffer[(self._count - 1) % self._capacity]
            term = np.add(value, previous, out=self._terms[self._end, ...])
            term *= self._dt
            term /= TWO
            self._end += 1
            if warm and self._size > 1:
                np.add(self._prefix[0], term, out=self._prefix[0])
            elif warm:
                np.add.reduce(self._terms[:self._end], axis=0, keepdims=True, out=self._prefix)
            elif opens:
                self._open_block()
            else:
                self._j += 1
                pending = self._prefix[self._j:]
                np.add(pending, term, out=pending)
        self._buffer[self._count % self._capacity] = value
        self._count += 1

    def _open_block(self) -> None:
        """Fold the newest window and the m - 1 after it over the terms so far."""
        m = len(self._prefix)
        self._terms[self._end:self._end + m - 1] = -0.0
        base = self._end - self._k  # window j's terms start at row base + j
        row = self._terms.strides[0]
        windows = np.ndarray((self._k, m) + self.shape, buffer=self._terms, offset=base * row,
                             strides=(row,) + self._terms.strides)
        np.add.reduce(windows, axis=0, out=self._prefix)
        if self._fr > 0.0:
            # window j's sliver lies between samples count - k - 1 + j and the next
            self._slivers(self._terms[base:base + m], self._count - self._k - 1)
        self._j = 0

    def _slivers(self, out, first: int) -> None:
        """Row j of out: the sliver whose ends are samples first + j and first + j + 1.

        The m + 1 ends come out of the sample ring in one wrapped gather.
        """
        ends = self._buffer.take(np.arange(first, first + len(out) + 1), axis=0, mode="wrap")
        left, right = ends[:-1], ends[1:]
        # fr dt / 2 * ((left + (1 - fr) (right - left)) + right), in place
        np.subtract(right, left, out=out)
        out *= self._lerp
        out += left
        out += right
        out *= self._sliver

    def average(self):
        """Current windowed (or warm-up) average."""
        if self._count == 0:
            raise ValueError("no samples pushed yet")
        if self._count == 1:
            out = self._buffer[0]
            return float(out) if out.ndim == 0 else out.copy()
        elapsed = (self._count - 1) * self.dt
        if elapsed < self.window:
            # warm-up: plain trapezoid over [0, elapsed]
            out = self._prefix[0] / elapsed
        elif self._fr > 0.0:
            out = self._prefix[self._j] + self._terms[self._end - self._k]
            out /= self._window
        else:
            out = self._prefix[self._j] / self._window
        return float(out) if out.ndim == 0 else out


def neighbor_disagreement(x, table: NeighborTable, own=None):
    """sum_j (x_j - own_i) for every node i; x is node-first, (N, ...).

    ``own`` defaults to x itself; the simulator passes each drone's
    current average as ``own`` and the neighbors' delayed history row as x.

    The terms t = x_j - own_i are formed once, one per table entry, and
    every node sums its own as ((+0.0 + t_0) + t_1) + ... in slot
    order, which is its neighbors' id order in the graph's table (a
    relabelled table keeps that order), whatever its degree and
    whatever the batch shape, so a row equals its batch bitwise. A node
    without neighbors gets +0.0.

    How the sum runs depends on x.ndim alone, and each way was the
    faster where it runs (README has the costs):

    - a 1-D row (one call per tick at delay 0, where eta is the lead;
      two with a delay) is one np.bincount over the owners, in table
      order, where slot blocks make O(D_max) calls on a hub;
    - a batch adds each slot's block of whole rows onto the prefix of
      places that have that slot. When every node has a neighbor, slot
      0's block, plus +0.0 in place, starts the sums; otherwise they
      start from zeros. The sums, in place order, go back to node order
      with one row gather, which a table in its own order
      (``table.ordered``, see ``NeighborTable.relabelled``) skips, so
      it gets the leading rows of the term array.

    An infinite ``own`` reaches only its own node's sum, and a zero sum
    is always +0.0, even when every term is -0.0.
    """
    x = np.asarray(x, dtype=float)
    own = x if own is None else np.asarray(own, dtype=float)
    # fresh gathers, so the in-place ops touch no caller's array; take
    # copies the rows of a batch several times faster than indexing
    if x.ndim == 1:
        terms = x[table.neighbors]
        terms -= own[table.owners]
        return np.bincount(table.owners, weights=terms, minlength=len(table.inverse))
    terms = x.take(table.neighbors, axis=0)
    terms -= own.take(table.owners, axis=0)
    n = len(table.inverse)
    slots = table.slots
    if slots and slots[0][1].stop == n:
        # every node has slot 0: its rows, + +0.0, are the sums so far
        acc = terms[slots[0][0]]
        acc += ZERO
        slots = slots[1:]
    else:
        acc = np.zeros((n,) + x.shape[1:])
    for rows, places in slots:
        acc[places] += terms[rows]
    return acc if table.ordered else acc.take(table.inverse, axis=0)


@dataclass
class ConsensusRun:
    """Trajectory record of the reference consensus integrator."""

    times: np.ndarray
    lyapunov: np.ndarray
    final_state: np.ndarray
    final_input: np.ndarray
    states: np.ndarray | None = None


def integrate_consensus(
    graph: Graph,
    x0,
    params: SaturationParams,
    dt: float,
    t_end: float,
    record_states: bool = False,
) -> ConsensusRun:
    """Integrate xdot = sat(sum_j (x_j - x_i)) with RK4.

    ``x0`` may be (n_nodes,) or batched (..., n_nodes); every initial
    condition (a run) integrates in lock step. Requires a spanning tree
    (the protocol's agreement guarantee needs one). Returns per-step
    Lyapunov values and the final state and input; full states only
    when ``record_states``, all in the (..., n_nodes) layout of x0.

    The state integrates node-first, (n_nodes, runs), in the neighbor
    table's order: the nodes are relabelled once by their place
    (``NeighborTable.relabelled``), so no neighbor sum gathers back to
    node order, and each sum keeps the bits of its node-order twin.
    x0 goes in with one transpose and one row gather; a row stays 1-D.
    Only the records go back to node order, each with one row take
    into its output: every step's eta for V, the states, the final
    state and input; the finiteness check on V(x0) takes eta back as
    well.

    A step allocates little beyond what sat and neighbor_disagreement
    return: the stage inputs x + (dt/2) k and the combination
    k1 + 2 k2 + 2 k3 + k4 go into two preallocated node-first buffers
    through ``out=`` and in-place ufuncs, in the operation order of the
    plain expressions, and x advances in place, so every bit is that of
    the textbook loop.

    Each step evaluates the disagreement four times: the RK4 stages 2-4
    and eta(x_{k+1}) for the Lyapunov record. That eta is reused as the
    next step's k1 input and, after the last step, for ``final_input``.
    sat and neighbor_disagreement stay calls through this module's
    globals, sat once per stage, so a wrapper installed on the module
    sees every step.

    V is computed once per block of about _SUMMARY_BLOCK cells: each
    step's eta is copied into a C-ordered (rows, runs, n_nodes) block,
    and lyapunov_value sums each row's nodes as one contiguous pairwise
    run, as it would for that step alone, so V keeps its bits. An x0
    whose V is not a finite number, such as states 1e308 apart, raises
    ValueError before the first step.

    Runs retire at their fixed point. A step reads only its own run's
    state: the protocol is autonomous, and every operation is
    elementwise or a sum over that run's nodes, whose bits depend on
    neither the batch width nor the SIMD loop numpy picks. So a run
    that a step leaves bit for bit unchanged (compared as int64, so
    -0.0 against +0.0 and two NaN payloads differ) keeps every later
    state, eta, V and input. The check runs at the first V block
    boundary at least _SETTLE_CHECK steps after the last one, on the
    step from x_k to x_{k+1}, just after V_k is written. A run that
    step left unchanged gets V_k in every later row, x_k as every later
    state and the final state, and the step's k1 = sat(eta_k) as the
    final input, and leaves the batch. The live runs are gathered with
    take into fresh C-ordered buffers and the V block is resized to
    them: a boolean mask returns F-ordered columns, which put every
    later op off numpy's contiguous loops. The loop ends once no run is
    left.
    """
    check = graph.check_spanning_tree()
    if not check.is_tree:
        raise ValueError(f"consensus integration needs a spanning tree: {check.message}")
    x = np.asarray(x0, dtype=float)
    if x.ndim == 0 or x.shape[-1] != graph.n_nodes:
        raise ValueError(f"x0 shape {x.shape} does not end in n_nodes {graph.n_nodes}")
    bad = np.count_nonzero(~np.isfinite(x))
    if bad:
        raise ValueError(f"x0 must be finite; {bad} of its values are NaN or inf")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be a positive finite number, got {t_end}")
    if not math.isfinite(t_end / dt):
        raise ValueError(f"t_end {t_end} / dt {dt} is not a finite count of steps")
    n_steps = int(round(t_end / dt))
    if n_steps < 1:
        raise ValueError(f"t_end {t_end} shorter than one step dt {dt}")
    # the sums run in the table's order, where place p holds node
    # order[p]; records go back to node order through inverse
    inverse = graph.neighbor_table.inverse
    table = graph.neighbor_table.relabelled()
    # a scatter: the first quicksort argsort of a run maps some 0.3 MiB
    # more numpy code into the resident set
    order = np.empty_like(inverse)
    order[inverse] = np.arange(len(inverse))
    # the stage scalars, boxed: each is the operand of an (n_nodes, ...) op
    half_dt, sixth_dt, dt_box = box(0.5 * dt), box(dt / 6.0), box(dt)
    n, runs = graph.n_nodes, math.prod(x.shape[:-1])
    lyap = np.empty(_addressable((n_steps + 1,) + x.shape[:-1]))
    states = np.empty(_addressable((n_steps + 1,) + x.shape)) if record_states else None
    final_state, final_input = np.empty(x.shape), np.empty(x.shape)
    # the records by run: V (steps, runs), states (steps, runs, n), the
    # finals (runs, n); a run's column is its flat batch index
    lyap_runs = lyap.reshape(n_steps + 1, runs)
    states_runs = None if states is None else states.reshape(n_steps + 1, runs, n)
    final_state_runs, final_input_runs = final_state.reshape(runs, n), final_input.reshape(runs, n)
    x = x.take(order) if x.ndim == 1 else x.reshape(runs, n).T.take(order, axis=0)
    ids = np.arange(runs)  # the live runs' columns
    live = slice(None)  # ids as an index, a slice while every run lives
    start, checked = 0, -_SETTLE_CHECK  # the V block's first step, the last check's

    def rate(state: np.ndarray) -> np.ndarray:
        return sat(neighbor_disagreement(state, table), params)

    def by_run(a: np.ndarray) -> np.ndarray:
        """a (n, ...) in place order, as (live runs, n) in node order."""
        return a.take(inverse, axis=0).T.reshape(-1, n)

    def resize() -> tuple:
        rows = max(1, _SUMMARY_BLOCK // max(x.size, 1))
        return rows, np.empty((rows, len(ids), n)), np.empty_like(x), np.empty_like(x)

    rows, etas, stage, acc = resize()
    with np.errstate(over="ignore"):
        eta = neighbor_disagreement(x, table)
        v0 = _lyapunov_terms(eta.take(inverse, axis=0), params).sum(axis=0)
    if not np.isfinite(v0).all():
        raise ValueError("x0 is too far from agreement: V(x0) is not a finite number")
    for k in range(n_steps + 1 if runs else 0):
        # record x_k and eta_k; V for the block once its last row is in
        j = k - start
        etas[j] = by_run(eta)
        boundary = j == rows - 1 or k == n_steps
        if boundary:
            lyap_runs[start:k + 1, live] = lyapunov_value(etas[:j + 1], params)
            start = k + 1
        if states is not None:
            states_runs[k, live] = by_run(x)
        if k == n_steps:
            break
        settling = boundary and k - checked >= _SETTLE_CHECK
        if settling:
            before, checked = x.view(np.int64).copy(), k
        k1 = sat(eta, params)
        k2 = rate(np.add(x, np.multiply(half_dt, k1, out=stage), out=stage))
        k3 = rate(np.add(x, np.multiply(half_dt, k2, out=stage), out=stage))
        k4 = rate(np.add(x, np.multiply(dt_box, k3, out=stage), out=stage))
        # x += sixth_dt * (((k1 + 2 k2) + 2 k3) + k4)
        np.add(k1, np.multiply(TWO, k2, out=acc), out=acc)
        acc += np.multiply(TWO, k3, out=stage)
        acc += k4
        acc *= sixth_dt
        x += acc
        eta = neighbor_disagreement(x, table)
        if not settling:
            continue
        settled = (x.view(np.int64) == before).reshape(n, -1).all(axis=0)
        if not settled.any():
            continue
        # x_{k+1} = x_k bitwise, so eta_{k+1} = eta_k and sat(eta_k) = k1
        done, keep = np.flatnonzero(settled), np.flatnonzero(~settled)
        gone = ids[done]
        lyap_runs[k + 1:, gone] = lyap_runs[k, gone]
        final_state_runs[gone] = by_run(x)[done]
        final_input_runs[gone] = by_run(k1)[done]
        if states is not None:
            states_runs[k + 1:, gone] = final_state_runs[gone]
        ids = ids[keep]
        if not ids.size:
            break
        live = ids
        x, eta = x.take(keep, axis=1), eta.take(keep, axis=1)
        rows, etas, stage, acc = resize()
    if ids.size:
        final_state_runs[live] = by_run(x)
        final_input_runs[live] = by_run(sat(eta, params))
    return ConsensusRun(
        times=np.arange(n_steps + 1) * dt,
        lyapunov=lyap,
        final_state=final_state,
        final_input=final_input,
        states=states,
    )
