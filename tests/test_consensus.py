import math
import os
import signal
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from test_acceptance import SWARM_128_DIGEST

from gvfswarm import consensus, sim
from gvfswarm.consensus import (
    _SUMMARY_BLOCK,
    ConsensusRun,
    SaturationParams,
    WindowAverager,
    integrate_consensus,
    lyapunov_value,
    neighbor_disagreement,
    sat,
)
from gvfswarm.graph import DEMO_TREE_EDGES, Graph
from gvfswarm.gvf import field_core
from gvfswarm.sim import run

TREE8 = Graph.from_one_based(8, DEMO_TREE_EDGES)
CHAIN5 = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
TRIANGLE = Graph(3, ((0, 1), (1, 2), (2, 0)))
STAR8 = Graph(8, tuple((0, i) for i in range(1, 8)))  # hub of degree 7


STAR40 = Graph(40, tuple((0, i) for i in range(1, 40)))  # hub of degree 39
# the same star with its hub at the last id: the hub's place in the
# table, 0, is no longer its id, so the table's order is not node order
STAR40_HUB_LAST = Graph(40, tuple((39, i) for i in range(39)))


def disagreement_last_axis(x, table):
    """The node-first kernel on (..., N) arrays: node axis in, result back."""
    x = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
    return np.moveaxis(neighbor_disagreement(x, table), 0, -1)


def sorted_neighbors(graph):
    """Each node's sorted neighbours, from one scan of the edge list."""
    nbrs = [set() for _ in range(graph.n_nodes)]
    for tail, head in graph.edges:
        nbrs[tail].add(head)
        nbrs[head].add(tail)
    return [sorted(row) for row in nbrs]


def disagreement_loop(graph, x):
    """Reference sums on (..., N) arrays, batches on the leading axes: a
    Python loop over each node's sorted neighbors j that computes
    0.0 + t_0 + t_1 + ..., t = x_j - x_i, elementwise over the batch.

    A row runs as a batch of one, so every add is an array add with the
    running total first, as in the kernel: which NaN an add of two NaNs
    returns depends on the operand order, and numpy's scalar adds may
    take the other one."""
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = x.reshape(-1, shape[-1])
    out = np.empty(x.shape)
    for i, row in enumerate(sorted_neighbors(graph)):
        total = np.zeros(len(x))
        for j in row:
            total = total + (x[:, j] - x[:, i])
        out[:, i] = total
    return out.reshape(shape)


def neighbor_table_edge_scan(graph):
    """Reference table from one scan of the edge list: (owners, neighbors,
    bounds, inverse), slot by slot, nodes by descending degree then id."""
    n = graph.n_nodes
    nbrs = sorted_neighbors(graph)
    order = sorted(range(n), key=lambda i: (-len(nbrs[i]), i))
    owners, neighbors, bounds = [], [], [0]
    for s in range(max(len(row) for row in nbrs)):
        for i in order:
            if len(nbrs[i]) > s:
                owners.append(i)
                neighbors.append(nbrs[i][s])
        bounds.append(len(owners))
    rank = {node: r for r, node in enumerate(order)}
    return owners, neighbors, bounds, [rank[i] for i in range(n)]


def random_recursive_tree(n, seed):
    """Node i attaches to a uniformly drawn earlier node; the edges are
    listed in shuffled order with random orientation."""
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    flip = rng.random(n - 1) < 0.5
    return Graph(n, tuple(edges[k][::-1] if flip[k] else edges[k] for k in rng.permutation(n - 1)))


def shuffled_ids(graph, seed):
    """The graph with its node ids permuted at random."""
    perm = np.random.default_rng(seed).permutation(graph.n_nodes)
    return Graph(graph.n_nodes, perm[graph.edge_array])


def laplacian(graph):
    """Dense graph Laplacian D - A, int64, from the edge list."""
    lap = np.zeros((graph.n_nodes, graph.n_nodes), dtype=np.int64)
    for tail, head in graph.edges:
        lap[[tail, head], [tail, head]] += 1
        lap[[tail, head], [head, tail]] -= 1
    return lap


def trapezoid_window_average(samples, window, dt):
    """Reference average of every sample pushed so far, (count, ...):
    np.trapezoid over the samples in the window plus the lerped sliver
    of the partial interval."""
    if len(samples) == 1:
        out = samples[-1]
        return float(out) if out.ndim == 0 else out.copy()
    elapsed = (len(samples) - 1) * dt
    if elapsed < window:
        out = np.trapezoid(samples, dx=dt, axis=0) / elapsed
        return float(out) if out.ndim == 0 else out
    w = window / dt
    k = int(math.floor(w + 1e-9))
    fr = w - k
    if fr < 1e-9:
        fr = 0.0
    integral = np.trapezoid(samples[-(k + 1):], dx=dt, axis=0)
    if fr > 0.0:
        left = samples[-(k + 2)]
        right = samples[-(k + 1)]
        x_start = left + (1.0 - fr) * (right - left)
        integral = integral + fr * dt * 0.5 * (x_start + right)
    out = integral / window
    return float(out) if out.ndim == 0 else out


@pytest.fixture
def fold_helpers(monkeypatch):
    """The pid of every fold helper an averager starts, in order."""
    pids = []
    start = consensus.Child

    def recording_start(*args, **kwargs):
        helper = start(*args, **kwargs)
        pids.append(helper.pid)
        return helper

    monkeypatch.setattr(consensus, "Child", recording_start)
    return pids


def assert_reaped(pid: int) -> None:
    # ChildProcessError: no such child, neither running nor a zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


class TestSaturation:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            SaturationParams(tau_l=-0.1)
        with pytest.raises(ValueError):
            SaturationParams(tau_l=1.0, tau_h=1.0)
        with pytest.raises(ValueError):
            SaturationParams(r=0.0)

    @pytest.mark.parametrize("field", ["tau_l", "tau_h", "r"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_params(self, field, value):
        kwargs = {"tau_l": 0.0, "tau_h": 1.0, "r": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SaturationParams(**kwargs)

    def test_unit_params(self):
        p = SaturationParams(0.0, 1.0, 1.0)
        assert sat(-5.0, p) == 0.0
        assert sat(0.0, p) == 0.0
        assert sat(0.5, p) == 0.5
        assert sat(1.0, p) == 1.0
        assert sat(7.0, p) == 1.0

    def test_nonzero_floor(self):
        p = SaturationParams(0.2, 2.2, 4.0)
        assert sat(2.0, p) == pytest.approx(1.2, abs=1e-15)
        assert sat(-3.0, p) == 0.2
        assert sat(100.0, p) == pytest.approx(2.2, abs=1e-15)

    def test_array(self):
        p = SaturationParams(0.0, 2.0, 4.0)
        out = sat(np.array([-1.0, 2.0, 9.0]), p)
        assert np.allclose(out, [0.0, 1.0, 2.0], atol=1e-15)

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    @settings(max_examples=60, deadline=None)
    def test_bounded_and_monotone(self, s1, s2):
        p = SaturationParams(0.3, 5.0, 2.0)
        y1, y2 = sat(s1, p), sat(s2, p)
        assert p.tau_l <= y1 <= p.tau_h
        if s1 <= s2:
            assert y1 <= y2


class TestConsensusInput:
    """The saturated disagreement sat(sum_j (x_j - x_i)) of node 0."""

    FORK = Graph(3, ((0, 1), (0, 2)))  # node 0 and two neighbours

    @staticmethod
    def _input(graph, x, params):
        return sat(neighbor_disagreement(np.array(x), graph.neighbor_table), params)[0]

    def test_hand_example(self):
        p = SaturationParams(0.0, 1.0, 2.0)
        # (7-5) + (4-5) = 1, half the linear zone
        assert self._input(self.FORK, [5.0, 7.0, 4.0], p) == 0.5

    def test_empty_neighborhood(self):
        p = SaturationParams(0.4, 1.0, 2.0)
        assert self._input(Graph(1), [5.0], p) == 0.4

    def test_front_runner_gets_floor(self):
        p = SaturationParams(0.0, 1.0, 2.0)
        assert self._input(self.FORK, [10.0, 3.0, 4.0], p) == 0.0


def test_desired_avg_velocity(windy_eight):
    # the speed budget v - k_u * u left after the consensus correction
    sc, res = windy_eight
    assert np.any(res.inputs > 0.0)
    assert np.array_equal(res.desired_velocities, sc.speed - sc.k_u * res.inputs)


class TestLyapunov:
    PARAMS = SaturationParams(0.5, 2.5, 4.0)

    @staticmethod
    def _integral_oracle(eta: float, params: SaturationParams) -> float:
        # V per node is the integral of the odd-symmetrized saturation
        # satbar(s) = sat(s + r/2) - (tau_l + tau_h)/2 from 0 to etabar
        mid = 0.5 * (params.tau_l + params.tau_h)

        def satbar(s):
            return sat(s + params.r / 2.0, params) - mid

        etabar = eta - params.r / 2.0
        hi = abs(etabar)  # satbar is odd so the integral is even
        total = 0.0
        for a, b in zip([0.0, params.r / 2.0], [min(hi, params.r / 2.0), hi]):
            if b > a:
                total += quad(satbar, a, b, epsabs=1e-13, epsrel=1e-13)[0]
        return total

    def test_zero_exactly_at_half_r(self):
        eta = np.full(5, self.PARAMS.r / 2.0)
        assert lyapunov_value(eta, self.PARAMS) == 0.0

    def test_value_at_origin(self):
        # eta = 0 puts every etabar at -r/2, the edge of the quadratic
        # bowl: N * (tau_h - tau_l) * r / 8
        p = SaturationParams(0.0, 2.0, 4.0)
        assert lyapunov_value(np.zeros(8), p) == pytest.approx(8.0, abs=1e-12)

    @pytest.mark.parametrize("eta", [-12.0, -3.0, -0.2, 0.0, 1.0, 2.0, 3.6, 4.0, 8.0, 40.0])
    def test_matches_quadrature(self, eta):
        closed = lyapunov_value(np.array([eta]), self.PARAMS)
        assert closed == pytest.approx(self._integral_oracle(eta, self.PARAMS), abs=1e-11)

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        eta = rng.uniform(-50, 50, (100, 8))
        vals = lyapunov_value(eta, self.PARAMS)
        assert np.all(vals >= 0.0)

    def test_finite_value_far_outside_the_linear_zone_raises_no_warning(self):
        # the quadratic piece of 1e160 would overflow if it were evaluated
        # where the linear piece is taken
        p = SaturationParams(0.0, 20.0, 5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = lyapunov_value([1e160, 0.0], p)
        assert value == 20.0 * 5.0 / 8.0 + 10.0 * (1e160 - 5.0) + 20.0 * 5.0 / 8.0
        assert value == pytest.approx(1e161, rel=1e-15)

    def test_bitwise_equal_to_the_plain_formula(self):
        def plain_formula(eta, params):
            # the two-piece formula as written in the docstring
            etabar = eta - params.r / 2.0
            k = (params.tau_h - params.tau_l) / params.r
            a = (params.tau_h - params.tau_l) / 2.0
            abse = np.abs(etabar)
            per_node = np.where(
                abse <= params.r / 2.0,
                0.5 * k * etabar * etabar,
                k * params.r * params.r / 8.0 + a * (abse - params.r / 2.0),
            )
            return np.sum(per_node, axis=-1)

        rng = np.random.default_rng(23)
        for params in (self.PARAMS, SaturationParams(0.0, 20.0, 5.0), SaturationParams(0.3, 0.7, 1e-3)):
            r = params.r
            edges = [0.0, r, -r, np.nextafter(0.0, 1.0), np.nextafter(r, 2 * r), np.nextafter(r, 0.0)]
            special = np.array([0.0, -0.0, r / 2.0, -r / 2.0, 1e200, -1e200] + edges)
            for eta in (
                rng.uniform(-3 * r, 4 * r, (64, 8)),
                rng.normal(r / 2.0, r, (3, 5, 7)),
                special,
                special[:, None] * np.ones(3),
            ):
                got = lyapunov_value(eta, params)
                with np.errstate(over="ignore"):  # the quadratic piece at 1e200
                    want = plain_formula(eta, params)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestWindowAverager:
    W = 2.0 * math.pi / 0.6  # one oscillation period
    DT = 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowAverager(0.0, 0.02)
        with pytest.raises(ValueError):
            WindowAverager(1.0, 0.0)
        with pytest.raises(ValueError):
            WindowAverager(0.01, 0.02)
        av = WindowAverager(1.0, 0.02, shape=(3,))
        with pytest.raises(ValueError):
            av.push(np.zeros(2))
        with pytest.raises(ValueError):
            WindowAverager(1.0, 0.02).average()

    @pytest.mark.parametrize("window, dt", [(math.inf, 0.1), (1e300, 1e-300)])
    def test_window_of_no_finite_step_count(self, window, dt):
        with pytest.raises(ValueError, match="is not a finite count of steps$"):
            WindowAverager(window, dt)

    def test_window_beyond_the_address_space(self):
        # 1e21 steps: numpy's own answer would be a ValueError
        with pytest.raises(MemoryError, match="at least 1e21 values"):
            WindowAverager(10.0, 1e-20, shape=(2,))

    def test_first_sample_passthrough(self):
        av = WindowAverager(self.W, self.DT)
        av.push(3.75)
        assert av.average() == 3.75
        assert av.count == 1

    def test_constant_stream(self):
        av = WindowAverager(self.W, self.DT)
        for _ in range(900):
            av.push(2.5)
            assert av.average() == pytest.approx(2.5, abs=1e-12)

    def test_ramp_is_exact(self):
        # piecewise-linear quadrature is exact on a linear signal: the
        # warm-up average of t over [0, t] is t/2 and the full-window
        # average is t - W/2
        av = WindowAverager(self.W, self.DT)
        for k in range(1200):
            t = k * self.DT
            av.push(t)
            if k == 0:
                continue
            expected = t / 2.0 if t < self.W else t - self.W / 2.0
            assert av.average() == pytest.approx(expected, abs=1e-10)

    def test_sine_averages_out(self):
        # once the support covers a full period the oscillation cancels
        c, amp, w = 3.0, 5.0, 0.6
        av = WindowAverager(self.W, self.DT)
        for k in range(1600):
            t = k * self.DT
            av.push(c + amp * math.sin(w * t))
            if t >= self.W:
                assert abs(av.average() - c) < 1e-6 * amp

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(8)
        av = WindowAverager(self.W, self.DT)
        x = 0.0
        pushed = []
        for k in range(1400):
            x += rng.normal(0, 0.3)
            av.push(x)
            pushed.append(x)
            if k * self.DT < self.W or k % 97 != 0:
                continue
            samples = np.array(pushed)
            t_new = k * self.DT
            t = t_new - self.DT * np.arange(len(samples) - 1, -1, -1)
            a = t_new - self.W
            x_a = np.interp(a, t, samples)
            i0 = int(np.searchsorted(t, a, side="left"))
            integral = 0.5 * (x_a + samples[i0]) * (t[i0] - a)
            integral += np.trapezoid(samples[i0:], dx=self.DT)
            assert av.average() == pytest.approx(integral / self.W, rel=1e-9)

    def test_vector_matches_scalar_runs(self):
        rng = np.random.default_rng(4)
        data = rng.uniform(-5, 5, (700, 3))
        vec = WindowAverager(self.W, self.DT, shape=(3,))
        scalars = [WindowAverager(self.W, self.DT) for _ in range(3)]
        for row in data:
            vec.push(row)
            for j in range(3):
                scalars[j].push(row[j])
        got = vec.average()
        want = np.array([s.average() for s in scalars])
        # summation order along the time axis differs between the 1-d
        # and 2-d reductions, so agreement is to rounding, not bitwise
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "shape",
        [(), (1,), (3,), (512,), (2,), (8,), (600,)],
        ids=["scalar", "n1", "n3", "n512", "n2", "n8", "n600"],
    )
    @pytest.mark.parametrize(
        "window, dt",
        [(2.0 * math.pi / 0.6, 0.02), (1.0, 0.1), (0.02, 0.02)],
        ids=["fractional", "whole", "one-interval"],
    )
    def test_bitwise_equal_to_trapezoid_formula(self, shape, window, dt):
        av = WindowAverager(window, dt, shape=shape)
        capacity = int(window / dt) + 3  # samples the ring holds
        rng = np.random.default_rng(11)
        walk = np.cumsum(rng.normal(0, 0.3, (3 * capacity + 7,) + shape), axis=0)
        walk[::5] = 0.0
        walk[2::5] = -0.0
        # a full window of -0.0 first: the sign of a zero average depends
        # on the reduction, so it must match too
        stream = np.concatenate([np.full((capacity,) + shape, -0.0), walk])
        for k, value in enumerate(stream):
            av.push(value)
            got, want = av.average(), trapezoid_window_average(stream[:k + 1], window, dt)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), k

    # N = 2, 8 and 600 fold blocks of k, 256 and 3 windows; () and (1,)
    # sum pairwise, one window per tick
    SHAPES = [(), (1,), (2,), (8,), (600,)]
    SHAPE_IDS = ["scalar", "n1", "n2", "n8", "n600"]

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    @pytest.mark.parametrize("window", [1.0, 1.05], ids=["whole", "fractional"])
    def test_bitwise_across_many_compactions(self, shape, window):
        # k = 10: the store holds 2 (k + 3) = 26 terms, so 60 windows
        # move its newest terms to the front dozens of times
        dt = 0.1
        stream = np.cumsum(np.random.default_rng(12).normal(0, 0.3, (600,) + shape), axis=0)
        assert len(stream) > 20 * 2 * (int(window / dt) + 3)
        av = WindowAverager(window, dt, shape=shape)
        for k, value in enumerate(stream):
            av.push(value)
            got, want = av.average(), trapezoid_window_average(stream[:k + 1], window, dt)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), k

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_bitwise_with_several_pushes_between_averages(self, shape):
        window, dt = 2.0 * math.pi / 0.6, 0.02
        rng = np.random.default_rng(13)
        stream = np.cumsum(rng.normal(0, 0.3, (1700,) + shape), axis=0)
        # bursts of 1 to 300 pushes, so some end inside a block, some
        # skip whole blocks and one spans the end of warm-up
        ends = np.cumsum(rng.integers(1, 300, 40))
        av = WindowAverager(window, dt, shape=shape)
        pushed = 0
        for end in ends[ends <= len(stream)]:
            for value in stream[pushed:end]:
                av.push(value)
            pushed = end
            got, want = av.average(), trapezoid_window_average(stream[:end], window, dt)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), end

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    @pytest.mark.parametrize(
        "steps",
        [10.0, 10.0 - 5e-10, 10.0 + 5e-10, 10.25, 10.999],
        ids=["whole", "just-under", "just-over", "quarter", "almost-next"],
    )
    def test_bitwise_where_warm_up_gives_way_to_the_full_window(self, shape, steps):
        # the window is `steps` intervals of dt: 10 whole ones when within
        # 1e-9 of 10, else 10 and a sliver; the first full window is the
        # first t >= window, at tick 10 or 11
        dt = 0.1
        window = steps * dt
        stream = np.cumsum(np.random.default_rng(14).normal(0, 0.3, (16,) + shape), axis=0)
        stream[:6] = -0.0  # a zero sum keeps the sign numpy gives it
        av = WindowAverager(window, dt, shape=shape)
        full = []
        for k, value in enumerate(stream):
            av.push(value)
            full.append(k * dt >= window)
            got, want = av.average(), trapezoid_window_average(stream[:k + 1], window, dt)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), k
        assert not full[9] and full[-1]

    @pytest.mark.parametrize("n", [2, 8, 512, 600, 4096])
    def test_arrays_hold_three_windows_and_one_block(self, n):
        # the term store, the sample ring and the block of window sums
        av = WindowAverager(self.W, self.DT, shape=(n,))
        rows = 3 * (int(self.W / self.DT) + 3)
        block = max(2 * n, _SUMMARY_BLOCK // 2)
        held = sum(a.nbytes for a in vars(av).values() if isinstance(a, np.ndarray) and a.ndim)
        assert held <= 8 * (rows * n + block)

    def test_steady_state_allocates_less_than_a_window(self):
        n = 512
        av = WindowAverager(self.W, self.DT, shape=(n,))
        data = np.random.default_rng(5).uniform(-5, 5, (700, n))
        for row in data[:600]:
            av.push(row)
            av.average()
        window_bytes = (int(self.W / self.DT) + 3) * n * 8  # 526 x 512 doubles, 2.2 MB
        tracemalloc.start()
        try:
            for row in data[600:]:
                av.push(row)
                av.average()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024 < window_bytes


    @staticmethod
    def fold_ahead(monkeypatch, min_size=consensus._PREFETCH_SIZE) -> None:
        """From here on, averagers of min_size values or more fold ahead wherever L >= 1, on any CPU count."""
        monkeypatch.setattr(consensus, "_prefetches", lambda size, lead: size >= min_size and lead >= 1)

    def averager(self, monkeypatch, window, dt, shape, ahead: bool) -> WindowAverager:
        """An averager that folds ahead in a helper wherever L >= 1, whatever its size, or never."""
        self.fold_ahead(monkeypatch, 1 if ahead else math.inf)
        return WindowAverager(window, dt, shape=shape)

    @pytest.mark.parametrize("shape", [(63,), (64,), (512,), (40, 3)], ids=["n63", "n64", "n512", "n40x3"])
    @pytest.mark.parametrize("window", [2.0 * math.pi / 0.6, 10.46], ids=["fractional", "whole"])
    def test_helper_folds_keep_every_bit(self, shape, window, monkeypatch, fold_helpers):
        dt = 0.02
        fold = consensus._fold

        def slow_fold(*args):
            # the helper is still folding when the next block opens
            time.sleep(0.001)
            fold(*args)

        monkeypatch.setattr(consensus, "_fold", slow_fold)
        inline = self.averager(monkeypatch, window, dt, shape, ahead=False)
        ahead = self.averager(monkeypatch, window, dt, shape, ahead=True)
        rng = np.random.default_rng(15)
        stream = np.cumsum(rng.normal(0, 0.3, (1700,) + shape), axis=0)
        stream[::7] = -0.0
        averages, compactions, end = [], 0, 0
        for value in stream:
            ahead.push(value)
            averages.append(ahead.average())
            compactions += ahead._end < end
            end = ahead._end
        for k, value in enumerate(stream):
            inline.push(value)
            assert averages[k].tobytes() == inline.average().tobytes(), k
        assert compactions >= 2 and (ahead._fr > 0.0) == (window != 10.46)
        assert len(fold_helpers) == 1
        ahead.close()
        ahead.close()  # a no-op
        assert_reaped(fold_helpers[0])

    def test_a_dead_helper_leaves_the_folds_to_the_averager(self, monkeypatch, fold_helpers):
        shape = (64,)
        inline = self.averager(monkeypatch, self.W, self.DT, shape, ahead=False)
        ahead = self.averager(monkeypatch, self.W, self.DT, shape, ahead=True)
        stream = np.cumsum(np.random.default_rng(16).normal(0, 0.3, (1200,) + shape), axis=0)
        for k, value in enumerate(stream):
            if k == 800:
                os.kill(fold_helpers[0], signal.SIGKILL)
            inline.push(value)
            ahead.push(value)
            assert ahead.average().tobytes() == inline.average().tobytes(), k
        assert ahead._ahead is None  # every later block folded here
        assert_reaped(fold_helpers[0])

    def test_prefetch_needs_size_terms_fork_and_a_second_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert consensus._prefetches(consensus._PREFETCH_SIZE, 1)
        assert not consensus._prefetches(consensus._PREFETCH_SIZE - 1, 460)
        assert not consensus._prefetches(512, 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert not consensus._prefetches(512, 516)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.delattr(os, "fork")
        assert not consensus._prefetches(512, 516)

    def test_a_small_averager_never_forks(self, fold_helpers):
        # the eight drones' averager: m = 256 of k = 523, L = 12
        av = WindowAverager(self.W, self.DT, shape=(8,))
        for row in np.random.default_rng(6).uniform(-5, 5, (1200, 8)):
            av.push(row)
        assert av._ahead is None and fold_helpers == []

    def test_no_helper_outlives_a_run(self, swarm_128, fold_helpers, monkeypatch):
        self.fold_ahead(monkeypatch)
        run(swarm_128)
        assert len(fold_helpers) == 1
        assert_reaped(fold_helpers[0])

    def test_no_helper_outlives_a_run_that_raises(self, swarm_128, fold_helpers, monkeypatch):
        self.fold_ahead(monkeypatch)
        calls = []

        def failing_field_core(*args):
            calls.append(None)
            if len(calls) == 700:  # some 170 ticks into the full window
                raise RuntimeError("field failed")
            return field_core(*args)

        monkeypatch.setattr(sim, "field_core", failing_field_core)
        # failure holds the run's frame, so its averager lives on: the
        # helper is reaped by the run's own teardown, not by the collector
        with pytest.raises(RuntimeError, match="field failed") as failure:
            run(swarm_128)
        assert failure.traceback[-1].name == "failing_field_core"
        assert len(fold_helpers) == 1
        assert_reaped(fold_helpers[0])

    def test_a_run_without_fork_keeps_every_bit(self, swarm_128, fold_helpers, monkeypatch):
        self.fold_ahead(monkeypatch)
        helped = run(swarm_128)

        def no_fork():
            raise OSError("no fork here")

        monkeypatch.setattr(os, "fork", no_fork)
        res = run(swarm_128)
        assert len(fold_helpers) == 1  # the first run's
        for name in ("averaged_parameters", "positions", "headings", "omegas", "lyapunov"):
            assert getattr(res, name).tobytes() == getattr(helped, name).tobytes(), name

    def test_a_run_with_telemetry_folds_every_block_itself(self, swarm_128, fold_helpers, monkeypatch):
        # the telemetry helper has the CPU a fold helper would run on
        self.fold_ahead(monkeypatch)
        res = run(swarm_128, compute_digest=True)
        assert fold_helpers == []
        assert res.telemetry_digest == SWARM_128_DIGEST


GRAPHS = {
    "tree8": TREE8, "chain5": CHAIN5, "star8": STAR8, "star40": STAR40,
    "rrt512": random_recursive_tree(512, 1), "rrt4096": random_recursive_tree(4096, 5),
    "triangle": TRIANGLE, "single": Graph(1), "isolated": Graph(4, ((0, 1),)),
    "star40-hub-last": STAR40_HUB_LAST,
    "rrt64-shuffled": shuffled_ids(random_recursive_tree(64, 8), 9),
    "rrt512-shuffled": shuffled_ids(random_recursive_tree(512, 10), 11),
    # node 0 has no neighbour and comes last in the table's order
    "isolated-first": Graph(4, ((1, 3), (3, 2))),
}
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.5e-310, 1.0])


def graphs(*names):
    return pytest.mark.parametrize("graph", [GRAPHS[n] for n in names], ids=names)


class TestNeighborOps:
    def test_matches_negative_laplacian(self):
        table = TREE8.neighbor_table
        lap = laplacian(TREE8)
        rng = np.random.default_rng(1)
        x = rng.integers(-100, 100, 8).astype(float)
        assert np.array_equal(neighbor_disagreement(x, table), -lap @ x)
        batch = x[:, None] * [1.0, -2.0]
        assert np.array_equal(neighbor_disagreement(batch, table), -lap @ batch)

    def test_batched(self):
        # a batch row by row is each row alone, bit for bit
        table = CHAIN5.neighbor_table
        rng = np.random.default_rng(2)
        x, _ = rng.uniform(-10, 10, (2, 6, 5))
        out = disagreement_last_axis(x, table)
        assert out.shape == (6, 5)
        rows = [neighbor_disagreement(r, table) for r in x]
        assert out.tobytes() == np.stack(rows).tobytes()

    @graphs("star40", "rrt512")
    def test_row_equals_its_batch(self, graph):
        # a row sums by bincount, a batch by slot blocks; both add each
        # node's terms in one order, so a row equals its batch bitwise
        # at every degree (the hubs here have 39 and 10 neighbours)
        table = graph.neighbor_table
        rng = np.random.default_rng(3)
        for x, _ in (
            rng.uniform(-10.0, 10.0, (2, 32, graph.n_nodes)),
            rng.choice(SPECIAL, (2, 32, graph.n_nodes)),
        ):
            with np.errstate(invalid="ignore"):  # inf - inf
                batched = disagreement_last_axis(x, table)
                rows = [neighbor_disagreement(r, table) for r in x]
            assert batched.tobytes() == np.stack(rows).tobytes()

    @graphs("tree8", "chain5", "star8")
    def test_bitwise_equal_to_node_major_below_eight_slots(self, graph):
        table = graph.neighbor_table
        assert len(table.bounds) - 1 < 8
        rng = np.random.default_rng(11)
        batch = rng.uniform(-100.0, 100.0, (64, graph.n_nodes))
        for x in (batch, batch[0], batch.reshape(4, 16, graph.n_nodes)):
            got = disagreement_last_axis(x, table)
            want = disagreement_loop(graph, x)
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    def test_bitwise_equal_to_node_major_from_eight_slots(self):
        # a hub of 9 and a random tail: numpy would sum 8 or more
        # contiguous terms pairwise, but no node's terms are contiguous
        rng = np.random.default_rng(12)
        n = 40
        edges = [(0, i) for i in range(1, 10)]
        edges += [(int(rng.integers(0, i)), i) for i in range(10, n)]
        graph = Graph(n, tuple(edges))
        table = graph.neighbor_table
        assert len(table.bounds) - 1 >= 8
        x, _ = rng.uniform(-10.0, 10.0, (2, 32, n))
        got = disagreement_last_axis(x, table)
        assert got.tobytes() == disagreement_loop(graph, x).tobytes()

    @graphs("tree8", "chain5", "star8", "star40", "rrt512", "rrt4096", "triangle", "single", "isolated")
    def test_bitwise_equal_to_slot_major_formula(self, graph):
        # each node adds its terms in slot order from +0.0, for a row and
        # for batches, on zeros of either sign, infinities, NaN and
        # subnormals too; a node without neighbours gets +0.0
        table = graph.neighbor_table
        n = graph.n_nodes
        rng = np.random.default_rng(14)
        for shape in ((n,), (16, n), (4, 8, n)):
            rows = [rng.uniform(-100.0, 100.0, shape), rng.choice(SPECIAL, shape)]
            for x in rows:
                with np.errstate(invalid="ignore"):  # inf - inf
                    want = disagreement_loop(graph, x)
                    if x.ndim == 1:
                        got = neighbor_disagreement(x, table)
                    else:
                        got = disagreement_last_axis(x, table)
                assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    @graphs("tree8", "chain5", "star8", "triangle", "single", "isolated", "rrt4096")
    def test_table_bitwise_equal_to_edge_scan(self, graph):
        # the slot-major order, sorted neighbours of nodes by descending
        # degree, fixes the summation order
        got = graph.neighbor_table
        owners, neighbors, bounds, inverse = neighbor_table_edge_scan(graph)
        for g, w in ((got.owners, owners), (got.neighbors, neighbors), (got.inverse, inverse)):
            assert (g.dtype, g.tolist()) == (np.int64, w)
            assert not g.flags.writeable
        assert got.bounds == tuple(bounds)
        assert got.slots == tuple((slice(a, b), slice(0, b - a)) for a, b in zip(bounds[:-1], bounds[1:]))
        assert got.ordered == (inverse == list(range(graph.n_nodes)))

    def test_table_has_one_entry_per_edge_end(self):
        # 2M entries and no padding: each node owns as many as its degree,
        # and slot s lists the nodes of degree > s, widest first
        for graph in (TREE8, STAR40, GRAPHS["rrt512"], GRAPHS["isolated"]):
            table = graph.neighbor_table
            degrees = np.diag(laplacian(graph))
            assert len(table.owners) == len(table.neighbors) == 2 * graph.n_edges
            assert np.array_equal(np.bincount(table.owners, minlength=graph.n_nodes), degrees)
            order = np.argsort(table.inverse)
            assert np.all(np.diff(degrees[order]) <= 0)
            for s, (start, stop) in enumerate(zip(table.bounds[:-1], table.bounds[1:])):
                assert np.array_equal(table.owners[start:stop], order[:stop - start])
                assert np.all(degrees[order[:stop - start]] > s)
                assert np.all(degrees[order[stop - start:]] <= s)

    @pytest.mark.parametrize("relabelled", [False, True], ids=["node-order", "table-order"])
    @graphs("star8", "star40-hub-last")
    def test_infinite_value_stays_in_its_neighbourhood(self, graph, relabelled):
        # no padded slot: an infinite value reaches only its node's sum,
        # as -inf, and its neighbours', as +inf; no other node turns
        # infinite or NaN, in either order
        table = graph.neighbor_table
        n = graph.n_nodes
        # where each node's value sits in x
        where = table.inverse if relabelled else np.arange(n)
        near = sorted_neighbors(graph)
        if relabelled:
            table = table.relabelled()
        for node in (0, 3, n - 1):
            x = np.arange(float(n))
            x[where[node]] = np.inf
            reached = where[near[node]]
            for got in (neighbor_disagreement(x, table),
                        neighbor_disagreement(np.stack([x, x], axis=1), table)[:, 0]):
                assert got[where[node]] == -np.inf
                assert np.all(got[reached] == np.inf)
                assert np.isfinite(np.delete(got, [where[node], *reached])).all()

    @graphs("tree8", "star40-hub-last", "rrt64-shuffled", "rrt512-shuffled", "isolated-first", "single")
    def test_table_in_its_own_order_sums_bitwise(self, graph):
        # relabelled by place, every node keeps its terms in their slot
        # order, so the sums are the node-order sums read in place order,
        # bit for bit, though no gather puts them back: on rows and
        # batches, special values, and zeros of either sign, which sum
        # to +0.0
        table = graph.neighbor_table
        placed = table.relabelled()
        n = graph.n_nodes
        assert placed.ordered and placed.inverse.tolist() == list(range(n))
        assert placed.bounds == table.bounds and placed.slots == table.slots
        assert not any(a.flags.writeable for a in (placed.owners, placed.neighbors, placed.inverse))
        order = np.argsort(table.inverse)
        rng = np.random.default_rng(21)
        for shape in ((n,), (n, 3), (n, 2, 5)):
            zeros = rng.choice([0.0, -0.0], shape)
            rows = [rng.uniform(-100.0, 100.0, shape), rng.choice(SPECIAL, shape), zeros]
            for x in rows:
                with np.errstate(invalid="ignore"):  # inf - inf
                    want = neighbor_disagreement(x, table)[order]
                    got = neighbor_disagreement(x[order], placed)
                assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
            got = neighbor_disagreement(zeros[order], placed)
            assert got.tobytes() == np.zeros(shape).tobytes()

    def test_memory_is_linear_in_nodes_and_edges(self):
        # a 16 384-node star: the padded table would be (N, N - 1), 2 GiB
        # each for idx and mask; the slot-major one is 2M entries
        n = 16384
        edges = np.stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)], axis=1)
        x = np.random.default_rng(20).uniform(-1.0, 1.0, n)
        tracemalloc.start()
        try:
            graph = Graph(n, edges)
            held, build_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = neighbor_disagreement(x, graph.neighbor_table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.tobytes() == disagreement_loop(graph, x).tobytes()
        # the row call plus the table it reads, which `held` already counts
        table = graph.neighbor_table
        table_nbytes = table.owners.nbytes + table.neighbors.nbytes + table.inverse.nbytes
        assert peak - held + table_nbytes < 128 * (n + graph.n_edges)
        # the whole Graph build
        assert build_peak < 256 * (n + graph.n_edges)


class TestInputsUntouched:
    """The kernels work in place only on arrays they created, so no
    caller's array (the simulator passes the averager's output, the
    integrator its stage buffers) is ever written."""

    PARAMS = SaturationParams(0.2, 2.2, 4.0)

    @staticmethod
    def _frozen(*arrays):
        copies = [np.array(a) for a in arrays]
        for a in copies:
            a.setflags(write=False)
        return copies

    def test_read_only_inputs(self):
        rng = np.random.default_rng(18)
        for graph in (TREE8, STAR40):
            table = graph.neighbor_table
            arrays = (table.owners, table.neighbors, table.inverse)
            assert not any(a.flags.writeable for a in arrays)
            for shape in ((graph.n_nodes,), (graph.n_nodes, 3)):
                x, _ = self._frozen(*rng.uniform(-10.0, 10.0, (2,) + shape))
                before = [a.copy() for a in (x, *arrays)]
                got = neighbor_disagreement(x, table)
                assert got.flags.writeable
                want = disagreement_loop(graph, x.T).T
                assert got.tobytes() == want.tobytes()
                sat(x, self.PARAMS)
                lyapunov_value(x, self.PARAMS)
                for a, b in zip((x, *arrays), before):
                    assert a.tobytes() == b.tobytes()

    def test_scalar_results_are_python_floats(self):
        (s,) = self._frozen(np.float64(3.0))
        assert type(sat(s, self.PARAMS)) is float
        assert type(sat(-1.0, self.PARAMS)) is float
        assert sat(s, self.PARAMS) == 1.7
        (eta,) = self._frozen(np.arange(8.0))
        assert type(lyapunov_value(eta, self.PARAMS)) is float
        assert type(lyapunov_value(3.0 * np.ones(1), self.PARAMS)) is float

    def test_sat_matches_the_plain_expression(self):
        # the in-place body is bitwise tau_l + slope * clip(s, 0, r)
        rng = np.random.default_rng(19)
        s = np.concatenate([rng.uniform(-10.0, 10.0, 512), [0.0, -0.0, 4.0, np.inf, -np.inf]])
        p = self.PARAMS
        want = p.tau_l + (p.tau_h - p.tau_l) / p.r * s.clip(0.0, p.r)
        assert sat(s, p).tobytes() == want.tobytes()


class TestIntegrateConsensus:
    PARAMS = SaturationParams(0.0, 20.0, 5.0)

    def test_requires_spanning_tree(self):
        with pytest.raises(ValueError):
            integrate_consensus(TRIANGLE, np.zeros(3), self.PARAMS, 0.01, 1.0)

    def test_consensus_is_invariant(self):
        x0 = np.full(5, 3.7)
        run = integrate_consensus(CHAIN5, x0, self.PARAMS, 0.01, 5.0)
        assert np.array_equal(run.final_state, x0)
        assert np.array_equal(run.final_input, np.zeros(5))
        assert np.all(run.lyapunov == run.lyapunov[0])

    def test_two_node_closed_form(self):
        # leader holds, follower obeys xdot = x2 - x1 inside the linear
        # zone: x1(t) = 1 - exp(-t)
        two = Graph(2, ((0, 1),))
        p = SaturationParams(0.0, 1.0, 1.0)
        run = integrate_consensus(two, np.array([0.0, 1.0]), p, 0.01, 10.0, record_states=True)
        assert np.all(run.states[:, 1] == 1.0)
        expected = 1.0 - np.exp(-run.times)
        assert np.max(np.abs(run.states[:, 0] - expected)) < 1e-8
        assert run.final_state[0] == pytest.approx(1.0 - math.exp(-10.0), abs=1e-9)

    def test_front_runner_never_moves(self):
        # the global max sees only non-positive disagreement, so its
        # correction is the floor tau_l = 0 at every integrator stage
        rng = np.random.default_rng(42)
        x0 = rng.uniform(-50, 50, (20, 8))
        run = integrate_consensus(TREE8, x0, self.PARAMS, 0.01, 60.0)
        for b in range(20):
            i = int(np.argmax(x0[b]))
            assert run.final_state[b, i] == x0[b, i]

    def test_converges_to_max(self):
        rng = np.random.default_rng(3)
        x0 = rng.uniform(-40, 40, (10, 8))
        run = integrate_consensus(TREE8, x0, self.PARAMS, 0.01, 150.0)
        spread = run.final_state.max(axis=-1) - run.final_state.min(axis=-1)
        assert np.max(spread) < 1e-9
        assert np.max(np.abs(run.final_state.max(axis=-1) - x0.max(axis=-1))) < 1e-9

    def test_chain_converges(self):
        run = integrate_consensus(
            CHAIN5, np.array([4.0, -1.0, 0.0, 2.0, -3.0]), self.PARAMS, 0.01, 80.0
        )
        assert np.max(np.abs(run.final_state - 4.0)) < 1e-9

    def test_lyapunov_non_increasing(self):
        rng = np.random.default_rng(9)
        run = integrate_consensus(TREE8, rng.uniform(-30, 30, 8), self.PARAMS, 0.01, 40.0)
        assert np.all(np.diff(run.lyapunov) <= 1e-12)

    def test_rate_field_translation_invariance(self):
        # dyadic states keep every difference exact, so the disagreement
        # field is bitwise unchanged by a uniform shift
        table = TREE8.neighbor_table
        rng = np.random.default_rng(6)
        x = rng.integers(-32768, 32768, 8).astype(float) / 1024.0

        def rate(state):
            return sat(neighbor_disagreement(state, table), self.PARAMS)

        assert np.array_equal(rate(x + 64.0), rate(x))

    def test_trajectory_translation_invariance(self):
        rng = np.random.default_rng(7)
        x0 = rng.integers(-32768, 32768, 8).astype(float) / 1024.0
        base = integrate_consensus(TREE8, x0, self.PARAMS, 0.01, 40.0)
        shifted = integrate_consensus(TREE8, x0 + 64.0, self.PARAMS, 0.01, 40.0)
        assert np.max(np.abs(shifted.final_state - base.final_state - 64.0)) < 1e-9

    def _five_evaluation_rk4(self, x0, dt, n_steps, graph=TREE8, params=PARAMS):
        """Reference loop: evaluates the disagreement afresh, by the Python
        neighbour loop, for k1, the Lyapunov record and the final input,
        and V step by step; returns (states, lyapunov, final state, final
        input)."""

        def rate(state):
            return sat(disagreement_loop(graph, state), params)

        x = x0.copy()
        states = [x]
        lyap = [lyapunov_value(disagreement_loop(graph, x), params)]
        for _ in range(n_steps):
            k1 = rate(x)
            k2 = rate(x + 0.5 * dt * k1)
            k3 = rate(x + 0.5 * dt * k2)
            k4 = rate(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            states.append(x)
            lyap.append(lyapunov_value(disagreement_loop(graph, x), params))
        return np.array(states), np.array(lyap), x, rate(x)

    def test_bitwise_equal_to_five_evaluation_rk4(self):
        # the integrator reuses eta, stages in place and V per block
        rng = np.random.default_rng(13)
        x0 = rng.uniform(-30.0, 30.0, (4, 8))
        dt, n_steps = 0.01, 2000
        run = integrate_consensus(TREE8, x0, self.PARAMS, dt, n_steps * dt, record_states=True)
        states, lyap, x, u = self._five_evaluation_rk4(x0, dt, n_steps)
        assert np.array_equal(run.states, states)
        assert np.array_equal(run.lyapunov, lyap)
        assert np.array_equal(run.final_state, x)
        assert np.array_equal(run.final_input, u)

    @pytest.mark.parametrize("record_states", [True, False], ids=["states", "no-states"])
    @pytest.mark.parametrize("shape", [(8,), (4, 8)], ids=["row", "batch"])
    @pytest.mark.parametrize("offset", [None, -1, 0, 1], ids=["1", "rows-1", "rows", "rows+1"])
    def test_block_boundaries_bitwise(self, shape, offset, record_states, monkeypatch):
        # V runs once per block of rows = _SUMMARY_BLOCK // cells records;
        # n_steps + 1 records fill part of one block, exactly one, or
        # spill one or two records into the next
        rows = _SUMMARY_BLOCK // math.prod(shape)
        n_steps = 1 if offset is None else rows + offset
        calls = {"sat": 0, "neighbor_disagreement": 0, "lyapunov_value": 0}
        for name in calls:
            inner = getattr(consensus, name)

            def counted(*args, _inner=inner, _name=name):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(consensus, name, counted)
        x0 = np.random.default_rng(16).uniform(-30.0, 30.0, shape)
        dt = 0.01
        run = integrate_consensus(TREE8, x0, self.PARAMS, dt, n_steps * dt, record_states)
        assert calls == {
            "sat": 4 * n_steps + 1,
            "neighbor_disagreement": 4 * n_steps + 1,
            "lyapunov_value": math.ceil((n_steps + 1) / rows),
        }
        monkeypatch.undo()
        states, lyap, x, u = self._five_evaluation_rk4(x0, dt, n_steps)
        if record_states:
            assert np.array_equal(run.states, states)
        else:
            assert run.states is None
        assert run.lyapunov.shape == lyap.shape
        assert np.array_equal(run.lyapunov, lyap)
        assert np.array_equal(run.final_state, x)
        assert np.array_equal(run.final_input, u)

    @pytest.mark.parametrize("shape", [(40,), (16, 40)], ids=["row", "batch"])
    def test_bitwise_equal_to_slot_major_rk4_on_a_wide_star(self, shape):
        # the hub has 39 slots, so every summation order shows: a row and
        # a batch must both sum each node's terms in slot order, and V
        # must sum each row of eta as one contiguous run
        x0 = np.random.default_rng(15).uniform(-30.0, 30.0, shape)
        dt, n_steps = 0.01, 300
        run = integrate_consensus(STAR40, x0, self.PARAMS, dt, n_steps * dt, record_states=True)
        states, lyap, x, u = self._five_evaluation_rk4(x0, dt, n_steps, STAR40)
        assert np.array_equal(run.states, states)
        assert np.array_equal(run.lyapunov, lyap)
        assert np.array_equal(run.final_state, x)
        assert np.array_equal(run.final_input, u)
        assert run.final_state.shape == run.final_input.shape == shape

    @pytest.mark.parametrize("record_states", [True, False], ids=["states", "no-states"])
    @pytest.mark.parametrize("batch", [(), (3,), (2, 3)], ids=["row", "batch", "batch2"])
    @graphs("star40-hub-last", "rrt64-shuffled")
    def test_bitwise_equal_to_five_evaluation_rk4_far_from_table_order(self, graph, batch, record_states):
        # the integrator sums in the table's order and puts only its
        # records back in node order; here almost every node's place is
        # not its id, so a record left in place order shows
        n = graph.n_nodes
        assert np.count_nonzero(graph.neighbor_table.inverse != np.arange(n)) > 0.9 * n
        x0 = np.random.default_rng(22).uniform(-30.0, 30.0, batch + (n,))
        dt, n_steps = 0.01, 120
        run = integrate_consensus(graph, x0, self.PARAMS, dt, n_steps * dt, record_states)
        states, lyap, x, u = self._five_evaluation_rk4(x0, dt, n_steps, graph)
        if record_states:
            assert (run.states.shape, run.states.tobytes()) == (states.shape, states.tobytes())
        else:
            assert run.states is None
        for got, want in ((run.lyapunov, lyap), (run.final_state, x), (run.final_input, u)):
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    # slope 80: from spreads up to about 10, runs settle bitwise within
    # a few hundred steps of dt = 0.01; a spread of 1000 takes 50 s
    SETTLING = SaturationParams(0.0, 20.0, 0.25)
    SPREADS = np.array([0.0, 1e-3, 1e-2, 0.1, 1.0, 3.0, 10.0, 1000.0])

    def _settling_starts(self, batch, n, first=0, seed=31):
        """Starts whose spreads cycle through SPREADS from SPREADS[first];
        a spread of 0 gives +0.0 and -0.0 at random."""
        runs = math.prod(batch)
        spread = np.resize(np.roll(self.SPREADS, -first), runs)[:, None]
        x0 = np.random.default_rng(seed).uniform(-0.5, 0.5, (runs, n)) * spread
        return x0.reshape(batch + (n,))

    def _count_calls(self, monkeypatch):
        """Wrap sat and neighbor_disagreement; returns each one's list of
        the batch widths it was called with (1 for a row)."""
        widths = {"sat": [], "neighbor_disagreement": []}
        for name, seen in widths.items():
            inner = getattr(consensus, name)

            def counted(*args, _inner=inner, _seen=seen):
                _seen.append(args[0].shape[1] if args[0].ndim > 1 else 1)
                return _inner(*args)

            monkeypatch.setattr(consensus, name, counted)
        return widths

    @pytest.mark.parametrize("record_states", [True, False], ids=["states", "no-states"])
    @pytest.mark.parametrize(
        "graph,batch,n_steps",
        [(TREE8, (8,), 700), (TREE8, (2, 3), 700), (TREE8, (), 1100), (STAR40, (8,), 500)],
        ids=["tree-batch", "tree-batch2", "tree-row", "star40-batch"],
    )
    def test_retired_runs_bitwise_equal_to_five_evaluation_rk4(self, graph, batch, n_steps,
                                                               record_states, monkeypatch):
        # runs settle at different steps, and retire at the next check; the
        # star's V sums 40 nodes a run, so its pairwise blocks show
        x0 = self._settling_starts(batch, graph.n_nodes, first=2 if batch == () else 0)
        widths = self._count_calls(monkeypatch)
        dt = 0.01
        run = integrate_consensus(graph, x0, self.SETTLING, dt, n_steps * dt, record_states)
        monkeypatch.undo()
        runs = math.prod(batch)
        if batch == ():
            # the lone run (spread 0.01) settles near step 650, after the
            # first check at step 511, and retires at the second, step 1023,
            # which ends the loop: no sat for the final input
            assert len(widths["sat"]) < 4 * n_steps and len(widths["sat"]) % 4 == 0
        else:
            # runs left at several steps, and some still move at t_end
            assert len(set(widths["sat"])) > 2 and widths["sat"][0] == runs
            assert len(widths["sat"]) == 4 * n_steps + 1
        states, lyap, x, u = self._five_evaluation_rk4(x0, dt, n_steps, graph, self.SETTLING)
        if record_states:
            assert (run.states.shape, run.states.tobytes()) == (states.shape, states.tobytes())
        else:
            assert run.states is None
        for got, want in ((run.lyapunov, lyap), (run.final_state, x), (run.final_input, u)):
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    @pytest.mark.parametrize("batch", [(), (7,)], ids=["row", "batch"])
    def test_retired_runs_call_no_kernel_once_all_have_settled(self, batch, monkeypatch):
        # every run settles long before t_end, so the loop ends early: sat
        # runs four times a step taken and never for the final input, the
        # disagreement once more, and neither sees an empty batch
        x0 = self._settling_starts(batch, 8)
        widths = self._count_calls(monkeypatch)
        dt, n_steps = 0.01, 1500
        run = integrate_consensus(TREE8, x0, self.SETTLING, dt, n_steps * dt, record_states=True)
        monkeypatch.undo()
        taken = len(widths["sat"]) // 4
        assert len(widths["sat"]) == 4 * taken
        assert len(widths["neighbor_disagreement"]) == 4 * taken + 1
        assert taken < n_steps // 2
        assert min(widths["sat"] + widths["neighbor_disagreement"]) >= 1
        states, lyap, x, u = self._five_evaluation_rk4(x0, dt, n_steps, TREE8, self.SETTLING)
        for got, want in ((run.states, states), (run.lyapunov, lyap), (run.final_state, x),
                          (run.final_input, u)):
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    def test_record_shapes(self):
        run = integrate_consensus(
            CHAIN5, np.zeros((4, 5)), self.PARAMS, 0.1, 1.0, record_states=True
        )
        assert isinstance(run, ConsensusRun)
        assert run.times.shape == (11,)
        assert run.lyapunov.shape == (11, 4)
        assert run.states.shape == (11, 4, 5)
        assert run.final_input.shape == (4, 5)

    def test_empty_batch(self):
        # no initial conditions: every record is empty along the batch axis
        run = integrate_consensus(
            TREE8, np.zeros((0, 8)), self.PARAMS, 0.1, 1.0, record_states=True
        )
        assert run.times.shape == (11,)
        assert run.final_state.shape == run.final_input.shape == (0, 8)
        assert run.lyapunov.shape == (11, 0)
        assert run.states.shape == (11, 0, 8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("shape", [(5,), (3, 5)], ids=["row", "batch"])
    def test_rejects_non_finite_x0(self, bad, shape):
        x0 = np.zeros(shape)
        x0[(0,) * len(shape)] = bad
        with pytest.raises(ValueError, match="^x0 must be finite; 1 of its values are NaN or inf$"):
            integrate_consensus(CHAIN5, x0, self.PARAMS, 0.01, 1.0)

    @pytest.mark.parametrize("shape", [(5,), (3, 5)])
    def test_rejects_x0_whose_lyapunov_value_is_not_finite(self, shape):
        # finite states, but 1e308 apart: V(x0) overflows, so no step runs
        x0 = np.zeros(shape)
        x0[..., 1] = 1.7e308
        x0[..., 3] = -1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^x0 .*V\(x0\) is not a finite number$"):
                integrate_consensus(CHAIN5, x0, self.PARAMS, 0.01, 1.0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            integrate_consensus(CHAIN5, np.zeros(4), self.PARAMS, 0.01, 1.0)
        with pytest.raises(ValueError, match="n_nodes 5"):
            integrate_consensus(CHAIN5, 5.0, self.PARAMS, 0.01, 1.0)
        with pytest.raises(ValueError):
            integrate_consensus(CHAIN5, np.zeros(5), self.PARAMS, -0.01, 1.0)
        with pytest.raises(ValueError, match="is not a finite count of steps$"):
            integrate_consensus(CHAIN5, np.zeros(5), self.PARAMS, 1e-300, 1e10)
        with pytest.raises(MemoryError, match="at least 1e22 values"):
            integrate_consensus(CHAIN5, np.zeros(5), self.PARAMS, 1e-20, 100.0)
