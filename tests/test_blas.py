"""The BLAS binding of `linalg` (numpy's own OpenBLAS, through ctypes) and
the Halpern update that runs on it, checked bit for bit against scipy's
BLAS, which only the tests import."""

import ctypes
import gc
import math
import weakref

import numpy as np
import pytest
from scipy.linalg.blas import daxpy as scipy_daxpy

from conic_pdhg import engine, linalg
from conic_pdhg.engine import SolverOptions, reflected_halpern_step, solve
from oracles import halpern_step_three_pass
from test_engine import tiny_lp

bound = pytest.mark.skipif(linalg.BLAS is None, reason="numpy's BLAS is not a bindable OpenBLAS")

LENGTHS = [range(0, 101), range(101, 201), range(201, 301),
           (1000, 4097, 12000, 65537, 240000, 300000)]
LENGTH_IDS = ["0-100", "101-200", "201-300", "1e3-3e5"]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def vectors(rng, n, count):
    """`count` vectors of length n, entries spread over 1e-5..1e5 in magnitude."""
    return [rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5, n) for _ in range(count)]


def scipy_axpy(alpha, x, y):
    """y += alpha x by scipy's BLAS, in place."""
    if y.size:
        assert scipy_daxpy(x, y, a=alpha) is y


@bound
class TestBinding:
    """`BoundUpdate`'s two passes against a scaling and scipy's `daxpy`."""

    @pytest.mark.parametrize("lengths", LENGTHS, ids=LENGTH_IDS)
    def test_axpby_axpy_and_axpy_axpy_have_scipys_bits(self, lengths):
        for n in lengths:
            rng = np.random.default_rng(n)
            x, w, y = vectors(rng, n, 3)
            for alpha, beta, gamma in ((float(rng.uniform(0.5, 2)), -float(rng.uniform()), 0.1),
                                       (1.0 / 3.0, -2.0 / 3.0, 1e-300), (-1e-3, 7.0, 1e300)):
                expect = np.multiply(y, beta)
                scipy_axpy(alpha, x, expect)
                scipy_axpy(gamma, w, expect)
                got = y.copy()
                linalg.BoundUpdate(x, w, got).axpby_axpy(alpha, beta, gamma)
                assert same_bits(got, expect)

                expect = y.copy()
                scipy_axpy(alpha, x, expect)
                scipy_axpy(gamma, w, expect)
                got = y.copy()
                linalg.BoundUpdate(x, w, got).axpy_axpy(alpha, gamma)
                assert same_bits(got, expect)

    @pytest.mark.parametrize("shift", [(1, 0, 2), (0, 3, 1), (5, 2, 7), (7, 7, 7)])
    def test_offset_views(self, shift):
        # views that start inside a buffer, at addresses not 16- or 32-byte aligned
        rng = np.random.default_rng(sum(shift))
        n = 1001
        xbuf, wbuf, ybuf = vectors(rng, n + 8, 3)
        x, w, y = (buf[s:s + n] for buf, s in zip((xbuf, wbuf, ybuf), shift))
        expect = np.multiply(y, -0.25)
        scipy_axpy(0.7, x, expect)
        scipy_axpy(0.3, w, expect)
        before = ybuf.copy()
        linalg.BoundUpdate(x, w, y).axpby_axpy(0.7, -0.25, 0.3)
        assert same_bits(y, expect)
        outside = np.ones(ybuf.size, bool)
        outside[shift[2]:shift[2] + n] = False
        assert same_bits(ybuf[outside], before[outside])

    def test_daxpby_with_beta_zero_does_not_read_y(self):
        # BLAS semantics, and the reason the Halpern update takes three
        # passes when beta is 0
        x = np.array([1.0, -0.0, 3.0])
        y = np.array([math.nan, -1.0, math.inf])
        linalg.BoundUpdate(x, np.zeros(3), y).axpby_axpy(2.0, 0.0, 1.0)
        assert same_bits(y, np.array([2.0, 0.0, 6.0]))

    def test_bad_operands_raise_and_write_nothing(self):
        x = np.arange(6.0)
        for args in ((x.astype(np.float32), x, np.zeros(6)), (x, np.arange(6), np.zeros(6)),
                     (x, x, np.zeros(6, np.float32)), (np.repeat(x, 2)[::2], x, np.zeros(6)),
                     (x, x, np.zeros(12)[::2]), (x, x, np.zeros(5)), (x, x[:5], np.zeros(6)),
                     (x.reshape(2, 3), x.reshape(2, 3), np.zeros((2, 3))),
                     (x.tolist(), x, np.zeros(6))):
            y_before = args[2].copy()
            with pytest.raises(ValueError):
                linalg.BoundUpdate(*args)
            assert same_bits(args[2], y_before)
        buf = np.arange(8.0)
        with pytest.raises(ValueError, match="overlap"):
            linalg.BoundUpdate(buf[:6], x, buf[2:])
        with pytest.raises(ValueError, match="overlap"):
            linalg.BoundUpdate(x, buf[2:], buf[:6])
        readonly = np.zeros(6)
        readonly.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            linalg.BoundUpdate(x, x, readonly)
        assert np.array_equal(buf, np.arange(8.0)) and not readonly.any()


@bound
class TestGilReleasingBinding:
    """The GIL-releasing binding that a sharded solve's helper threads run:
    the same two symbols, with the bits of the whole-vector calls."""

    def test_same_symbols_bound_twice(self):
        blas = linalg.BLAS
        assert blas.daxpby._flags_ & ctypes._FUNCFLAG_PYTHONAPI
        for released, held in ((blas.daxpby_nogil, blas.daxpby), (blas.daxpy_nogil, blas.daxpy)):
            assert not released._flags_ & ctypes._FUNCFLAG_PYTHONAPI
            assert released.__name__ == held.__name__
            assert released.argtypes == held.argtypes and released.restype is None
            assert (ctypes.cast(released, ctypes.c_void_p).value
                    == ctypes.cast(held, ctypes.c_void_p).value)

    def test_split_calls_have_the_bits_of_the_whole_call(self):
        # 400 draws: lengths 1-5000, a cut anywhere, each side a view into
        # the whole buffers at an arbitrary alignment
        rng = np.random.default_rng(400)
        for _ in range(400):
            n = int(rng.integers(1, 5001))
            cut = int(rng.integers(0, n + 1))
            x, w, y = vectors(rng, n, 3)
            alpha, beta, gamma = (float(v) for v in rng.uniform(-2.0, 2.0, 3))
            for method, coef in (("axpby_axpy", (alpha, beta, gamma)),
                                 ("axpy_axpy", (alpha, gamma))):
                whole = y.copy()
                getattr(linalg.BoundUpdate(x, w, whole), method)(*coef)
                split = y.copy()
                for part in (slice(0, cut), slice(cut, n)):
                    getattr(linalg.BoundUpdate(x[part], w[part], split[part], nogil=True),
                            method)(*coef)
                assert same_bits(split, whole), (n, cut, method)


class TestHalpernStep:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 16, 31, 280, 12000, 240000])
    @pytest.mark.parametrize("beta", [0.0, 1.0, 0.37])
    def test_has_the_bits_of_the_three_scipy_passes(self, n, beta):
        rng = np.random.default_rng(n)
        z_hat, z_old, anchor = vectors(rng, n, 3)
        for k in (0, 1, 2, 1234, 10**6):
            expect = halpern_step_three_pass(z_hat, z_old, anchor, k, beta)
            out = np.full(n, math.nan)
            assert reflected_halpern_step(z_hat, z_old, anchor, k, beta, out=out) is out
            assert same_bits(out, expect)
            # the solve loop's call: out is z_old
            z = z_old.copy()
            assert reflected_halpern_step(z_hat, z, anchor, k, beta, out=z) is z
            assert same_bits(z, expect)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_special_values(self, beta):
        # signed zeros, infinities, NaN and subnormals in every operand, as
        # the three scipy passes treat them, with out aliasing z_old and not
        values = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0, 5e-324, 1e308])
        z_hat, z_old, anchor = (g.ravel() for g in np.meshgrid(values, values, values))
        with np.errstate(all="ignore"):
            expect = halpern_step_three_pass(z_hat, z_old, anchor, 3, beta)
            out = np.empty_like(z_old)
            reflected_halpern_step(z_hat, z_old, anchor, 3, beta, out=out)
            z = z_old.copy()
            reflected_halpern_step(z_hat, z, anchor, 3, beta, out=z)
        assert same_bits(out, expect) and same_bits(z, expect)

    def test_out_overlapping_z_old_without_being_it(self):
        rng = np.random.default_rng(5)
        buf, z_hat, anchor = vectors(rng, 40, 3)
        z_old = buf[:30].copy()
        expect = halpern_step_three_pass(z_hat[:30], z_old, anchor[:30], 4, 0.6)
        view = buf[2:32]
        buf[:30] = z_old
        reflected_halpern_step(z_hat[:30], buf[:30], anchor[:30], 4, 0.6, out=view)
        assert same_bits(view, expect)

    def test_fallback_to_scipy_blas_gives_the_same_bits(self, monkeypatch):
        rng = np.random.default_rng(11)
        z_hat, z_old, anchor = vectors(rng, 3001, 3)
        expect = halpern_step_three_pass(z_hat, z_old, anchor, 17, 0.8)
        monkeypatch.setattr(linalg, "BLAS", None)
        z = z_old.copy()
        reflected_halpern_step(z_hat, z, anchor, 17, 0.8, out=z)
        assert same_bits(z, expect)

    def test_fallback_solve_has_the_same_iterates(self, monkeypatch):
        def trajectory():
            seen = []
            result = solve(tiny_lp(), SolverOptions(
                max_iter=300, iteration_callback=lambda s: seen.append(np.concatenate(s.z))))
            return np.array(seen), result

        (bound_run, r1) = trajectory()
        monkeypatch.setattr(linalg, "BLAS", None)
        (fallback_run, r2) = trajectory()
        assert same_bits(bound_run, fallback_run) and same_bits(r1.x, r2.x)


@bound
class TestHalpernOperands:
    def operands(self, n=6):
        rng = np.random.default_rng(n)
        return vectors(rng, n, 3)

    @pytest.mark.parametrize("bad", ["float32 z_hat", "int anchor", "strided z_hat", "2-D out",
                                     "short anchor", "short z_old", "out is z_hat",
                                     "out overlaps z_hat", "out is anchor", "read-only out"])
    def test_bad_operands_raise_before_writing(self, bad):
        z_hat, z_old, anchor = self.operands()
        out = np.full(6, 7.0)
        if bad == "float32 z_hat":
            z_hat = z_hat.astype(np.float32)
        elif bad == "int anchor":
            anchor = np.arange(6)
        elif bad == "strided z_hat":
            z_hat = np.repeat(z_hat, 2)[::2]
        elif bad == "2-D out":
            out = out.reshape(2, 3)
        elif bad == "short anchor":
            anchor = anchor[:5]
        elif bad == "short z_old":
            z_old = z_old[:5]
        elif bad == "out is z_hat":
            out = z_hat
        elif bad == "out overlaps z_hat":
            buf = np.concatenate([z_hat, [1.0, 2.0]])
            z_hat, out = buf[:6], buf[2:]
        elif bad == "out is anchor":
            out = anchor
        elif bad == "read-only out":
            out.flags.writeable = False
        before = out.copy()
        with pytest.raises(ValueError):
            reflected_halpern_step(z_hat, z_old, anchor, 3, 0.5, out=out)
        assert same_bits(out, before)

    def test_addresses_taken_once_per_set_of_buffers(self):
        z_hat, z_old, anchor = self.operands()
        reflected_halpern_step(z_hat, z_old, anchor, 0, 0.5, out=z_old)
        first = linalg.bound_update(z_hat, anchor, z_old)
        reflected_halpern_step(z_hat, z_old, anchor, 1, 0.5, out=z_old)
        assert linalg.bound_update(z_hat, anchor, z_old) is first
        other = z_old.copy()
        reflected_halpern_step(z_hat, other, anchor, 1, 0.5, out=other)
        assert linalg.bound_update(z_hat, anchor, other) is not first

    def test_keeps_no_buffer_alive(self):
        z_hat, z_old, anchor = self.operands()
        refs = [weakref.ref(v) for v in (z_hat, z_old, anchor)]
        reflected_halpern_step(z_hat, z_old, anchor, 0, 0.5, out=z_old)
        del z_hat, z_old, anchor
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_new_buffers_at_a_reused_address_are_bound_afresh(self):
        # a buffer freed and another allocated in its place must not inherit
        # the old binding's length
        for n in (5, 50, 5, 500):
            z_hat, z_old, anchor = self.operands(n)
            expect = halpern_step_three_pass(z_hat, z_old, anchor, 2, 0.5)
            reflected_halpern_step(z_hat, z_old, anchor, 2, 0.5, out=z_old)
            assert same_bits(z_old, expect)
            del z_hat, z_old, anchor


@bound
class TestOneThreadDuringASolve:
    @pytest.fixture
    def two_threads(self):
        before = linalg.BLAS.get_num_threads()
        linalg.BLAS.set_num_threads(2)
        yield
        linalg.BLAS.set_num_threads(before)

    def test_callback_sees_one_thread_and_the_count_comes_back(self, two_threads):
        seen = set()
        solve(tiny_lp(), SolverOptions(
            max_iter=50, iteration_callback=lambda s: seen.add(linalg.BLAS.get_num_threads())))
        assert seen == {1}
        assert linalg.BLAS.get_num_threads() == 2

    def test_count_comes_back_after_an_exception(self, two_threads):
        class Stop(Exception):
            pass

        def fail(state):
            raise Stop

        with pytest.raises(Stop):
            solve(tiny_lp(), SolverOptions(max_iter=50, iteration_callback=fail))
        assert linalg.BLAS.get_num_threads() == 2

    def test_nested_solves_share_one_pin(self, two_threads):
        inner = []

        def nested(state):
            if not inner:
                inner.append(solve(tiny_lp(), SolverOptions(max_iter=5)))
                inner.append(linalg.BLAS.get_num_threads())

        solve(tiny_lp(), SolverOptions(max_iter=20, iteration_callback=nested))
        assert inner[1] == 1  # the inner solve's exit left the outer one's pin
        assert linalg.BLAS.get_num_threads() == 2

    def test_pin_is_set_before_the_set_up(self, two_threads, monkeypatch):
        seen = []
        build = engine.scalings.build_scaling

        def recording(problem):
            seen.append(linalg.BLAS.get_num_threads())
            return build(problem)

        monkeypatch.setattr(engine.scalings, "build_scaling", recording)
        solve(tiny_lp(), SolverOptions(max_iter=5))
        assert seen == [1]
