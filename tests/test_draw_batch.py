"""``draw_batch`` against a serial reference draw, and its noise thread.

``draw_batch`` fills the noise stream on a second thread while the sources
are drawn, then mixes both in blocks of rows inside the noise buffer.  The
reference below is the plain serial draw it replaced: stack the sources,
mix them as whole arrays, then draw the noise and add it.  Both must give
the same bytes.
"""

import math
import threading
import tracemalloc

import numpy as np
import pytest

from pegica import GroundTruthModel, draw_batch, finite_kurtosis_panel, make_model
from pegica import simulate
from pegica.simulate import _noise_factor, stream


def serial_draw(model, N, seed):
    """The serial draw: sources, then mixing, then noise, one at a time."""
    rng_s = stream(seed, "sources")
    S = np.column_stack([spec.sample(N, rng_s) for spec in model.sources])
    X = S @ model.A.T
    if model.noise_power > 0:
        rng_n = stream(seed, "noise")
        L = _noise_factor(model.Sigma)
        if model.is_complex:
            g = rng_n.standard_normal((N, model.n)) + 1j * rng_n.standard_normal((N, model.n))
            X = X + (g / math.sqrt(2.0)) @ L.T
        else:
            X = X + rng_n.standard_normal((N, model.n)) @ L.T
    return X, S


def assert_same_bytes(value, reference):
    assert value.dtype == reference.dtype
    assert value.shape == reference.shape
    assert value.tobytes() == reference.tobytes()


MODELS = {
    "real": dict(n=8, seed=3, noise_power=0.1),
    "complex": dict(n=8, seed=4, noise_power=0.1, complex_phases=True),
    "noise_free": dict(n=8, seed=5, noise_power=0.0),
    "m_below_n": dict(n=8, m=5, seed=6, noise_power=0.2),
    "finite_k4": dict(n=8, seed=7, noise_power=0.1, sources=finite_kurtosis_panel(8)),
}


def _complex_noise_model():
    # a hand-built model may pair a real A with a complex Sigma; the batch
    # then turns complex, as the noise does
    A = make_model(n=3, seed=8).A
    Sigma = np.array([[1.0, 0.5j, 0.0], [-0.5j, 1.0, 0.0], [0.0, 0.0, 1.0]])
    return GroundTruthModel(A=A, sources=make_model(n=3).sources, Sigma=Sigma, noise_power=0.1)


class TestMatchesSerialDraw:
    @pytest.mark.parametrize("N", [1, 7, 10_000])
    def test_real_model(self, N):
        model = make_model(**MODELS["real"])
        batch = draw_batch(model, N, seed=11)
        X, S = serial_draw(model, N, seed=11)
        assert_same_bytes(batch.X, X)
        assert_same_bytes(batch.S, S)

    @pytest.mark.parametrize("case", ["complex", "noise_free", "m_below_n", "finite_k4"])
    def test_model_variants(self, case):
        model = make_model(**MODELS[case])
        batch = draw_batch(model, 10_000, seed=12)
        X, S = serial_draw(model, 10_000, seed=12)
        assert_same_bytes(batch.X, X)
        assert_same_bytes(batch.S, S)

    def test_real_mixing_with_complex_noise(self):
        model = _complex_noise_model()
        batch = draw_batch(model, 500, seed=13)
        X, S = serial_draw(model, 500, seed=13)
        assert np.iscomplexobj(batch.X)
        assert_same_bytes(batch.X, X)
        assert_same_bytes(batch.S, S)


EDGE_MODELS = {
    **{f"real_n{n}": dict(n=n, seed=n, noise_power=0.1) for n in (3, 8, 24, 40)},
    **{f"complex_n{n}": dict(n=n, seed=n, noise_power=0.1, complex_phases=True)
       for n in (8, 40)},
    "real_A_complex_Sigma": None,
}


class TestRowBlocks:
    """X is mixed in blocks of ``_MIX_ROWS`` rows, the remainder joining the
    last block; these sizes put the block edges one or two rows either side
    of a multiple of the block."""

    @pytest.mark.parametrize("N", [4095, 4096, 4097, 4098, 8191, 8193, 12290])
    @pytest.mark.parametrize("case", sorted(EDGE_MODELS))
    def test_block_edges_match_serial_draw(self, case, N):
        kwargs = EDGE_MODELS[case]
        model = _complex_noise_model() if kwargs is None else make_model(**kwargs)
        batch = draw_batch(model, N, seed=N)
        X, S = serial_draw(model, N, seed=N)
        assert_same_bytes(batch.X, X)
        assert_same_bytes(batch.S, S)

    def test_every_block_has_at_least_mix_rows(self):
        for N in (1, 4095, 4096, 8191, 8192, 12290, 100_000):
            blocks = simulate._row_blocks(N)
            assert blocks[0].start == 0 and blocks[-1].stop == N
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            sizes = [b.stop - b.start for b in blocks]
            assert min(sizes) >= min(N, simulate._MIX_ROWS)

    def test_noisy_draw_holds_under_two_and_a_half_arrays(self):
        # the blocks are mixed back into the noise buffer, so the draw holds
        # the sources and one N-by-n buffer; whole-array mixing held four
        model = make_model(n=8, seed=3, noise_power=0.1)
        N = 100_000
        tracemalloc.start()
        try:
            batch = draw_batch(model, N, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.X.shape == (N, 8)
        assert peak < 2.5 * N * model.n * 8

    @pytest.mark.parametrize("case", ["real", "complex", "noise_free", "m_below_n"])
    def test_layout(self, case):
        batch = draw_batch(make_model(**MODELS[case]), 10_000, seed=14)
        assert batch.X.flags.c_contiguous
        assert batch.S.flags.f_contiguous
        assert not np.shares_memory(batch.X, batch.S)


class _BrokenNoise:
    def standard_normal(self, *args, **kwargs):
        raise RuntimeError("noise stream failed")


class TestNoiseThread:
    def test_source_failure_reraises_and_joins(self, monkeypatch):
        def broken(self, count, rng):
            raise RuntimeError("source stream failed")

        monkeypatch.setattr(simulate.SourceSpec, "sample", broken)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="source stream failed"):
            draw_batch(make_model(n=4, noise_power=0.1), 1000, seed=0)
        assert threading.active_count() == before

    def test_noise_failure_reraises_and_joins(self, monkeypatch):
        streams = simulate.stream

        def patched(seed, purpose, *key):
            return _BrokenNoise() if purpose == "noise" else streams(seed, purpose, *key)

        monkeypatch.setattr(simulate, "stream", patched)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="noise stream failed"):
            draw_batch(make_model(n=4, noise_power=0.1), 1000, seed=0)
        assert threading.active_count() == before

    def test_success_leaves_no_thread(self):
        before = threading.active_count()
        draw_batch(make_model(n=4, noise_power=0.1, complex_phases=True), 1000, seed=0)
        assert threading.active_count() == before

    def test_noise_free_model_starts_no_thread(self, monkeypatch):
        started = []

        class Recording(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(simulate.threading, "Thread", Recording)
        draw_batch(make_model(n=4, noise_power=0.0), 1000, seed=0)
        assert started == []
        draw_batch(make_model(n=4, noise_power=0.1), 1000, seed=0)
        assert len(started) == 1
