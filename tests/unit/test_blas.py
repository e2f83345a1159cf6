"""BLAS thread control, and the bit-exactness assumption behind pinning it.

Pool workers run with fewer BLAS threads than the parent (see
:mod:`repro.distrib.pool`), while the contract says a worker's bytes equal
the single-process bytes.  That holds only if the kernels the engine runs
round identically at any thread count -- which these tests check rather than
assume: the training and serving GEMMs, including 1-row gemv blocks, the
batched convolutions and the fused serving GEMM are computed with one
thread and again with the process default (at least two), and must agree
byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import blas
from repro.core.stability import folded_splits
from repro.nn import functional as F

needs_blas = pytest.mark.skipif(
    blas.num_threads() is None, reason="the host BLAS offers no thread control"
)

S, BATCH = 8, 64

#: ``sample_matmul`` operand shapes of B-MLP-small (196-64-64-64-10) and the
#: dense head of B-LeNet-small (192-48-10) at S=8, batch 64: forward, input
#: gradients and weight gradients, plus 1-row blocks and n=1 columns, which
#: OpenBLAS routes to gemv
MATMUL_SHAPES = [
    ((BATCH, 196), (S, 196, 64)),  # shared first-layer input
    ((S, BATCH, 64), (S, 64, 64)),
    ((S, BATCH, 64), (S, 64, 10)),
    ((S, BATCH, 10), (S, 10, 64)),
    ((S, BATCH, 64), (S, 64, 196)),
    ((S, 196, BATCH), (S, BATCH, 64)),
    ((S, 64, BATCH), (S, BATCH, 10)),
    ((S, BATCH, 192), (S, 192, 48)),
    ((S, BATCH, 48), (S, 48, 10)),
    ((1, 196), (S, 196, 64)),
    ((S, 1, 64), (S, 64, 10)),
    ((S, BATCH, 64), (S, 64, 1)),
]

#: B-LeNet-small's two convolutions: (in_channels, size, out_channels)
CONV_LAYERS = [(3, 16, 6), (6, 8, 12)]


def _across_thread_counts(compute) -> None:
    """``compute()`` at 1 thread and at the default (>= 2) must agree."""
    default = blas.num_threads()
    with blas.threads(1):
        single = [np.ascontiguousarray(a).tobytes() for a in compute()]
    with blas.threads(max(2, default)):
        multi = [np.ascontiguousarray(a).tobytes() for a in compute()]
    assert blas.num_threads() == default  # restored
    assert single == multi


def test_threads_context_sets_and_restores():
    default = blas.num_threads()
    with blas.threads(1) as applied:
        assert applied == (None if default is None else 1)
        assert blas.num_threads() == applied
    assert blas.num_threads() == default
    with pytest.raises(ValueError):
        blas.set_num_threads(0)


def test_worker_budget_rule(monkeypatch):
    monkeypatch.setattr(blas, "num_threads", lambda: 4)
    monkeypatch.setattr(blas, "usable_cpus", lambda: 8)
    assert [blas.worker_budget(n) for n in (1, 2, 3, 4, 8, 16)] == [4, 4, 2, 2, 1, 1]
    monkeypatch.setattr(blas, "num_threads", lambda: None)
    assert blas.worker_budget(2) is None


def test_no_blas_is_a_reported_noop(monkeypatch):
    monkeypatch.setattr(blas, "_entry", lambda: None)
    assert blas.num_threads() is None
    assert blas.set_num_threads(2) is None
    with blas.threads(1) as applied:
        assert applied is None


@needs_blas
def test_sample_matmul_is_thread_count_invariant():
    rng = np.random.default_rng(7)
    operands = [
        (rng.standard_normal(a_shape), rng.standard_normal(b_shape))
        for a_shape, b_shape in MATMUL_SHAPES
    ]
    _across_thread_counts(lambda: [F.sample_matmul(a, b) for a, b in operands])


@needs_blas
def test_batched_convolutions_are_thread_count_invariant():
    rng = np.random.default_rng(8)
    cases = []
    for channels, size, out_channels in CONV_LAYERS:
        x = rng.standard_normal((S * BATCH, channels, size, size))
        weights = rng.standard_normal((S, out_channels, channels, 3, 3))
        bias = rng.standard_normal(out_channels)
        grad_out = rng.standard_normal((S * BATCH, out_channels, size, size))
        cases.append((x, weights, bias, grad_out))

    def compute():
        results = []
        for x, weights, bias, grad_out in cases:
            out, cols = F.conv2d_forward_samples(x, weights, bias, 1, 1, S)
            results.append(out)
            results.extend(
                F.conv2d_backward_samples(grad_out, cols, x.shape, weights, 1, 1, S)
            )
        return results

    _across_thread_counts(compute)


@needs_blas
def test_fused_serving_gemm_is_thread_count_invariant():
    # a pooled serving tile: requests of 1, 3, 7 and 21 rows folded into one
    # GEMM per sample, dense and conv-column ("nt") idioms
    rng = np.random.default_rng(9)
    splits = (1, 3, 7, 21)
    rows = sum(splits)
    dense = [
        (rng.standard_normal((rows, 196)), rng.standard_normal((S, 196, 64))),
        (rng.standard_normal((S, rows, 64)), rng.standard_normal((S, 64, 10))),
    ]
    x = rng.standard_normal((S * rows, 3, 16, 16))
    weights = rng.standard_normal((S, 6, 3, 3, 3))

    def compute():
        with folded_splits(splits):
            results = [F.sample_matmul(a, b) for a, b in dense]
            results.append(F.conv2d_forward_samples(x, weights, None, 1, 1, S)[0])
        return results

    _across_thread_counts(compute)
