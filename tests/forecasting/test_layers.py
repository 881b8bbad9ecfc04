"""Tests for neural layers and the optimizer."""

import numpy as np
import pytest

from repro.forecasting.attention import (MultiHeadAttention,
                                         ProbSparseAttention, causal_mask)
from repro.forecasting.nn import (Adam, Dropout, GRUCell, LayerNorm, Linear,
                                  Module, Tensor, kernels, mse_loss,
                                  positional_encoding)

#: fused kernels (the default) and the unfused reference graph
ENGINES = pytest.mark.parametrize("fused", [True, False],
                                  ids=["fused", "unfused"])


def rng():
    return np.random.default_rng(0)


def test_linear_shapes_and_bias():
    layer = Linear(4, 3, rng())
    out = layer(Tensor(np.ones((2, 4))))
    assert out.shape == (2, 3)
    layer_no_bias = Linear(4, 3, rng(), bias=False)
    assert layer_no_bias.bias is None


def test_module_collects_nested_parameters():
    class Net(Module):
        def __init__(self):
            super().__init__()
            self.a = Linear(2, 2, rng())
            self.stack = [Linear(2, 2, rng()), Linear(2, 2, rng())]

    net = Net()
    assert len(net.parameters()) == 6  # 3 layers x (weight, bias)


def test_state_round_trip():
    layer = Linear(3, 3, rng())
    snapshot = layer.state()
    layer.weight.data += 1.0
    layer.load_state(snapshot)
    assert np.array_equal(layer.weight.data, snapshot[0])


def test_layernorm_normalizes_last_axis():
    norm = LayerNorm(8)
    x = Tensor(np.random.default_rng(1).normal(5, 3, (4, 8)))
    out = norm(x).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
    assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)


def test_dropout_off_in_eval_mode():
    drop = Dropout(0.5, rng())
    drop.eval()
    x = Tensor(np.ones((3, 3)))
    assert np.array_equal(drop(x).data, x.data)


def test_dropout_scales_in_train_mode():
    drop = Dropout(0.5, rng())
    out = drop(Tensor(np.ones((100, 100)))).data
    assert set(np.unique(out)) <= {0.0, 2.0}
    assert out.mean() == pytest.approx(1.0, abs=0.05)


def test_dropout_bad_rate_rejected():
    with pytest.raises(ValueError):
        Dropout(1.0, rng())


@ENGINES
def test_grucell_updates_state(fused):
    cell = GRUCell(2, 4, rng())
    hidden = Tensor(np.zeros((3, 4)))
    with kernels.use(fused):
        out = cell(Tensor(np.ones((3, 2))), hidden)
    assert out.shape == (3, 4)
    assert not np.array_equal(out.data, hidden.data)


@ENGINES
def test_adam_minimizes_quadratic(fused):
    parameter = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    optimizer = Adam([parameter], learning_rate=0.1, weight_decay=0.0)
    with kernels.use(fused):
        for _ in range(200):
            optimizer.zero_grad()
            loss = (parameter * parameter).sum()
            loss.backward()
            optimizer.step()
    assert np.abs(parameter.data).max() < 1e-2


def test_adam_requires_parameters():
    with pytest.raises(ValueError):
        Adam([])


def test_positional_encoding_shape_and_range():
    encoding = positional_encoding(50, 16)
    assert encoding.shape == (50, 16)
    assert np.abs(encoding).max() <= 1.0
    assert not np.allclose(encoding[0], encoding[1])


def test_attention_output_shape():
    attention = MultiHeadAttention(8, 2, rng())
    x = Tensor(np.random.default_rng(2).normal(0, 1, (3, 5, 8)))
    assert attention(x, x, x).shape == (3, 5, 8)


def test_attention_rejects_bad_head_count():
    with pytest.raises(ValueError):
        MultiHeadAttention(8, 3, rng())


def test_causal_mask_blocks_future():
    attention = MultiHeadAttention(8, 2, rng())
    source = np.random.default_rng(3).normal(0, 1, (1, 6, 8))
    changed = source.copy()
    changed[0, -1] += 10.0  # only the last position differs
    mask = causal_mask(6)
    out_a = attention(Tensor(source), Tensor(source), Tensor(source), mask).data
    out_b = attention(Tensor(changed), Tensor(changed), Tensor(changed), mask).data
    # positions before the last must be unaffected by the future change
    assert np.allclose(out_a[0, :-1], out_b[0, :-1])
    assert not np.allclose(out_a[0, -1], out_b[0, -1])


def test_probsparse_matches_shapes_and_differs_from_full():
    full = MultiHeadAttention(8, 2, rng())
    sparse = ProbSparseAttention(8, 2, rng(), factor=1.0)
    x = Tensor(np.random.default_rng(4).normal(0, 1, (2, 30, 8)))
    out_full = full(x, x, x)
    out_sparse = sparse(x, x, x)
    assert out_sparse.shape == out_full.shape
    assert not np.allclose(out_sparse.data, out_full.data)


def test_probsparse_gradients_flow():
    sparse = ProbSparseAttention(8, 2, rng(), factor=1.0)
    x = Tensor(np.random.default_rng(5).normal(0, 1, (1, 10, 8)),
               requires_grad=True)
    loss = mse_loss(sparse(x, x, x), np.zeros((1, 10, 8)))
    loss.backward()
    assert x.grad is not None
    assert np.any(x.grad != 0)
