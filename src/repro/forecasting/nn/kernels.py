"""Fused autograd kernels for the deep forecasting hot path.

The reference engine in :mod:`repro.forecasting.nn.tensor` builds one graph
node per primitive op, so a single GRU cell costs ~20 Python-level nodes and
a 96-step encoder costs thousands per batch.  The kernels here collapse each
structural unit (affine map, affine+ReLU, GRU cell, whole GRU encoder sweep)
into ONE node whose backward closure replays the reference accumulation
sequence exactly — same numpy expressions, same `_accumulate` call order into
every shared tensor — so results are byte-identical to the unfused graph.
``tests/forecasting/test_kernels.py`` pins that equivalence.  One kernel
builds no node at all: :func:`dlinear_mse_gradients` is DLinear's whole
training step (forward, MSE loss, backward) in closed form, writing the
head gradients the graph would accumulate; :func:`fused_dlinear` is the
forward it shares with DLinear's graph-free inference.

Why byte-identity holds: elementwise numpy ops and matmul are exactly
rounded, so value equality reduces to executing the same expressions; and
floating-point accumulation order into multi-consumer tensors (recurrent
state, decoder feedback, shared weights) is preserved because each fused
node occupies its chain-tail's position in the topological replay and no
other backward closure runs between the tail and the ops it absorbed.

Fused is the default on every thread, including batcher and pool threads
started later.  :func:`use` is a thread-local switch: ``use(False)`` runs
the unfused graph on the current thread only, which is how the reference
twins in :mod:`repro.reference` execute the original per-op code.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from repro.forecasting.nn.tensor import Tensor, _graph_state, _unbroadcast


class _State(threading.local):
    def __init__(self) -> None:
        self.enabled = True


_state = _State()


def enabled() -> bool:
    """True when fused kernels are active on this thread."""
    return _state.enabled


@contextmanager
def use(flag: bool = True):
    """Enable (or disable) fused kernels within the block."""
    previous = _state.enabled
    _state.enabled = bool(flag)
    try:
        yield
    finally:
        _state.enabled = previous


def _child(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    child = Tensor(data)
    child.requires_grad = (_graph_state.build
                           and any(p.requires_grad for p in parents))
    if child.requires_grad:
        child._parents = parents
        child._backward = backward
    return child


def _adopt(tensor: Tensor, g: np.ndarray) -> None:
    """Reference ``_accumulate`` minus the defensive first-contribution copy.

    Every kernel gradient is a freshly computed array (or a view into one)
    that nothing mutates in place afterwards, so adopting it directly is
    value-identical to the reference's ``np.array(g)`` copy.
    """
    if tensor.grad is None:
        tensor.grad = g
    else:
        tensor.grad = tensor.grad + g


def fused_linear(x: Tensor, weight: Tensor, bias: Tensor | None) -> Tensor:
    """One node for ``x @ W + b`` (reference: matmul node + add node)."""
    if bias is None:
        out_data = np.matmul(x.data, weight.data)
    else:
        out_data = np.matmul(x.data, weight.data) + bias.data

    def backward(g: np.ndarray) -> None:
        # Reference replay: add-node first (bias), then matmul-node (x, W).
        if bias is not None and bias.requires_grad:
            _adopt(bias, _unbroadcast(g, bias.shape))
        if x.requires_grad:
            _adopt(x,
                _unbroadcast(np.matmul(g, weight.data.swapaxes(-1, -2)),
                             x.shape))
        if weight.requires_grad:
            _adopt(weight,
                _unbroadcast(np.matmul(x.data.swapaxes(-1, -2), g),
                             weight.shape))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _child(out_data, parents, backward)


def fused_linear_relu(x: Tensor, weight: Tensor, bias: Tensor | None) -> Tensor:
    """One node for ``relu(x @ W + b)`` (reference: 3 nodes)."""
    pre = np.matmul(x.data, weight.data)
    if bias is not None:
        pre = pre + bias.data
    mask = pre > 0

    def backward(g: np.ndarray) -> None:
        gz = g * mask
        if bias is not None and bias.requires_grad:
            _adopt(bias, _unbroadcast(gz, bias.shape))
        if x.requires_grad:
            _adopt(x,
                _unbroadcast(np.matmul(gz, weight.data.swapaxes(-1, -2)),
                             x.shape))
        if weight.requires_grad:
            _adopt(weight,
                _unbroadcast(np.matmul(x.data.swapaxes(-1, -2), gz),
                             weight.shape))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _child(pre * mask, parents, backward)


def _gru_forward(x: np.ndarray, hidden: np.ndarray, wg: np.ndarray,
                 bg: np.ndarray, wc: np.ndarray, bc: np.ndarray,
                 size: int) -> tuple[np.ndarray, ...]:
    """Forward pass of one GRU cell with the reference expressions."""
    joined = np.concatenate([x, hidden], axis=-1)
    gates = 1.0 / (1.0 + np.exp(-(np.matmul(joined, wg) + bg)))
    update = gates[..., :size]
    reset = gates[..., size:]
    candidate_input = np.concatenate([x, reset * hidden], axis=-1)
    candidate = np.tanh(np.matmul(candidate_input, wc) + bc)
    out = update * hidden + (1.0 - update) * candidate
    return out, joined, gates, update, reset, candidate_input, candidate


def _gru_backward(g: np.ndarray, x: np.ndarray, hidden: np.ndarray,
                  wg: np.ndarray, wc: np.ndarray, joined: np.ndarray,
                  gates: np.ndarray, update: np.ndarray, reset: np.ndarray,
                  candidate_input: np.ndarray, candidate: np.ndarray,
                  size: int) -> tuple[np.ndarray, ...]:
    """Gradients of one GRU cell, in the reference accumulation order.

    Returns ``(bc, wc, x_candidate, hidden_reset, hidden_update, bg, wg,
    x_joined, hidden_joined)`` — ``hidden`` receives three separate
    contributions and ``x`` two, and the reference adds them one at a time,
    so they must stay separate (fp addition is non-associative).  The tuple
    order is the reference replay order.
    """
    width = x.shape[-1]
    # (1-update)*candidate branch, then tanh, down to the candidate affine.
    grad_candidate = g * (1.0 - update)
    grad_affine_c = grad_candidate * (1.0 - candidate ** 2)
    grad_bc = grad_affine_c.sum(axis=0)
    grad_ci = np.matmul(grad_affine_c, wc.swapaxes(-1, -2))
    grad_wc = np.matmul(candidate_input.swapaxes(-1, -2), grad_affine_c)
    grad_x_from_candidate = grad_ci[..., :width]
    grad_rh = grad_ci[..., width:]
    grad_reset = grad_rh * hidden
    grad_hidden_from_reset = grad_rh * reset
    # update-gate contributions: -(g*candidate) first, then g*hidden,
    # exactly as the neg node then the update*hidden mul node replay.
    grad_update = -(g * candidate)
    grad_update = grad_update + g * hidden
    grad_hidden_from_update = g * update
    # Reassemble the gate gradient as the reference does: a zeros array per
    # half, then one add.  (The zeros matter: adding the halves through
    # zeros normalizes -0.0 exactly like the reference np.add.at replay.)
    full_reset = np.zeros_like(gates)
    full_reset[..., size:] = grad_reset
    full_update = np.zeros_like(gates)
    full_update[..., :size] = grad_update
    grad_gates = full_reset + full_update
    grad_affine_g = grad_gates * gates * (1.0 - gates)
    grad_bg = grad_affine_g.sum(axis=0)
    grad_joined = np.matmul(grad_affine_g, wg.swapaxes(-1, -2))
    grad_wg = np.matmul(joined.swapaxes(-1, -2), grad_affine_g)
    return (grad_bc, grad_wc, grad_x_from_candidate, grad_hidden_from_reset,
            grad_hidden_from_update, grad_bg, grad_wg,
            grad_joined[..., :width], grad_joined[..., width:])


def fused_gru_cell(x: Tensor, hidden: Tensor, gates_weight: Tensor,
                   gates_bias: Tensor, candidate_weight: Tensor,
                   candidate_bias: Tensor, size: int) -> Tensor:
    """One node for a whole GRU cell (reference: ~16 nodes)."""
    out, joined, gates, update, reset, candidate_input, candidate = (
        _gru_forward(x.data, hidden.data, gates_weight.data, gates_bias.data,
                     candidate_weight.data, candidate_bias.data, size))

    def backward(g: np.ndarray) -> None:
        (grad_bc, grad_wc, grad_x_candidate, grad_h_reset, grad_h_update,
         grad_bg, grad_wg, grad_x_joined, grad_h_joined) = _gru_backward(
            g, x.data, hidden.data, gates_weight.data, candidate_weight.data,
            joined, gates, update, reset, candidate_input, candidate, size)
        # Interleave to match the reference replay: candidate branch first,
        # then x/hidden from the candidate concat, the two state products,
        # and finally the gate affine + joined concat.
        if candidate_bias.requires_grad:
            _adopt(candidate_bias, grad_bc)
        if candidate_weight.requires_grad:
            _adopt(candidate_weight, grad_wc)
        if x.requires_grad:
            _adopt(x, grad_x_candidate)
        if hidden.requires_grad:
            _adopt(hidden, grad_h_reset)
            _adopt(hidden, grad_h_update)
        if gates_bias.requires_grad:
            _adopt(gates_bias, grad_bg)
        if gates_weight.requires_grad:
            _adopt(gates_weight, grad_wg)
        if x.requires_grad:
            _adopt(x, grad_x_joined)
        if hidden.requires_grad:
            _adopt(hidden, grad_h_joined)

    parents = (x, hidden, gates_weight, gates_bias, candidate_weight,
               candidate_bias)
    return _child(out, parents, backward)


def fused_gru_sequence(x: Tensor, state: Tensor, gates_weight: Tensor,
                       gates_bias: Tensor, candidate_weight: Tensor,
                       candidate_bias: Tensor, size: int) -> Tensor:
    """One node for an entire encoder sweep over ``x`` of shape (B, L).

    Each step consumes column ``t`` as a (B, 1) input.  Only valid when
    neither ``x`` nor the initial state requires gradients (always true for
    training batches, which enter the graph as constants); callers must
    check.  Backward replays the cells in reverse time order, accumulating
    into the shared weights once per step exactly as the unfused graph does.
    """
    if x.requires_grad or state.requires_grad:
        raise ValueError("fused_gru_sequence needs constant inputs")
    data = x.data
    length = data.shape[1]
    hidden = state.data
    states = [hidden]  # state BEFORE each step
    stash = []
    for t in range(length):
        step = data[:, t:t + 1]
        hidden, joined, gates, update, reset, candidate_input, candidate = (
            _gru_forward(step, hidden, gates_weight.data, gates_bias.data,
                         candidate_weight.data, candidate_bias.data, size))
        states.append(hidden)
        stash.append((step, joined, gates, update, reset, candidate_input,
                      candidate))

    def backward(g: np.ndarray) -> None:
        grad_state = g
        for t in range(length - 1, -1, -1):
            step, joined, gates, update, reset, candidate_input, candidate = (
                stash[t])
            (grad_bc, grad_wc, _grad_x_candidate, grad_h_reset, grad_h_update,
             grad_bg, grad_wg, _grad_x_joined, grad_h_joined) = _gru_backward(
                grad_state, step, states[t], gates_weight.data,
                candidate_weight.data, joined, gates, update, reset,
                candidate_input, candidate, size)
            if candidate_bias.requires_grad:
                _adopt(candidate_bias, grad_bc)
            if candidate_weight.requires_grad:
                _adopt(candidate_weight, grad_wc)
            # the previous state's gradient: three contributions, added one
            # at a time exactly as the reference `_accumulate` replay does
            grad_state = grad_h_reset + grad_h_update
            if gates_bias.requires_grad:
                _adopt(gates_bias, grad_bg)
            if gates_weight.requires_grad:
                _adopt(gates_weight, grad_wg)
            grad_state = grad_state + grad_h_joined

    parents = (gates_weight, gates_bias, candidate_weight, candidate_bias)
    return _child(states[-1], parents, backward)


def fused_nbeats_block(x: Tensor, stack: list, backcast_head,
                       forecast_head, skip_backcast: bool = False
                       ) -> tuple[Tensor | None, Tensor]:
    """One N-BEATS block (FC stack + two heads) as two coupled graph nodes.

    Returns ``(backcast, forecast)``.  The reference replay runs the
    backcast head's backward strictly before the forecast head's (the
    residual chain is visited deeper than the forecast sum), so the
    backcast node only stashes its hidden-state gradient; the forecast
    node combines the two head contributions in reference order
    (backcast first) and replays the stack.  With ``skip_backcast`` the
    backcast output is neither computed nor returned — valid for the last
    block, whose backcast the reference computes but never consumes.
    """
    hidden = x.data
    hiddens = [hidden]
    masks = []
    for layer in stack:
        pre = np.matmul(hidden, layer.weight.data)
        if layer.bias is not None:
            pre = pre + layer.bias.data
        mask = pre > 0
        hidden = pre * mask
        hiddens.append(hidden)
        masks.append(mask)

    stack_params: list[Tensor] = []
    for layer in stack:
        stack_params.append(layer.weight)
        if layer.bias is not None:
            stack_params.append(layer.bias)

    def stack_backward(gh: np.ndarray) -> None:
        for i in range(len(stack) - 1, -1, -1):
            layer = stack[i]
            gz = gh * masks[i]
            if layer.bias is not None and layer.bias.requires_grad:
                _adopt(layer.bias, _unbroadcast(gz, layer.bias.shape))
            if i > 0:
                gh = np.matmul(gz, layer.weight.data.swapaxes(-1, -2))
            elif x.requires_grad:
                # reference order: the first layer's input gradient lands
                # before its weight gradient
                _adopt(x, np.matmul(gz, layer.weight.data.swapaxes(-1, -2)))
            if layer.weight.requires_grad:
                _adopt(layer.weight,
                    np.matmul(hiddens[i].swapaxes(-1, -2), gz))

    pending: dict[str, np.ndarray] = {}

    backcast_tensor: Tensor | None = None
    if not skip_backcast:
        backcast_data = np.matmul(hidden, backcast_head.weight.data)
        if backcast_head.bias is not None:
            backcast_data = backcast_data + backcast_head.bias.data

        def backward_backcast(g: np.ndarray) -> None:
            bias = backcast_head.bias
            if bias is not None and bias.requires_grad:
                _adopt(bias, _unbroadcast(g, bias.shape))
            pending["hidden"] = np.matmul(
                g, backcast_head.weight.data.swapaxes(-1, -2))
            if backcast_head.weight.requires_grad:
                _adopt(backcast_head.weight,
                    np.matmul(hidden.swapaxes(-1, -2), g))

        backcast_parents = [x, backcast_head.weight]
        if backcast_head.bias is not None:
            backcast_parents.append(backcast_head.bias)
        backcast_tensor = _child(backcast_data, tuple(backcast_parents),
                                 backward_backcast)

    forecast_data = np.matmul(hidden, forecast_head.weight.data)
    if forecast_head.bias is not None:
        forecast_data = forecast_data + forecast_head.bias.data

    def backward_forecast(g: np.ndarray) -> None:
        bias = forecast_head.bias
        if bias is not None and bias.requires_grad:
            _adopt(bias, _unbroadcast(g, bias.shape))
        grad_forecast_hidden = np.matmul(
            g, forecast_head.weight.data.swapaxes(-1, -2))
        if forecast_head.weight.requires_grad:
            _adopt(forecast_head.weight,
                np.matmul(hidden.swapaxes(-1, -2), g))
        grad_backcast_hidden = pending.pop("hidden", None)
        if grad_backcast_hidden is None:
            gh = grad_forecast_hidden
        else:
            gh = grad_backcast_hidden + grad_forecast_hidden
        stack_backward(gh)

    forecast_parents = [x] + stack_params + [forecast_head.weight]
    if forecast_head.bias is not None:
        forecast_parents.append(forecast_head.bias)
    forecast_tensor = _child(forecast_data, tuple(forecast_parents),
                             backward_forecast)
    return backcast_tensor, forecast_tensor


def fused_mse_loss(prediction: Tensor, target: np.ndarray) -> Tensor:
    """One node for the reference MSE chain (sub, square, sum, scale).

    ``target`` must be a constant array; the reference graph's target-side
    negation node carries no gradient, so only the prediction branch needs
    replaying: scale-node, sum-node (broadcast), square-node (two identical
    contributions into the difference), difference-node pass-through.
    """
    target_data = np.asarray(target, dtype=np.float64)
    difference = prediction.data + (-target_data)
    squared = difference * difference
    scale = np.asarray(1.0 / float(squared.size), dtype=np.float64)

    def backward(g: np.ndarray) -> None:
        if not prediction.requires_grad:
            return
        spread = np.broadcast_to(g * scale, squared.shape).copy()
        contribution = spread * difference
        _adopt(prediction, contribution + contribution)

    return _child(squared.sum() * scale, (prediction,), backward)


def fused_dlinear(trend: np.ndarray, remainder: np.ndarray, trend_head,
                  remainder_head) -> np.ndarray:
    """DLinear's prediction ``trend @ Wt + bt + (remainder @ Wr + br)``.

    Forward only, on plain arrays: it builds no node, so the network
    calls it only when no graph is being built (``no_grad``), and
    :func:`dlinear_mse_gradients` calls it for the training step.  The
    expressions are those of the two Linear heads and their sum.
    """
    trend_part = np.matmul(trend, trend_head.weight.data)
    if trend_head.bias is not None:
        trend_part = trend_part + trend_head.bias.data
    remainder_part = np.matmul(remainder, remainder_head.weight.data)
    if remainder_head.bias is not None:
        remainder_part = remainder_part + remainder_head.bias.data
    return trend_part + remainder_part


def dlinear_mse_gradients(trend: np.ndarray, remainder: np.ndarray,
                          target: np.ndarray, trend_head,
                          remainder_head) -> None:
    """Set both DLinear heads' gradients of the batch MSE, with no graph.

    The closed form of the reference graph's forward (the two Linear
    heads and their sum, :func:`fused_dlinear`), MSE loss and
    ``backward``: the loss's gradient ``2 * scale * difference`` (written
    as :func:`fused_mse_loss` writes it, ``c + c`` with ``c = scale *
    difference``), then each head's bias and weight gradient from that.
    Every head parameter receives exactly one contribution, so setting
    ``grad`` equals the graph's accumulation into a cleared gradient.
    No Tensor node, closure or topological sort is built; the loss value
    itself is never needed.  ``trend`` and ``remainder`` are constant
    batch rows, as in training.
    """
    difference = fused_dlinear(trend, remainder, trend_head,
                               remainder_head) + (
        -np.asarray(target, dtype=np.float64))
    scale = np.float64(1.0 / float(difference.size))
    contribution = difference * scale
    g = contribution + contribution
    for head, source in ((remainder_head, remainder), (trend_head, trend)):
        if head.bias is not None:
            head.bias.grad = _unbroadcast(g, head.bias.shape)
        head.weight.grad = np.matmul(source.swapaxes(-1, -2), g)
