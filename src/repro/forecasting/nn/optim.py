"""Adam optimizer (Kingma & Ba, 2015) with decoupled weight decay.

Section 3.4: learning rate 0.001 and weight decay 0.0001 are the paper's
defaults for every deep model.

Two step implementations share the same arithmetic: the reference
per-parameter loop of the unfused engine (see
:func:`repro.forecasting.nn.kernels.use`), and the default fused path
that runs the identical elementwise update chain over one flat buffer
covering every parameter.
Elementwise ops are exactly rounded per element, so packing parameters
side by side changes nothing about the produced bits — the fused path just
replaces ~10 small ufunc calls per parameter with ~13 large ones total,
plus cheap gather/scatter memcpys.
"""

from __future__ import annotations

import numpy as np

from repro.forecasting.nn import kernels
from repro.forecasting.nn.tensor import Tensor


class Adam:
    """Adam with the paper's default hyperparameters."""

    def __init__(self, parameters: list[Tensor], learning_rate: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 epsilon: float = 1e-8, weight_decay: float = 1e-4) -> None:
        if not parameters:
            raise ValueError("optimizer needs at least one parameter")
        self.parameters = parameters
        self.learning_rate = learning_rate
        self.beta1, self.beta2 = betas
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in parameters]
        self._v = [np.zeros_like(p.data) for p in parameters]
        self._flat: dict | None = None

    def zero_grad(self) -> None:
        """Clear accumulated gradients on all managed parameters."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        """Apply one Adam update using the current gradients."""
        self._step += 1
        if kernels.enabled():
            self._step_fused()
            return
        # The reference loop rebinds parameter.data and _m/_v below, so any
        # flat-buffer views from a previous fused step are stale.
        self._flat = None
        correction1 = 1.0 - self.beta1 ** self._step
        correction2 = 1.0 - self.beta2 ** self._step
        for i, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            gradient = parameter.grad
            if self.weight_decay:
                gradient = gradient + self.weight_decay * parameter.data
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * gradient
            self._v[i] = (self.beta2 * self._v[i]
                          + (1.0 - self.beta2) * gradient ** 2)
            m_hat = self._m[i] / correction1
            v_hat = self._v[i] / correction2
            parameter.data = parameter.data - self.learning_rate * m_hat / (
                np.sqrt(v_hat) + self.epsilon)

    # -- fused flat-buffer path -----------------------------------------------

    # Chunk length for the fused update chain: ~17 ufunc passes re-touch the
    # same elements, so walking the buffer in L2-sized pieces keeps them in
    # cache instead of streaming the whole buffer from memory 17 times.
    _BLOCK = 16384

    def _ensure_flat(self, present: tuple[int, ...]) -> dict:
        """(Re)build the flat layout over the parameters that have gradients.

        Parameter data and the moment buffers ``_m``/``_v`` become views
        into the flat arrays, so the update needs no per-parameter gather or
        scatter of values.  Anything that rebinds ``parameter.data`` (a
        reference-mode step, ``load_state`` restoring the best epoch) breaks
        the view relationship; the ``.base`` check below notices and
        rebuilds from the current values.
        """
        flat = self._flat
        if flat is not None and flat["present"] == present:
            fp = flat["p"]
            for i in present:
                if self.parameters[i].data.base is not fp:
                    break
            else:
                return flat
        bounds = [0]
        for i in present:
            bounds.append(bounds[-1] + self.parameters[i].data.size)
        total = bounds[-1]
        flat = {
            "present": present,
            "p": np.empty(total), "g": np.empty(total),
            "m": np.empty(total), "v": np.empty(total),
            "t1": np.empty(total), "t2": np.empty(total),
            "slices": [],
        }
        for slot, i in enumerate(present):
            begin, end = bounds[slot], bounds[slot + 1]
            parameter = self.parameters[i]
            shape = parameter.data.shape
            flat["p"][begin:end] = parameter.data.ravel()
            flat["m"][begin:end] = self._m[i].ravel()
            flat["v"][begin:end] = self._v[i].ravel()
            parameter.data = flat["p"][begin:end].reshape(shape)
            self._m[i] = flat["m"][begin:end].reshape(shape)
            self._v[i] = flat["v"][begin:end].reshape(shape)
            flat["slices"].append((begin, end))
        self._flat = flat
        return flat

    def _step_fused(self) -> None:
        present = tuple(i for i, p in enumerate(self.parameters)
                        if p.grad is not None)
        if not present:
            return
        flat = self._ensure_flat(present)
        fg = flat["g"]
        for (begin, end), i in zip(flat["slices"], present):
            fg[begin:end] = self.parameters[i].grad.ravel()
        correction1 = 1.0 - self.beta1 ** self._step
        correction2 = 1.0 - self.beta2 ** self._step
        total = fg.size
        for start in range(0, total, self._BLOCK):
            piece = slice(start, min(start + self._BLOCK, total))
            fp, gb = flat["p"][piece], fg[piece]
            fm, fv = flat["m"][piece], flat["v"][piece]
            t1, t2 = flat["t1"][piece], flat["t2"][piece]
            # the reference per-parameter expressions, over the flat buffer
            if self.weight_decay:
                np.multiply(fp, self.weight_decay, out=t1)
                np.add(gb, t1, out=gb)
            np.multiply(fm, self.beta1, out=fm)
            np.multiply(gb, 1.0 - self.beta1, out=t1)
            np.add(fm, t1, out=fm)
            np.multiply(fv, self.beta2, out=fv)
            # np.square, not np.power: ``gradient ** 2`` resolves to the
            # square ufunc via the scalar-power fast path, and power's
            # generic loop is ~20x slower for the same bits (x*x, exactly
            # rounded either way).
            np.square(gb, out=t1)
            np.multiply(t1, 1.0 - self.beta2, out=t1)
            np.add(fv, t1, out=fv)
            np.divide(fm, correction1, out=t1)
            np.divide(fv, correction2, out=t2)
            np.sqrt(t2, out=t2)
            np.add(t2, self.epsilon, out=t2)
            np.multiply(t1, self.learning_rate, out=t1)
            np.divide(t1, t2, out=t1)
            np.subtract(fp, t1, out=fp)
