"""Layer-by-layer micro-benchmarks for the forecasting kernels.

``repro-eval bench --suite forecasting`` measures end-to-end fit/predict
(ARIMA and the cache included), whose ratios mix the fused graph, the
flat-buffer Adam, and fixed setup (scaling, windowing, network init).
This harness isolates the deep-model layers:

- one training step (forward + loss + backward + optimizer) per deep
  model, the registered model vs its ``repro.reference`` twin, on a
  fixed batch,
- the Adam update alone (fused flat-buffer chain vs per-parameter loop)
  at several parameter counts.

Run directly::

    PYTHONPATH=src python benchmarks/perf/bench_forecasting_layers.py
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.bench import best_of


def bench_train_step(repeats: int) -> None:
    from repro import reference
    from repro.forecasting import make
    from repro.forecasting.nn import kernels
    from repro.forecasting.nn.optim import Adam
    from repro.forecasting.nn.tensor import mse_loss

    rng = np.random.default_rng(0)
    batch = rng.standard_normal((32, 96))
    target = rng.standard_normal((32, 24))
    for name in ("DLinear", "GRU", "NBeats"):
        for label, model, fused in (
                ("scalar", reference.make_forecaster(name), False),
                ("kernel", make(name), True)):
            network = model.build_network(np.random.default_rng(0))
            model._network = network
            optimizer = Adam(network.parameters())

            def step():
                with kernels.use(fused):
                    optimizer.zero_grad()
                    prediction = model.forward(model.prepare_windows(batch))
                    loss = (kernels.fused_mse_loss(prediction, target)
                            if fused else mse_loss(prediction, target))
                    loss.backward()
                    optimizer.step()

            seconds = best_of(step, repeats)
            print(f"{name:8s} step {label:6s} {seconds * 1e6:9.1f}us")


def bench_adam(repeats: int) -> None:
    from repro.forecasting.nn import kernels
    from repro.forecasting.nn.optim import Adam
    from repro.forecasting.nn.tensor import Tensor

    rng = np.random.default_rng(0)
    for count, size in ((8, 64), (16, 1024), (16, 8192)):
        for flag in (False, True):
            parameters = [Tensor(rng.standard_normal(size),
                                 requires_grad=True) for _ in range(count)]
            for parameter in parameters:
                parameter.grad = rng.standard_normal(size)
            optimizer = Adam(parameters)

            def step():
                with kernels.use(flag):
                    optimizer.step()

            seconds = best_of(step, repeats)
            label = "fused" if flag else "loop "
            print(f"adam {count:3d}x{size:<6d} {label} "
                  f"{seconds * 1e6:9.1f}us")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    bench_train_step(args.repeats)
    bench_adam(args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
