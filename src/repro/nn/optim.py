"""Gradient-descent optimizers: SGD (the paper's batch GD) and Adam."""

import numpy as np


class Optimizer:
    """Base optimizer over a list of :class:`~repro.nn.layers.Parameter`."""

    def __init__(self, parameters, lr):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.parameters = list(parameters)
        self.lr = lr

    def zero_grad(self):
        for param in self.parameters:
            param.grad = None

    def step(self):
        raise NotImplementedError


class SGD(Optimizer):
    """Plain (batch) gradient descent with optional momentum."""

    def __init__(self, parameters, lr=1e-3, momentum=0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            if self.momentum:
                velocity *= self.momentum
                velocity += param.grad
                param.data -= self.lr * velocity
            else:
                param.data -= self.lr * param.grad


class Adam(Optimizer):
    """Adam (Kingma & Ba) — the practical default for this model."""

    def __init__(self, parameters, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        super().__init__(parameters, lr)
        self.betas = betas
        self.eps = eps
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        self._step += 1
        beta1, beta2 = self.betas
        bias1 = 1.0 - beta1 ** self._step
        bias2 = 1.0 - beta2 ** self._step
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            m *= beta1
            m += (1.0 - beta1) * param.grad
            v *= beta2
            v += (1.0 - beta2) * param.grad ** 2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
