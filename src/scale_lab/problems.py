"""Desk-scale trainable problems with exact gradients.

Three problems, all with analytically derived gradients so finite
differences can audit them:

* ``quadratic``: f(theta) = 0.5 theta' D theta with a fixed positive
  diagonal of condition number 100 in dimension 50 (deterministic,
  full-batch);
* ``logistic``: binary logistic regression on two seeded Gaussian blobs
  (20 features, 512 samples);
* ``mlp``: a 20 -> 16 tanh -> 2 softmax cross-entropy network on the same
  blobs, gradients by hand-written backprop.

Each loss and gradient evaluates C parameter vectors stacked as (C, d) rows (and
minibatches) at once, which is how the training engine steps cells in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .rng import CounterRng

QUADRATIC_DIM = 50
QUADRATIC_CONDITION = 100.0
BLOB_SAMPLES = 512
BLOB_FEATURES = 20
MLP_HIDDEN = 16

_DATA_STREAM = 0
_INIT_STREAM = 1


@dataclass(frozen=True)
class Problem:
    """A differentiable training problem over a flat parameter vector.

    ``loss`` and ``grad`` take C thetas stacked as (C, d) float rows, one
    theta as (1, d); ``grad``'s minibatch ``idx`` is None (all samples), a
    (batch,) vector for every row or one row per theta, (C, batch).  A call
    returns C losses and a (C, d) gradient whose row i is bit-identical to
    the call on ``thetas[i:i + 1]`` (and ``idx[i]``) alone, because each row
    runs the same BLAS calls and reductions as a single theta.  The loss is
    finite at every finite theta with ``max|theta| < loss_finite_below``.
    """

    n_samples: int                      # 0 means full-batch only
    loss: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray, Optional[np.ndarray]], np.ndarray]
    init_theta: Callable[[int], np.ndarray]
    loss_finite_below: float
    default_eta: float                  # the learning rate of a sweep given none


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) otherwise, so no exp overflows."""
    e = np.exp(-np.abs(z))
    one_plus = 1.0 + e
    return np.where(z >= 0, np.divide(1.0, one_plus), np.divide(e, one_plus, out=e))


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair, one BLAS dot per row as for 1-D vectors."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _sample_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` of a (rows, samples, k) array, bit for bit: each sum still adds the
    samples in order, but over a sample-major copy, one (rows, k) plane at a time."""
    return np.ascontiguousarray(a.transpose(1, 0, 2)).sum(axis=0)


def _finite_below(x: np.ndarray, hidden: int) -> float:
    """B with |bias + x_i . w| and |bias + (hidden tanh units) . w| <= 1e300 if max|theta| < B."""
    return 1e300 / (1.0 + np.abs(x).sum(axis=1).max() + hidden)


def _make_blobs(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two overlapping Gaussian blobs, 256 samples per class."""
    rng = CounterRng(seed, stream=_DATA_STREAM)
    direction = rng.normal(BLOB_FEATURES)
    direction /= np.linalg.norm(direction)
    center = 1.0 * direction
    half = BLOB_SAMPLES // 2
    noise = rng.normal(BLOB_SAMPLES * BLOB_FEATURES).reshape(BLOB_SAMPLES, BLOB_FEATURES)
    x = np.vstack([noise[:half] - center, noise[half:] + center])
    y = np.concatenate([np.zeros(half, dtype=int), np.ones(half, dtype=int)])
    return x, y


def _quadratic(seed: int) -> Problem:
    exponents = np.linspace(0.0, 1.0, QUADRATIC_DIM)
    diag = QUADRATIC_CONDITION ** exponents  # eigenvalues from 1 to the condition number

    def loss(thetas: np.ndarray) -> np.ndarray:
        return 0.5 * _row_dots(thetas, diag * thetas)

    def grad(thetas: np.ndarray, idx: np.ndarray | None = None) -> np.ndarray:
        return diag * thetas

    def init_theta(init_seed: int) -> np.ndarray:
        rng = CounterRng(init_seed, stream=_INIT_STREAM)
        return rng.normal(QUADRATIC_DIM)

    return Problem(n_samples=0, loss=loss, grad=grad, init_theta=init_theta,
                   loss_finite_below=float(np.sqrt(1e300 / diag.sum())), default_eta=0.01)


def _logistic(seed: int) -> Problem:
    x, y = _make_blobs(seed)
    dim = BLOB_FEATURES + 1  # weights + bias

    def _logits(xs: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        # one gemv per row: (n, features) @ (features, 1), plus the bias
        return np.matmul(xs, thetas[:, :-1, None])[..., 0] + thetas[:, -1:]

    def loss(thetas: np.ndarray) -> np.ndarray:
        z = _logits(x, thetas)
        return np.mean(_softplus(z) - y * z, axis=1)

    def grad(thetas: np.ndarray, idx: np.ndarray | None = None) -> np.ndarray:
        xs, ys = (x, y) if idx is None else (np.take(x, idx, axis=0), np.take(y, idx))
        err = _sigmoid(_logits(xs, thetas)) - ys
        g = np.empty_like(thetas)
        g[:, :-1] = np.matmul(np.swapaxes(xs, -1, -2), err[:, :, None])[..., 0] / xs.shape[-2]
        g[:, -1] = np.mean(err, axis=1)
        return g

    def init_theta(init_seed: int) -> np.ndarray:
        rng = CounterRng(init_seed, stream=_INIT_STREAM)
        return 0.1 * rng.normal(dim)

    return Problem(n_samples=BLOB_SAMPLES, loss=loss, grad=grad, init_theta=init_theta,
                   loss_finite_below=_finite_below(x, 0), default_eta=0.01)


def _mlp(seed: int) -> Problem:
    x, y = _make_blobs(seed)
    h, c = MLP_HIDDEN, 2
    d = BLOB_FEATURES
    ends = [0, *accumulate([d * h, h, h * c, c])]  # column bounds of w1, b1, w2, b2
    label_one = y == 1  # labels are 0 or 1
    one_hot = np.eye(c)[y]  # row i is 1.0 at sample i's class, 0.0 at the other

    def _unpack(thetas: np.ndarray):
        rows = thetas.shape[0]
        w1, b1, w2, b2 = (thetas[:, a:b] for a, b in zip(ends, ends[1:]))
        return w1.reshape(rows, d, h), b1, w2.reshape(rows, h, c), b2

    def _forward(thetas: np.ndarray, xs: np.ndarray):
        """Hidden layer, max-shifted logits and their log-partition per sample."""
        w1, b1, w2, b2 = _unpack(thetas)
        hidden = np.matmul(xs, w1)
        hidden += b1[:, None, :]
        np.tanh(hidden, out=hidden)
        shifted = np.matmul(hidden, w2)
        planes = shifted[..., 0], shifted[..., 1]  # views, so each op runs along the samples
        for plane, bias in zip(planes, b2.T):
            plane += bias[:, None]
        top = np.maximum(*planes)  # two classes: the elementwise max and sum equal the reductions
        for plane in planes:
            plane -= top
        e = np.exp(shifted)
        return hidden, shifted, np.log(e[..., 0] + e[..., 1])

    def loss(thetas: np.ndarray) -> np.ndarray:
        _, shifted, log_z = _forward(thetas, x)
        # log p of each sample's own class
        log_p = np.where(label_one, shifted[..., 1], shifted[..., 0]) - log_z
        return -np.mean(log_p, axis=1)

    def grad(thetas: np.ndarray, idx: np.ndarray | None = None) -> np.ndarray:
        xs, labels = ((x, one_hot) if idx is None
                      else (np.take(x, idx, axis=0), np.take(one_hot, idx, axis=0)))
        n = xs.shape[-2]
        w2t = np.ascontiguousarray(_unpack(thetas)[2].transpose(0, 2, 1))
        hidden, shifted, log_z = _forward(thetas, xs)
        dlogits = np.exp(shifted - log_z[..., None])
        dlogits -= labels  # p - 0.0 == p, so only each sample's own class moves
        dlogits /= n
        g = np.empty_like(thetas)
        dw1, db1, dw2, db2 = _unpack(g)  # views: the backprop writes straight into g
        np.matmul(hidden.transpose(0, 2, 1), dlogits, out=dw2)
        db2[...] = _sample_sums(dlogits)
        slope = np.multiply(hidden, hidden, out=hidden)  # hidden is read no more
        dhidden = np.matmul(dlogits, w2t)
        dhidden *= np.subtract(1.0, slope, out=slope)  # tanh' = 1 - tanh**2
        np.matmul(np.swapaxes(xs, -1, -2), dhidden, out=dw1)
        db1[...] = _sample_sums(dhidden)
        return g

    def init_theta(init_seed: int) -> np.ndarray:
        rng = CounterRng(init_seed, stream=_INIT_STREAM)
        w1 = rng.normal(d * h) / np.sqrt(d)
        b1 = np.zeros(h)
        w2 = rng.normal(h * c) / np.sqrt(h)
        b2 = np.zeros(c)
        return np.concatenate([w1, b1, w2, b2])

    return Problem(n_samples=BLOB_SAMPLES, loss=loss, grad=grad, init_theta=init_theta,
                   loss_finite_below=_finite_below(x, h), default_eta=0.003)


PROBLEMS = {"quadratic": _quadratic, "logistic": _logistic, "mlp": _mlp}


def make_problem(kind: str, seed: int = 0) -> Problem:
    """Build a problem by kind; the seed fixes its synthetic dataset."""
    try:
        factory = PROBLEMS[kind]
    except KeyError:
        raise DomainError(f"unknown problem kind {kind!r}; expected one of {sorted(PROBLEMS)}")
    return factory(seed)
