"""Dense-network numerics: layer specs, MLP forward/backward, losses, Adam.

Everything runs in float64 numpy. Networks are plain parameter containers so
training stays explicit, seedable, and bit-reproducible; there is no autograd
graph, just hand-written backward passes, which the tests check against
finite differences (grad_check in tests/conftest.py). The teacher, the
student and the inductive classifier are all fitted by the one minibatch-Adam
loop, fit_minibatch; only the generator loops, which step on channel
feedback, live elsewhere.

Each network's parameters live in one flat float64 buffer: every layer's
weights in order, then every layer's biases. Parameters, gradients and the
Adam moments all share that layout, and the per-layer arrays are views of it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

ROLE_TEACHER = "teacher"
ROLE_STUDENT = "student"
ROLE_GENERATOR = "generator"
ROLE_CLASSIFIER = "classifier"
ROLES = (ROLE_TEACHER, ROLE_STUDENT, ROLE_GENERATOR, ROLE_CLASSIFIER)

ACT_LEAKY_RELU = "leaky_relu"
ACT_RELU = "relu"
ACT_IDENTITY = "identity"
ACTIVATIONS = (ACT_LEAKY_RELU, ACT_RELU, ACT_IDENTITY)


@dataclass(frozen=True)
class LayerSpec:
    """One dense layer: in_dim -> out_dim followed by an elementwise activation."""

    in_dim: int
    out_dim: int
    activation: str = ACT_IDENTITY
    slope: float = 0.2

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError(f"layer dims must be >= 1, got {self.in_dim}x{self.out_dim}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not 0.0 < self.slope < 1.0:
            raise ValueError(f"slope must be in (0, 1), got {self.slope}")


def _views(buffer: np.ndarray, layers) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Per-layer weight (in_dim, out_dim) and bias (out_dim,) views of a flat buffer."""
    shapes = [(s.in_dim, s.out_dim) for s in layers] + [(s.out_dim,) for s in layers]
    views, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(buffer[start : start + size].reshape(shape))
        start += size
    return tuple(views[: len(layers)]), tuple(views[len(layers) :])


@dataclass
class MlpParams:
    """Weights/biases of a role-tagged MLP. weights[i] is (in_dim, out_dim).

    The given arrays are copied into one flat buffer, weights first, then
    biases; weights and biases become tuples of views of it, and layers a
    tuple of the specs it was laid out for. Write parameters in place
    (params.weights[0][...] = w): neither an array nor a spec can be replaced.
    """

    role: str
    layers: tuple[LayerSpec, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    seed: int
    buffer: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        self.layers = tuple(self.layers)
        _check_chain(self.layers)
        if len(self.weights) != len(self.layers) or len(self.biases) != len(self.layers):
            raise ValueError("one weight/bias pair per layer required")
        for spec, w, b in zip(self.layers, self.weights, self.biases):
            if w.shape != (spec.in_dim, spec.out_dim):
                raise ValueError(f"weight shape {w.shape} != spec {(spec.in_dim, spec.out_dim)}")
            if b.shape != (spec.out_dim,):
                raise ValueError(f"bias shape {b.shape} != ({spec.out_dim},)")
        self.buffer = np.concatenate([np.ravel(a) for a in (*self.weights, *self.biases)], dtype=np.float64)
        self.weights, self.biases = _views(self.buffer, self.layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def n_params(self) -> int:
        return self.buffer.size

    def copy(self) -> "MlpParams":
        """A net with its own buffer (MlpParams copies what it is given)."""
        return MlpParams(self.role, self.layers, self.weights, self.biases, self.seed)


@dataclass
class MlpGrads:
    """Parameter gradients in the MlpParams layout of the net they were made for.

    weights and biases are tuples of views of buffer, weights first, then
    biases. Made by zeros_like and empty_like; backward_weights fills them.
    """

    buffer: np.ndarray
    layers: tuple[LayerSpec, ...]
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        self.weights, self.biases = _views(self.buffer, self.layers)

    @classmethod
    def zeros_like(cls, params: MlpParams) -> "MlpGrads":
        return cls(np.zeros(params.n_params()), params.layers)

    @classmethod
    def empty_like(cls, params: MlpParams) -> "MlpGrads":
        return cls(np.empty(params.n_params()), params.layers)


@dataclass
class ForwardCache:
    """What the backward pass reads: the batch, then every layer's activation, the output last.

    Layer i reads its input from acts[i] and its slope from acts[i + 1]; no pre-activation is kept.
    """

    acts: list[np.ndarray]
    layers: tuple[LayerSpec, ...]


def _check_chain(layers) -> None:
    if not layers:
        raise ValueError("at least one layer required")
    for a, b in zip(layers, layers[1:]):
        if a.out_dim != b.in_dim:
            raise ValueError(f"layer chain broken: {a.out_dim} -> {b.in_dim}")


def _as_batch(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D batch, got shape {x.shape}")
    return x


def mlp_init(specs: list[LayerSpec], role: str, seed: int) -> MlpParams:
    """Scaled-uniform init: W ~ U(+-sqrt(6/(in+out))), zero biases, seeded."""
    _check_chain(specs)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for spec in specs:
        bound = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        weights.append(rng.uniform(-bound, bound, size=(spec.in_dim, spec.out_dim)))
        biases.append(np.zeros(spec.out_dim))
    return MlpParams(role=role, layers=specs, weights=weights, biases=biases, seed=seed)


def classifier_specs(d_in: int, n_out: int, hidden=(1024, 512), slope: float = 0.2) -> list[LayerSpec]:
    """Leaky-ReLU hidden layers and a linear head (teacher, student, classifier)."""
    dims = [d_in, *hidden, n_out]
    specs = [LayerSpec(a, b, ACT_LEAKY_RELU, slope) for a, b in zip(dims[:-2], dims[1:-1])]
    specs.append(LayerSpec(dims[-2], dims[-1], ACT_IDENTITY))
    return specs


ACTIVATE_BLOCK_ROWS = 256  # rows per temporary of a leaky ReLU


# Leaky ReLU without np.where, bit for bit np.where(z > 0, z, slope * z) and its
# derivative, because 0 < slope < 1: for z > 0, slope * z <= z, so the maximum
# is z; otherwise slope * z >= z, so it is slope * z, and the two are never
# zeros of opposite sign (slope * -0.0 is -0.0). The activation a keeps the
# sign of z (and nan stays nan), so the backward pass reads the slope from a:
# sign(a) is 1, -1, 0 or nan, which fmax(., slope) maps to 1 where z > 0 and to
# slope everywhere else (fmax ignores nan); 1 * g == g and slope * g == g * slope.
# ReLU's a > 0 holds exactly where z > 0.
def _activate(z: np.ndarray, spec: LayerSpec) -> np.ndarray:
    """The activation of z, written over z and returned.

    Leaky ReLU takes its multiply and maximum one block of rows at a time, so
    its only temporary is one block.
    """
    if spec.activation == ACT_LEAKY_RELU:
        tmp = np.empty((min(len(z), ACTIVATE_BLOCK_ROWS), z.shape[1]))
        for start in range(0, len(z), ACTIVATE_BLOCK_ROWS):
            block = z[start : start + ACTIVATE_BLOCK_ROWS]
            a = np.multiply(block, spec.slope, out=tmp[: len(block)])
            np.maximum(block, a, out=block)
        return z
    if spec.activation == ACT_RELU:
        return np.maximum(z, 0.0, out=z)
    return z


def _activation_vjp(g: np.ndarray, a: np.ndarray, spec: LayerSpec) -> np.ndarray:
    """g times the activation's derivative, read from the activation a; builds no derivative."""
    if spec.activation == ACT_LEAKY_RELU:
        d = np.sign(a)
        np.fmax(d, spec.slope, out=d)
        d *= g
        return d
    if spec.activation == ACT_RELU:
        return g * (a > 0.0)
    return g


def mlp_forward(
    params: MlpParams, batch: np.ndarray, cache: bool = True
) -> tuple[np.ndarray, ForwardCache | None]:
    """Run the batch through the net; the cache feeds mlp_backward.

    Each layer's activation is written over its pre-activation (leaky ReLU a
    block of ACTIVATE_BLOCK_ROWS rows at a time). The cache keeps the batch
    and every activation, the returned output among them, so nothing may
    write to either before mlp_backward has read the cache. With cache=False
    no activation outlives the next layer and the cache is None; the output
    has the same bits.
    """
    x = _as_batch(batch)
    if x.shape[1] != params.in_dim:
        raise ValueError(f"batch has {x.shape[1]} cols, net expects {params.in_dim}")
    acts = [x]
    for spec, w, b in zip(params.layers, params.weights, params.biases):
        z = x @ w
        z += b
        x = _activate(z, spec)
        if cache:
            acts.append(x)
    return x, ForwardCache(acts=acts, layers=params.layers) if cache else None


def backward_weights(
    params: MlpParams, cache: ForwardCache, layer_grads: list[np.ndarray], out: MlpGrads | None = None
) -> MlpGrads:
    """Parameter grads (into out, if given) from the cache's layer inputs and
    mlp_backward's per-layer gradients. It reads no weight, so the net may have
    stepped since its forward pass."""
    grads = out if out is not None else MlpGrads.empty_like(params)
    for i, gz in enumerate(layer_grads):
        np.matmul(cache.acts[i].T, gz, out=grads.weights[i])
        gz.sum(axis=0, out=grads.biases[i])
    return grads


def mlp_backward(
    params: MlpParams, cache: ForwardCache, upstream_grad: np.ndarray, input_grad: bool = True
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Backprop upstream_grad (dL/d output) to every layer's dL/d pre-activation,
    first layer first, and dL/d input (None, and not computed, without input_grad).

    backward_weights turns the per-layer gradients into parameter grads.
    """
    if cache.layers != params.layers:
        raise ValueError("cache does not match these params (stale or from another net)")
    g = _as_batch(upstream_grad)
    if g.shape != (cache.acts[0].shape[0], params.out_dim):
        raise ValueError(f"upstream grad shape {g.shape} does not match forward output")
    layer_grads = []
    for i in range(len(params.layers) - 1, -1, -1):
        gz = _activation_vjp(g, cache.acts[i + 1], params.layers[i])
        layer_grads.insert(0, gz)
        if i > 0 or input_grad:
            g = gz @ params.weights[i].T
    return layer_grads, g if input_grad else None


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax (max-shifted)."""
    z = _as_batch(logits)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_vjp(probs: np.ndarray, grad_probs: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. softmax outputs back to the logits."""
    p = _as_batch(probs)
    g = _as_batch(grad_probs)
    inner = (p * g).sum(axis=1, keepdims=True)
    return p * (g - inner)


def loss_ce(probs: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of softmax probs; gradient is w.r.t. the logits."""
    p = _as_batch(probs)
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (p.shape[0],):
        raise ValueError(f"{p.shape[0]} rows but {y.shape} labels")
    _check_labels(y, p.shape[1])
    return _ce_into(p.copy(), y)


def _check_labels(y: np.ndarray, n_classes: int) -> None:
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError("label out of range")


def _ce_into(p: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """loss_ce's value and gradient for checked labels, overwriting p with the gradient.

    sum() / n is what mean() computes, and p[rows, y] = picked - 1 is the
    p[rows, y] -= 1 of a copy: the rows are distinct.
    """
    n = len(y)
    rows = np.arange(n)
    picked = p[rows, y]
    value = float(-(np.log(picked).sum() / n))
    picked -= 1.0
    p[rows, y] = picked
    p /= n
    return value, p


def loss_mse(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared elementwise difference and its gradient w.r.t. pred."""
    a = _as_batch(pred)
    b = _as_batch(target)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    diff = a - b
    return float((diff * diff).sum() / diff.size), 2.0 * diff / diff.size


@dataclass
class AdamState:
    """Adam moment accumulators, flat in the MlpParams.buffer layout."""

    lr: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # two work vectors, so that a step allocates no parameter-sized temporaries
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = np.empty((2, self.m.size))

    @classmethod
    def for_params(cls, params: MlpParams, lr: float = 1e-5, **kw) -> "AdamState":
        n = params.n_params()
        return cls(lr=lr, m=np.zeros(n), v=np.zeros(n), **kw)


def adam_step(params: MlpParams, grads: MlpGrads, state: AdamState) -> tuple[MlpParams, AdamState]:
    """Bias-corrected Adam (Kingma & Ba, arXiv:1412.6980), applied in place.

    Runs on the flat buffers, with the operations of
        m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g g
        param -= lr (m / c1) / (sqrt(v / c2) + eps)
    in that order (a product only swaps its operands, which is exact). Once c1
    rounds to 1.0 the division by it is skipped: m / 1.0 == m exactly.
    """
    if grads.layers != params.layers:
        raise ValueError("grads were made for another net (layer specs differ)")
    g = grads.buffer
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    m, v = state.m, state.v
    tmp, update = state.scratch
    m *= state.beta1
    m += np.multiply(g, 1.0 - state.beta1, out=tmp)
    v *= state.beta2
    np.multiply(g, 1.0 - state.beta2, out=tmp)
    v += np.multiply(tmp, g, out=tmp)
    if c1 == 1.0:
        np.multiply(m, state.lr, out=update)
    else:
        np.divide(m, c1, out=update)
        update *= state.lr
    np.divide(v, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += state.eps
    update /= tmp
    params.buffer -= update
    return params, state


def fit_minibatch(
    params: MlpParams,
    X: np.ndarray,
    loss: Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]],
    epochs: int,
    batch_size: int,
    order: Callable[[int], np.ndarray],
    lr: float,
) -> list[float]:
    """Minibatch Adam over the rows of X that order picks, updating params in place.

    order(epoch) gives that epoch's row ids into X, in visiting order (a
    permutation of all the rows, or of a subset, each minibatch gathered from
    X as it is needed); loss(logits, idx) gives (value, dL/d logits) for the
    rows X[idx]. Returns, per epoch, the row-weighted mean of the loss value.
    """
    state = AdamState.for_params(params, lr=lr)
    grads = MlpGrads.empty_like(params)  # rewritten by every step's backward pass
    history = []
    for epoch in range(epochs):
        perm = order(epoch)
        n = len(perm)
        total = 0.0
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            logits, cache = mlp_forward(params, X[idx])
            value, grad_logits = loss(logits, idx)
            layer_grads, _ = mlp_backward(params, cache, grad_logits, input_grad=False)
            adam_step(params, backward_weights(params, cache, layer_grads, out=grads), state)
            total += value * len(idx)
        history.append(total / n)
    return history


def ce_loss_on(labels: np.ndarray, n_classes: int):
    """fit_minibatch loss: mean cross-entropy of softmax(logits) against labels[idx].

    The labels are checked once, here, against the net's n_classes outputs;
    each step then runs loss_ce's arithmetic only.
    """
    labels = np.asarray(labels, dtype=np.int64)
    _check_labels(labels, n_classes)
    return lambda logits, idx: _ce_into(softmax(logits), labels[idx])
