"""Dense float64 tensors with reverse-mode differentiation.

Everything the model needs is built from a small set of primitives, each of
which carries its own backward closure.  The engine is deliberately simple:
a tape of parent links, a topological sort, and numpy for the arithmetic.
"""

import numpy as np


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    # -- graph construction ------------------------------------------------

    @staticmethod
    def _make(data, parents, backward):
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def backward(self):
        """Populate `.grad` on every reachable tensor with requires_grad."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited and p.requires_grad:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node._backward = None
                node._parents = ()

    def _accum(self, g, owned=False):
        """Add `g` into `.grad`.  The first `g` is stored as 0.0 + g, in g's
        own buffer if no one else holds it (`owned`) and it is laid out as
        `.data` is."""
        if self.grad is not None:
            self.grad += g
            return
        own = (owned and g.flags.writeable and g.shape == self.data.shape
               and g.strides == self.data.strides)
        self.grad = np.add(g, 0.0, out=g if own else np.empty_like(self.data))

    # -- elementwise arithmetic --------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)
        return _binary(self, other, self.data + other.data,
                       lambda g: g, lambda g: g)

    __radd__ = __add__

    def __neg__(self):
        return _unary(self, -self.data, lambda g: -g)

    def __sub__(self, other):
        return self + (-_as_tensor(other))

    def __rsub__(self, other):
        return _as_tensor(other) + (-self)

    def __mul__(self, other):
        other = _as_tensor(other)
        return _binary(self, other, self.data * other.data,
                       lambda g: g * other.data, lambda g: g * self.data)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_tensor(other)
        return _binary(self, other, self.data / other.data,
                       lambda g: g / other.data,
                       lambda g: -g * self.data / other.data ** 2)

    def __rtruediv__(self, other):
        return _as_tensor(other) / self

    def __pow__(self, p):
        assert isinstance(p, (int, float))
        return _unary(self, self.data ** p,
                      lambda g: g * p * self.data ** (p - 1))

    def exp(self):
        out_data = np.exp(self.data)
        return _unary(self, out_data, lambda g: g * out_data)

    def log(self):
        return _unary(self, np.log(self.data), lambda g: g / self.data)

    def abs(self):
        return _unary(self, np.abs(self.data),
                      lambda g: g * np.sign(self.data))

    def relu(self):
        return _unary(self, np.maximum(self.data, 0.0),
                      lambda g: g * (self.data > 0.0))

    def sigmoid(self):
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -500, 500)))
        return _unary(self, out_data,
                      lambda g: g * out_data * (1.0 - out_data))

    def tanh(self):
        out_data = np.tanh(self.data)
        return _unary(self, out_data, lambda g: g * (1.0 - out_data ** 2))

    # -- shape manipulation ------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        out_data = self.data.reshape(shape)

        def bw(g):
            self._accum(g.reshape(old))

        return Tensor._make(out_data, (self,), bw)

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inv = np.argsort(axes)

        def bw(g):
            self._accum(g.transpose(inv))

        return Tensor._make(self.data.transpose(axes), (self,), bw)

    def __getitem__(self, idx):
        out_data = self.data[idx]

        def bw(g):
            full = np.zeros_like(self.data)
            np.add.at(full, idx, g)
            self._accum(full, owned=True)

        return Tensor._make(out_data, (self,), bw)

    # -- reductions --------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def bw(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.data.shape))

        return Tensor._make(out_data, (self,), bw)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            n = self.data.size
        else:
            n = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def _extreme(self, axis, keepdims, fn):
        out_data = fn(self.data, axis=axis, keepdims=keepdims)

        def bw(g):
            ref = fn(self.data, axis=axis, keepdims=True)
            hit = (self.data == ref)
            count = hit.sum(axis=axis, keepdims=True)
            gk = g if (keepdims or axis is None) else np.expand_dims(g, axis)
            self._accum(hit * gk / count)

        return Tensor._make(out_data, (self,), bw)

    def max(self, axis=None, keepdims=False):
        return self._extreme(axis, keepdims, np.max)

    def min(self, axis=None, keepdims=False):
        return self._extreme(axis, keepdims, np.min)

    def std(self, axis=None, keepdims=False, eps=0.0):
        """Population standard deviation."""
        mu = self.mean(axis=axis, keepdims=True)
        var = ((self - mu) ** 2).mean(axis=axis, keepdims=keepdims)
        return (var + eps) ** 0.5

    # -- linear algebra ----------------------------------------------------

    def matmul(self, other):
        other = _as_tensor(other)
        return _binary(self, other, self.data @ other.data,
                       lambda g: g @ np.swapaxes(other.data, -1, -2),
                       lambda g: np.swapaxes(self.data, -1, -2) @ g)

    __matmul__ = matmul


def _unary(x, out_data, dx):
    """Result of a one-operand primitive; `dx(g)` gives x's gradient as a
    new array."""
    return Tensor._make(out_data, (x,), lambda g: x._accum(dx(g), owned=True))


def _binary(a, b, out_data, da, db):
    """Result of a two-operand primitive; `da(g)`/`db(g)` give each operand's
    gradient before un-broadcasting, and run only for an operand that
    requires one."""

    def bw(g):
        for t, dt in ((a, da), (b, db)):
            if t.requires_grad:
                gt = dt(g)
                t._accum(_unbroadcast(gt, t.data.shape), owned=gt is not g)

    return Tensor._make(out_data, (a, b), bw)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def zeros(shape, requires_grad=False):
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


# -- free-standing primitives ---------------------------------------------


def softplus(x):
    """ln(1 + e^x), evaluated in the overflow-free form max(x,0) + log1p(e^-|x|)."""
    x = _as_tensor(x)
    d = x.data
    out_data = np.maximum(d, 0.0) + np.log1p(np.exp(-np.abs(d)))
    sig = 1.0 / (1.0 + np.exp(-np.clip(d, -500, 500)))

    def bw(g):
        x._accum(g * sig)

    return Tensor._make(out_data, (x,), bw)


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accum(piece)

    return Tensor._make(out_data, tuple(tensors), bw)


def embedding(table, indices):
    """Row lookup into `table` (V x D) by an integer index array."""
    table = _as_tensor(table)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise IndexError("embedding index out of range")
    return table[idx]


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize the last axis to zero mean / unit population variance, then affine."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if x.shape[-1] < 1:
        raise ValueError("layer_norm needs a nonempty last axis")
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered ** 2).mean(axis=-1, keepdims=True)
    normed = centered * (var + eps) ** -0.5
    return normed * gamma + beta


def conv1d_time(x, kernels, bias=None):
    """Temporal convolution: x (N, C_in, T) with kernels (C_out, C_in, k).

    k must be odd; symmetric zero padding of (k-1)/2 preserves T.
    """
    x, kernels = _as_tensor(x), _as_tensor(kernels)
    n, c_in, t = x.data.shape
    c_out, c_in2, k = kernels.data.shape
    if k % 2 == 0:
        raise ValueError("kernel width must be odd")
    if c_in != c_in2:
        raise ValueError("channel mismatch")
    pad = (k - 1) // 2
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)  # n,c,t,k
    out_data = np.einsum("nctk,ock->not", win, kernels.data, optimize=True)

    def bw(g):
        if kernels.requires_grad:
            kernels._accum(np.einsum("nctk,not->ock", win, g, optimize=True))
        if x.requires_grad:
            gp = np.pad(g, ((0, 0), (0, 0), (k - 1, k - 1)))
            gwin = np.lib.stride_tricks.sliding_window_view(gp, k, axis=2)
            wrev = kernels.data[:, :, ::-1]
            dxp = np.einsum("nosk,ock->ncs", gwin, wrev, optimize=True)
            x._accum(dxp[:, :, pad:pad + t])

    out = Tensor._make(out_data, (x, kernels), bw)
    if bias is not None:
        out = out + _as_tensor(bias).reshape(1, c_out, 1)
    return out


def attention_softmax(scores, mask):
    """Softmax over the last axis restricted to mask-true key positions.

    Masked positions receive exactly zero weight; each row of valid keys
    sums to one.  A row with no valid key is an error.
    """
    scores = _as_tensor(scores)
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), scores.data.shape)
    if not mask.any(axis=-1).all():
        raise ValueError("attention row with zero valid keys")
    # in place: each row's max is finite, so exp sends masked -inf to 0
    out_data = np.where(mask, scores.data, -np.inf)
    out_data -= out_data.max(axis=-1, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=-1, keepdims=True)

    def bw(g):
        gs = g * out_data
        np.subtract(g, gs.sum(axis=-1, keepdims=True), out=gs)
        gs *= out_data
        scores._accum(gs, owned=True)

    return Tensor._make(out_data, (scores,), bw)


def dropout(x, p, rng, training):
    """Inverted dropout driven by an explicit generator; identity when not training."""
    x = _as_tensor(x)
    if not training or p <= 0.0:
        return x
    keep = (rng.random(x.data.shape) >= p) / (1.0 - p)
    return x * Tensor(keep)


# -- gradient checking ------------------------------------------------------


class GradCheckReport:
    def __init__(self, max_rel_error, worst_index, passed):
        self.max_rel_error = max_rel_error
        self.worst_index = worst_index
        self.passed = passed

    def __repr__(self):
        return (f"GradCheckReport(max_rel_error={self.max_rel_error:.3e}, "
                f"worst_index={self.worst_index}, passed={self.passed})")


def grad_check(f, params, h=1e-5, tol=1e-4, sample=None, rng=None):
    """Compare analytic gradients of scalar f(params) to central differences.

    `params` is a list of Tensors with requires_grad.  `sample` limits the
    number of entries probed per tensor (all entries when None).  The error
    for an entry is |analytic - fd| / max(1e-6, |analytic|, |fd|); the floor
    keeps finite-difference rounding noise on near-zero entries from
    registering as a gradient bug.
    """
    if isinstance(params, Tensor):
        params = [params]
    for p in params:
        p.zero_grad()
    loss = f()
    loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]

    worst = 0.0
    worst_index = -1
    flat_offset = 0
    for p, a in zip(params, analytic):
        n = p.data.size
        if sample is not None and n > sample:
            if rng is None:
                rng = np.random.default_rng(0)
            entries = rng.choice(n, size=sample, replace=False)
        else:
            entries = range(n)
        flat = p.data.reshape(-1)
        aflat = a.reshape(-1)
        for i in entries:
            orig = flat[i]
            flat[i] = orig + h
            fp = f().item()
            flat[i] = orig - h
            fm = f().item()
            flat[i] = orig
            fd = (fp - fm) / (2.0 * h)
            rel = abs(aflat[i] - fd) / max(1e-6, abs(aflat[i]), abs(fd))
            if rel > worst:
                worst = rel
                worst_index = flat_offset + i
        flat_offset += n
    return GradCheckReport(worst, worst_index, worst <= tol)


# -- parameter utilities ----------------------------------------------------


def glorot(rng, shape):
    fan_in = shape[-2] if len(shape) > 1 else shape[-1]
    fan_out = shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def global_grad_norm(params):
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad ** 2).sum())
    return np.sqrt(total)


def clip_grad_norm(params, max_norm):
    norm = global_grad_norm(params)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm
