"""Neural-network modules: parameters, GCN convolution, dropout.

The GCN layer implements Eq. 5 of the paper:

    X' = sigma( D^-1/2 (A + I) D^-1/2 X W )

The normalized adjacency is computed once per packed batch (it is
constant) with :func:`normalize_edges`; the forward pass then only does
sparse @ dense @ W (:func:`repro.nn.batch.batched_forward`).
"""

import numpy as np


class Parameter:
    """A trainable float64 array and the gradient summed into it.

    ``grad`` is ``None`` until the first backward pass adds to it, and
    again after ``zero_grad``.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None


class Module:
    """Base class: parameter and submodule registration."""

    def __init__(self):
        self._parameters = {}
        self._modules = {}

    def register_parameter(self, name, param):
        self._parameters[name] = param
        return param

    def register_module(self, name, module):
        self._modules[name] = module
        return module

    def parameters(self):
        """All trainable parameters, depth-first."""
        params = list(self._parameters.values())
        for module in self._modules.values():
            params.extend(module.parameters())
        return params

    def named_parameters(self, prefix=""):
        """(name, parameter) pairs, depth-first."""
        items = [(prefix + name, param)
                 for name, param in self._parameters.items()]
        for mod_name, module in self._modules.items():
            items.extend(module.named_parameters(f"{prefix}{mod_name}."))
        return items

    def zero_grad(self):
        for param in self.parameters():
            param.grad = None

    def state_dict(self):
        """Copy of all parameter arrays, keyed by dotted name."""
        return {name: param.data.copy()
                for name, param in self.named_parameters()}

    def load_state_dict(self, state):
        named = dict(self.named_parameters())
        missing = set(named) - set(state)
        if missing:
            raise KeyError(f"state dict missing parameters: {sorted(missing)}")
        for name, param in named.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{value.shape} vs {param.data.shape}")
            param.data = value.copy()


def glorot(shape, rng):
    """Glorot/Xavier uniform initialization."""
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def normalize_edges(rows, cols, num_nodes, add_self_loops=True):
    """Symmetric GCN normalization ``D^-1/2 (A + I) D^-1/2`` (CSR).

    The one normalization routine: it builds the whole matrix in a few
    array passes, so a batch's block-diagonal system is normalized as one
    graph.  ``A`` is given as COO edge arrays of unit entries; duplicate
    entries sum, as they do in scipy, so an existing self-loop counts
    twice once ``I`` is added.  Each entry is ``(inv[r] * a) * inv[c]``
    with ``inv = degree ** -1/2`` (0 where the degree is 0), and the
    result has sorted column indices.

    Args:
        rows, cols: int arrays of the ``A`` entries' coordinates.
        num_nodes: matrix size N.
        add_self_loops: add the identity (the paper's ``A + I``).
    """
    # Deferred: importing scipy is most of a process's start-up, and
    # only embedding a graph needs it.
    from scipy import sparse

    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if add_self_loops:
        loops = np.arange(num_nodes, dtype=np.int64)
        rows = np.concatenate([rows, loops])
        cols = np.concatenate([cols, loops])
    # Each value is how often its coordinate occurs.
    keys, counts = np.unique(rows * num_nodes + cols, return_counts=True)
    values = counts.astype(np.float64)
    rows, cols = np.divmod(keys, num_nodes)
    degree = np.bincount(rows, weights=values, minlength=num_nodes)
    inv_sqrt = np.zeros(num_nodes)
    nonzero = degree > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degree[nonzero])
    data = inv_sqrt[rows] * values * inv_sqrt[cols]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
    return sparse.csr_matrix((data, cols, indptr),
                             shape=(num_nodes, num_nodes))


class GCNConv(Module):
    """Graph convolution (Kipf & Welling), Eq. 5 of the paper: holds
    ``W`` and ``b`` of ``A_norm X W + b``."""

    def __init__(self, in_features, out_features, bias=True, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            "weight", Parameter(glorot((in_features, out_features), rng)))
        self.bias = None
        if bias:
            self.bias = self.register_parameter(
                "bias", Parameter(np.zeros(out_features)))


class Dropout(Module):
    """Inverted dropout after each GCN layer, applied by the batched
    forward pass through the masks :meth:`masks` draws."""

    def __init__(self, rate=0.1, rng=None):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng or np.random.default_rng(0)

    def masks(self, sizes, width, layers):
        """Masks for a packed batch: ``(layers, sum(sizes), width)``.

        Returns ``None`` at rate 0.  One RNG draw covers the batch and is
        consumed graph-major, layer-minor -- graph ``g``'s draws form a
        ``(layers, sizes[g], width)`` block -- so a seeded run draws the
        same stream as masking one graph and one layer at a time.
        """
        if self.rate == 0.0:
            return None
        sizes = np.asarray(sizes)
        keep = 1.0 - self.rate
        draws = self._rng.random(layers * width * int(sizes.sum())) < keep
        blocks = np.split(draws, np.cumsum(layers * width * sizes)[:-1])
        stacked = np.concatenate(
            [block.reshape(layers, size, width)
             for block, size in zip(blocks, sizes)], axis=1)
        return stacked.astype(np.float64) / keep
