"""The :class:`Tensor` class: numpy data + reverse-mode gradient tape.

Each differentiable operation returns a new ``Tensor`` holding references to
its parents and a ``_backward`` closure that, given the output gradient
already accumulated in ``out.grad``, adds the operand gradients into
``parent.grad``. :meth:`Tensor.backward` runs the closures in reverse
topological order.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd.context import is_grad_enabled

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions.

    numpy broadcasting prepends singleton axes and stretches size-1 axes;
    the adjoint of broadcasting is summation over exactly those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched size-1 axes.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _released() -> None:
    raise RuntimeError(
        "backward() through a graph an earlier backward() already ran: "
        "its tape is released; run the forward pass again"
    )


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything :func:`numpy.asarray` accepts. Floating data is kept in its
        dtype (default ``float64`` for exact gradient checking).
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward_fn", "_parents", "_op")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _op: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype.kind in "iub":  # promote integers/bools for arithmetic
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self._backward_fn: Optional[Callable[[], None]] = None
        self._parents: Tuple[Tensor, ...] = _parents if is_grad_enabled() else ()
        self._op: str = _op

    @property
    def _backward(self) -> Optional[Callable[[], None]]:
        """The closure adding ``self.grad`` into the parents' gradients."""
        return self._backward_fn

    @_backward.setter
    def _backward(self, fn: Optional[Callable[[], None]]) -> None:
        # Every op's closure refers to its output; kept on a tensor no
        # gradient can reach (under no_grad, or off the tape), it would only
        # pin the output and its inputs in a reference cycle until the
        # cyclic collector runs.
        self._backward_fn = fn if self.requires_grad else None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, threshold=8)}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """A tensor sharing data but cut from the tape."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    def _make_child(
        self, data: np.ndarray, parents: Tuple["Tensor", ...], op: str
    ) -> "Tensor":
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _parents=parents, _op=op)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad`` (allocating on first use)."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data, dtype=np.float64)
        self.grad += grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to ones (standard for scalar losses). Gradients
        accumulate into :attr:`grad` of every reachable tensor with
        ``requires_grad=True``.

        The pass then releases the tape: every closure it visited is
        dropped, which breaks the closure-to-output reference cycles so
        the graph is freed as soon as its loss goes out of scope rather
        than when the cyclic collector next runs. A later backward()
        through any of those nodes raises instead of silently adding
        nothing.
        """
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a scalar "
                    f"tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data, dtype=np.float64)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape "
                    f"{self.shape}"
                )

        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        if any(node._backward_fn is _released for node in topo):
            _released()
        if self.grad is None:
            self.grad = np.zeros_like(self.data, dtype=np.float64)
        self.grad += grad
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn()
        for node in topo:
            if node._backward_fn is not None:
                node._backward_fn = _released

    # ------------------------------------------------------------------
    # Binary arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out = self._make_child(self.data + other.data, (self, other), "add")

        def _backward() -> None:
            self._accumulate(_unbroadcast(out.grad, self.shape))
            other._accumulate(_unbroadcast(out.grad, other.shape))

        out._backward = _backward
        return out

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out = self._make_child(self.data - other.data, (self, other), "sub")

        def _backward() -> None:
            self._accumulate(_unbroadcast(out.grad, self.shape))
            other._accumulate(_unbroadcast(-out.grad, other.shape))

        out._backward = _backward
        return out

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out = self._make_child(self.data * other.data, (self, other), "mul")

        def _backward() -> None:
            self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
            other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

        out._backward = _backward
        return out

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out = self._make_child(self.data / other.data, (self, other), "div")

        def _backward() -> None:
            self._accumulate(_unbroadcast(out.grad / other.data, self.shape))
            other._accumulate(
                _unbroadcast(-out.grad * self.data / (other.data**2), other.shape)
            )

        out._backward = _backward
        return out

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ supports scalar exponents only")
        out = self._make_child(self.data**exponent, (self,), "pow")

        def _backward() -> None:
            self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

        out._backward = _backward
        return out

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix product supporting 1-D and (optionally batched) 2-D operands."""
        other = as_tensor(other)
        out = self._make_child(self.data @ other.data, (self, other), "matmul")

        def _backward() -> None:
            a, b, g = self.data, other.data, out.grad
            if a.ndim == 1 and b.ndim == 1:  # inner product -> scalar grad
                self._accumulate(g * b)
                other._accumulate(g * a)
                return
            if a.ndim == 1:  # (k,) @ (..., k, n)
                ga = (np.expand_dims(g, -2) @ np.swapaxes(b, -1, -2)).reshape(
                    b.shape[:-2] + a.shape
                )
                self._accumulate(_unbroadcast(ga, self.shape))
                gb = np.expand_dims(a, -1) @ np.expand_dims(g, -2)
                other._accumulate(_unbroadcast(gb, other.shape))
                return
            if b.ndim == 1:  # (..., m, k) @ (k,)
                ga = np.expand_dims(g, -1) @ np.expand_dims(b, -2)
                self._accumulate(_unbroadcast(ga, self.shape))
                gb = (np.swapaxes(a, -1, -2) @ np.expand_dims(g, -1)).reshape(
                    a.shape[:-2] + b.shape
                )
                other._accumulate(_unbroadcast(gb.sum(axis=tuple(range(gb.ndim - 1))) if gb.ndim > 1 else gb, other.shape))
                return
            self._accumulate(_unbroadcast(g @ np.swapaxes(b, -1, -2), self.shape))
            other._accumulate(_unbroadcast(np.swapaxes(a, -1, -2) @ g, other.shape))

        out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out = self._make_child(np.exp(self.data), (self,), "exp")

        def _backward() -> None:
            self._accumulate(out.grad * out.data)

        out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = self._make_child(np.log(self.data), (self,), "log")

        def _backward() -> None:
            self._accumulate(out.grad / self.data)

        out._backward = _backward
        return out

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        out = self._make_child(np.tanh(self.data), (self,), "tanh")

        def _backward() -> None:
            self._accumulate(out.grad * (1.0 - out.data**2))

        out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic: evaluate each branch only where it
        # cannot overflow.
        x = self.data
        val = np.empty_like(np.asarray(x, dtype=np.float64))
        pos = x >= 0
        val[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        exp_x = np.exp(x[~pos])
        val[~pos] = exp_x / (1.0 + exp_x)
        out = self._make_child(val, (self,), "sigmoid")

        def _backward() -> None:
            self._accumulate(out.grad * out.data * (1.0 - out.data))

        out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        # Single pass over the data; the backward mask (data > 0) is only
        # materialized if backward actually runs. np.maximum(x, 0) is
        # bitwise identical to x * (x > 0) for finite inputs.
        out = self._make_child(np.maximum(self.data, 0.0), (self,), "relu")

        def _backward() -> None:
            self._accumulate(out.grad * (self.data > 0))

        out._backward = _backward
        return out

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out = self._make_child(np.abs(self.data), (self,), "abs")

        def _backward() -> None:
            self._accumulate(out.grad * sign)

        out._backward = _backward
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient is passed only where not saturated."""
        mask = (self.data > low) & (self.data < high)
        out = self._make_child(np.clip(self.data, low, high), (self,), "clip")

        def _backward() -> None:
            self._accumulate(out.grad * mask)

        out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(
        self,
        axis: Optional[Union[int, Tuple[int, ...]]] = None,
        keepdims: bool = False,
    ) -> "Tensor":
        out = self._make_child(
            self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum"
        )

        def _backward() -> None:
            grad = out.grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.ndim for a in axes)
                shape = [1 if i in axes else s for i, s in enumerate(self.shape)]
                grad = grad.reshape(shape)
            self._accumulate(np.broadcast_to(grad, self.shape).copy())

        out._backward = _backward
        return out

    def mean(
        self,
        axis: Optional[Union[int, Tuple[int, ...]]] = None,
        keepdims: bool = False,
    ) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(
        self,
        axis: Optional[Union[int, Tuple[int, ...]]] = None,
        keepdims: bool = False,
    ) -> "Tensor":
        """Biased (population) variance, matching batch-norm's convention."""
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(
        self, axis: Optional[int] = None, keepdims: bool = False
    ) -> "Tensor":
        """Maximum reduction; ties split gradient equally (numpy argmax-free)."""
        data_max = self.data.max(axis=axis, keepdims=True)
        out_data = data_max if keepdims or axis is None else np.squeeze(data_max, axis)
        if axis is None and not keepdims:
            out_data = np.asarray(self.data.max())
        out = self._make_child(out_data, (self,), "max")

        def _backward() -> None:
            mask = (self.data == data_max).astype(np.float64)
            mask /= mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(mask * grad)

        out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make_child(self.data.reshape(shape), (self,), "reshape")

        def _backward() -> None:
            self._accumulate(out.grad.reshape(self.shape))

        out._backward = _backward
        return out

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out = self._make_child(self.data.transpose(axes), (self,), "transpose")
        inverse = np.argsort(axes)

        def _backward() -> None:
            self._accumulate(out.grad.transpose(inverse))

        out._backward = _backward
        return out

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out = self._make_child(self.data[index], (self,), "getitem")

        def _backward() -> None:
            grad = np.zeros_like(self.data, dtype=np.float64)
            np.add.at(grad, index, out.grad)
            self._accumulate(grad)

        out._backward = _backward
        return out

    def broadcast_to(self, shape: Tuple[int, ...]) -> "Tensor":
        """Broadcast to ``shape`` (numpy rules); gradient sums the
        broadcast axes back (the exact adjoint, via ``_unbroadcast``).

        The forward holds a read-only stride-0 view — no copy — so e.g.
        expanding a shared activation over the Monte-Carlo sample axis
        before :func:`concatenate` costs only the concatenation itself.
        """
        shape = tuple(int(s) for s in shape)
        out = self._make_child(
            np.broadcast_to(self.data, shape), (self,), "broadcast"
        )

        def _backward() -> None:
            self._accumulate(_unbroadcast(out.grad, self.shape))

        out._backward = _backward
        return out

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two (spatial) axes symmetrically."""
        if padding == 0:
            return self
        if padding < 0:
            raise ValueError(f"padding must be non-negative, got {padding}")
        pad_width = [(0, 0)] * (self.ndim - 2) + [(padding, padding)] * 2
        out = self._make_child(np.pad(self.data, pad_width), (self,), "pad2d")
        slicer = tuple(
            [slice(None)] * (self.ndim - 2)
            + [slice(padding, -padding), slice(padding, -padding)]
        )

        def _backward() -> None:
            self._accumulate(out.grad[slicer])

        out._backward = _backward
        return out


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a (non-differentiable) :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    requires = any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires, _parents=tuple(tensors), _op="concat")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _backward() -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * data.ndim
            slicer[axis] = slice(int(start), int(stop))
            tensor._accumulate(out.grad[tuple(slicer)])

    out._backward = _backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking of equally-shaped tensors on a new axis."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    requires = any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires, _parents=tuple(tensors), _op="stack")

    def _backward() -> None:
        grads = np.moveaxis(out.grad, axis, 0)
        for tensor, grad in zip(tensors, grads):
            tensor._accumulate(grad)

    out._backward = _backward
    return out
