"""Local Response Normalization (the paper's NORM / LRN layer).

AlexNet/CaffeNet place an across-channel LRN after each of the first two
convolutional blocks.  The paper finds LRN is a powerful error masker: it
divides a faulty activation by a sum of squares over adjacent channels, so
a hugely deviated value is pulled back toward the fault-free cluster
around zero (sections 5.1.4 and 6.1, Figure 7).
"""

from __future__ import annotations

import numpy as np

from repro.dtypes.base import DataType
from repro.nn.layers.base import Layer, Shape

__all__ = ["LRN"]


class LRN(Layer):
    """Across-channel local response normalization (Krizhevsky et al.).

    ``y[c] = x[c] / (k + (alpha / n) * sum_{c' in window(c)} x[c']^2) ** beta``

    Args:
        name: Layer name.
        n: Window size across channels (AlexNet uses 5).
        alpha: Scale (AlexNet uses 1e-4).
        beta: Exponent (AlexNet uses 0.75).
        k: Additive constant (AlexNet uses 2.0).
    """

    kind = "lrn"

    def __init__(self, name: str, n: int = 5, alpha: float = 1e-4, beta: float = 0.75, k: float = 2.0):
        super().__init__(name)
        if n < 1 or alpha <= 0 or beta <= 0 or k < 0:
            raise ValueError(f"{name}: invalid LRN parameters")
        self.n = n
        self.alpha = alpha
        self.beta = beta
        self.k = k

    def out_shape(self, in_shape: Shape) -> Shape:
        return in_shape

    def out_row_span(self, in_shape: Shape, span: tuple[int, int]) -> tuple[int, int]:
        # Normalization mixes channels, never spatial positions.
        return span

    def _denominator(self, x: np.ndarray) -> np.ndarray:
        c = x.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):
            sq = x * x
        half = self.n // 2
        with np.errstate(over="ignore", invalid="ignore"):
            # Fast path: sliding-window channel sum via a padded
            # cumulative sum (O(c)), computed for every pixel.
            csum = np.cumsum(
                np.pad(sq, ((0, 0), (1, 0), (0, 0), (0, 0))), axis=1, dtype=np.float64
            )
            lo = np.maximum(np.arange(c) - half, 0)
            hi = np.minimum(np.arange(c) + half, c - 1) + 1
            window = csum[:, hi] - csum[:, lo]
        # Robust path for corrupted pixels: a cumulative sum holding an
        # inf (or a value large enough to overflow it) would poison every
        # later window of *that pixel's* channel column with
        # inf - inf = NaN / cancellation; sum the n shifted slices
        # directly for exactly those pixels instead.  Path selection is
        # per pixel — each pixel's window is a function of its own channel
        # column only — so a clean pixel keeps its fast-path bits no
        # matter what other pixels (or batch mates) contain, which is what
        # lets batched and partial-row propagation reproduce a single-trial
        # forward exactly.
        bad = ~np.isfinite(sq)
        if c > self.n:
            # With c <= n every window spans all channels, so overflow of
            # the cumulative sum cannot cancel across window edges; the
            # finite-but-huge trigger only matters for wider stacks.
            bad |= sq >= 1e280
        if bad.any():
            nsel, ysel, xsel = np.nonzero(bad.any(axis=1))
            sq_sel = np.ascontiguousarray(sq[nsel, :, ysel, xsel])  # (m, c)
            win = sq_sel.copy()
            with np.errstate(over="ignore", invalid="ignore"):
                for off in range(1, half + 1):
                    win[:, off:] += sq_sel[:, :-off]
                    win[:, :-off] += sq_sel[:, off:]
            window[nsel, :, ysel, xsel] = win
        with np.errstate(over="ignore", invalid="ignore"):
            return np.power(self.k + (self.alpha / self.n) * window, self.beta)

    def forward(self, x: np.ndarray, dtype: DataType | None = None) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            y = x / self._denominator(x)
        y = np.where(np.isnan(x), x, y)  # corrupted NaN patterns pass through
        return dtype.quantize(y) if dtype is not None else y

    # -- training ------------------------------------------------------------- #
    def forward_train(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        denom = self._denominator(x)
        return x / denom, (x, denom)

    def backward(self, cache: object, dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """LRN gradient.

        With ``s[c] = k + (alpha/n) * sum_{c' in W(c)} x[c']^2`` and
        ``y[c] = x[c] * s[c]^-beta``:

        ``dx[j] = dy[j] * s[j]^-beta
                  - (2*alpha*beta/n) * x[j] * sum_{c: j in W(c)} dy[c] * x[c] * s[c]^(-beta-1)``
        """
        x, denom = cache
        s_pow = denom  # s^beta
        # dy * x * s^(-beta-1); note denom = s^beta so s^(-beta-1) =
        # denom^-1 * s^-1 with s = denom^(1/beta).
        s = np.power(denom, 1.0 / self.beta)
        inner = dy * x / (s_pow * s)
        c = x.shape[1]
        half = self.n // 2
        csum = np.cumsum(
            np.pad(inner, ((0, 0), (1, 0), (0, 0), (0, 0))), axis=1, dtype=np.float64
        )
        lo = np.maximum(np.arange(c) - half, 0)
        hi = np.minimum(np.arange(c) + half, c - 1) + 1
        window = csum[:, hi] - csum[:, lo]  # sum over {c : j in W(c)} by symmetry
        dx = dy / s_pow - (2.0 * self.alpha * self.beta / self.n) * x * window
        return dx, {}
