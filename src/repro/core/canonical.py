"""Canonical linear delay form (eq. 3 of the paper).

A statistical delay (or arrival time) is represented as

    d = a0 + ag * xg + sum_i(ai * xi) + ar * xr

where ``xg`` is the global variation shared by every delay of the whole
design, ``xi`` are the independent components obtained from the PCA
decomposition of the spatially correlated local variation, and ``xr`` is an
independent standard normal specific to this delay (the purely random
component).  All random variables are standard normal; the coefficients
carry the physical scale.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Union

import numpy as np

__all__ = ["CanonicalForm"]

Number = Union[int, float]


class CanonicalForm:
    """A first-order canonical form ``a0 + ag*xg + sum(ai*xi) + ar*xr``.

    Parameters
    ----------
    nominal:
        The mean value ``a0``.
    global_coeff:
        Sensitivity ``ag`` to the single global variation variable ``xg``.
    local_coeffs:
        Sensitivities ``ai`` to the ``n`` independent (PCA) local variables.
        May be empty.
    random_coeff:
        Sensitivity ``ar`` to the delay-private random variable ``xr``.
        Stored as its absolute value; the sign carries no information
        because ``xr`` is symmetric and private to this form.

    The object is immutable; every operation returns a new instance.
    """

    __slots__ = ("_nominal", "_global", "_locals", "_random")

    def __init__(
        self,
        nominal: Number = 0.0,
        global_coeff: Number = 0.0,
        local_coeffs: Optional[Union[Sequence[Number], np.ndarray]] = None,
        random_coeff: Number = 0.0,
    ) -> None:
        self._nominal = float(nominal)
        self._global = float(global_coeff)
        if local_coeffs is None:
            self._locals = np.zeros(0, dtype=float)
        else:
            self._locals = np.asarray(local_coeffs, dtype=float).reshape(-1).copy()
        self._locals.setflags(write=False)
        self._random = abs(float(random_coeff))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _from_owned(
        cls,
        nominal: float,
        global_coeff: float,
        local_coeffs: np.ndarray,
        random_coeff: float,
    ) -> "CanonicalForm":
        """Internal fast constructor that skips argument normalisation.

        ``local_coeffs`` must be a one-dimensional float array the caller
        relinquishes ownership of (it is frozen in place, not copied), and
        ``random_coeff`` must already be non-negative.  Used by the batch
        engine when materialising many forms from stacked arrays.
        """
        self = object.__new__(cls)
        self._nominal = nominal
        self._global = global_coeff
        local_coeffs.setflags(write=False)
        self._locals = local_coeffs
        self._random = random_coeff
        return self

    @classmethod
    def constant(cls, value: Number, num_locals: int = 0) -> "CanonicalForm":
        """A deterministic value expressed as a canonical form."""
        return cls(value, 0.0, np.zeros(num_locals), 0.0)

    @classmethod
    def zero(cls, num_locals: int = 0) -> "CanonicalForm":
        """The additive identity."""
        return cls.constant(0.0, num_locals)

    @classmethod
    def minus_infinity(cls, num_locals: int = 0) -> "CanonicalForm":
        """The identity element of the ``max`` operation."""
        return cls.constant(-math.inf, num_locals)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def nominal(self) -> float:
        """Mean value ``a0``."""
        return self._nominal

    @property
    def mean(self) -> float:
        """Alias of :attr:`nominal` — the form's mean."""
        return self._nominal

    @property
    def global_coeff(self) -> float:
        """Sensitivity ``ag`` to the shared global variable."""
        return self._global

    @property
    def local_coeffs(self) -> np.ndarray:
        """Sensitivities to the independent local (PCA) variables."""
        return self._locals

    @property
    def random_coeff(self) -> float:
        """Sensitivity ``ar`` to the private random variable."""
        return self._random

    @property
    def num_locals(self) -> int:
        """Number of independent local variables this form references."""
        return int(self._locals.shape[0])

    @property
    def variance(self) -> float:
        """Total variance ``ag^2 + sum(ai^2) + ar^2``."""
        return (
            self._global * self._global
            + float(np.dot(self._locals, self._locals))
            + self._random * self._random
        )

    @property
    def std(self) -> float:
        """Standard deviation of the form."""
        return math.sqrt(self.variance)

    @property
    def correlated_variance(self) -> float:
        """Variance excluding the private random component."""
        return self._global * self._global + float(np.dot(self._locals, self._locals))

    @property
    def is_finite(self) -> bool:
        """``True`` unless the nominal value is +/- infinity or NaN."""
        return math.isfinite(self._nominal)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _broadcast_locals(self, other: "CanonicalForm") -> int:
        n = max(self.num_locals, other.num_locals)
        return n

    def _locals_padded(self, n: int) -> np.ndarray:
        if self.num_locals == n:
            return self._locals
        padded = np.zeros(n, dtype=float)
        padded[: self.num_locals] = self._locals
        return padded

    def add(self, other: "CanonicalForm") -> "CanonicalForm":
        """Statistical sum of two canonical forms.

        Corresponding coefficients add; the two private random components
        are merged into a single one by variance matching (they are
        independent of each other), exactly as described in Section II.
        """
        n = self._broadcast_locals(other)
        return CanonicalForm(
            self._nominal + other._nominal,
            self._global + other._global,
            self._locals_padded(n) + other._locals_padded(n),
            math.hypot(self._random, other._random),
        )

    def add_constant(self, value: Number) -> "CanonicalForm":
        """Shift the mean by a deterministic ``value``."""
        return CanonicalForm(
            self._nominal + float(value), self._global, self._locals, self._random
        )

    def scale(self, factor: Number) -> "CanonicalForm":
        """Multiply the whole form by a deterministic ``factor``."""
        factor = float(factor)
        return CanonicalForm(
            self._nominal * factor,
            self._global * factor,
            self._locals * factor,
            abs(self._random * factor),
        )

    def negate(self) -> "CanonicalForm":
        """Return ``-self`` (used for required-time arithmetic)."""
        return self.scale(-1.0)

    def subtract(self, other: "CanonicalForm") -> "CanonicalForm":
        """Statistical difference ``self - other``.

        The private random parts are independent, so their variances add.
        """
        return self.add(other.negate())

    def covariance(self, other: "CanonicalForm") -> float:
        """Covariance with another canonical form.

        Private random components are independent between distinct forms,
        so only the shared global and local variables contribute.
        """
        n = self._broadcast_locals(other)
        return self._global * other._global + float(
            np.dot(self._locals_padded(n), other._locals_padded(n))
        )

    def correlation(self, other: "CanonicalForm") -> float:
        """Pearson correlation coefficient with ``other``."""
        denom = self.std * other.std
        if denom == 0.0:
            return 0.0
        return self.covariance(other) / denom

    def remap_locals(self, matrix: np.ndarray) -> "CanonicalForm":
        """Re-express the local part in a new independent basis.

        ``matrix`` has shape ``(n_old, n_new)`` and maps the old independent
        variables onto linear combinations of the new ones
        (``x_old = matrix @ x_new``).  The local coefficient row vector is
        transformed accordingly: ``a_new = a_old @ matrix``.

        This is the primitive behind the paper's independent-random-variable
        replacement (eq. 19).
        """
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("replacement matrix must be two-dimensional")
        if matrix.shape[0] != self.num_locals:
            raise ValueError(
                "replacement matrix has %d rows but the form has %d local "
                "coefficients" % (matrix.shape[0], self.num_locals)
            )
        new_locals = self._locals @ matrix
        return CanonicalForm(self._nominal, self._global, new_locals, self._random)

    # ------------------------------------------------------------------
    # Evaluation and distribution helpers
    # ------------------------------------------------------------------
    def sample(
        self,
        global_sample: Union[Number, np.ndarray],
        local_samples: Optional[np.ndarray] = None,
        random_sample: Optional[Union[Number, np.ndarray]] = None,
    ) -> np.ndarray:
        """Evaluate the form for given samples of the underlying variables.

        ``global_sample`` is a scalar or length-``k`` vector; ``local_samples``
        has shape ``(num_locals, k)`` (or ``(num_locals,)`` for a single
        sample); ``random_sample`` matches ``global_sample``.  Missing inputs
        default to zero.  Returns an array of ``k`` evaluated values.
        """
        global_sample = np.atleast_1d(np.asarray(global_sample, dtype=float))
        value = self._nominal + self._global * global_sample
        if self.num_locals and local_samples is not None:
            local_samples = np.asarray(local_samples, dtype=float)
            if local_samples.ndim == 1:
                local_samples = local_samples[:, np.newaxis]
            value = value + self._locals @ local_samples[: self.num_locals]
        if random_sample is not None:
            value = value + self._random * np.atleast_1d(
                np.asarray(random_sample, dtype=float)
            )
        return value

    def quantile(self, q: float) -> float:
        """Gaussian quantile of the form (the form is Gaussian by construction)."""
        from scipy.stats import norm

        return float(norm.ppf(q, loc=self._nominal, scale=max(self.std, 1e-300)))

    def cdf(self, value: Union[Number, np.ndarray]) -> np.ndarray:
        """Gaussian CDF of the form evaluated at ``value``."""
        from scipy.stats import norm

        return norm.cdf(np.asarray(value, dtype=float), loc=self._nominal,
                        scale=max(self.std, 1e-300))

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __add__(self, other: Union["CanonicalForm", Number]) -> "CanonicalForm":
        if isinstance(other, CanonicalForm):
            return self.add(other)
        return self.add_constant(other)

    __radd__ = __add__

    def __sub__(self, other: Union["CanonicalForm", Number]) -> "CanonicalForm":
        if isinstance(other, CanonicalForm):
            return self.subtract(other)
        return self.add_constant(-float(other))

    def __neg__(self) -> "CanonicalForm":
        return self.negate()

    def __mul__(self, factor: Number) -> "CanonicalForm":
        return self.scale(factor)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CanonicalForm):
            return NotImplemented
        n = self._broadcast_locals(other)
        return (
            self._nominal == other._nominal
            and self._global == other._global
            and np.array_equal(self._locals_padded(n), other._locals_padded(n))
            and self._random == other._random
        )

    def __hash__(self) -> int:
        return hash((self._nominal, self._global, self._locals.tobytes(), self._random))

    def is_close(self, other: "CanonicalForm", rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """Approximate equality on every coefficient."""
        n = self._broadcast_locals(other)
        return bool(
            np.isclose(self._nominal, other._nominal, rtol=rtol, atol=atol)
            and np.isclose(self._global, other._global, rtol=rtol, atol=atol)
            and np.allclose(
                self._locals_padded(n), other._locals_padded(n), rtol=rtol, atol=atol
            )
            and np.isclose(self._random, other._random, rtol=rtol, atol=atol)
        )

    def __repr__(self) -> str:
        return (
            "CanonicalForm(nominal=%.6g, global=%.6g, locals=%d, random=%.6g, "
            "std=%.6g)" % (
                self._nominal,
                self._global,
                self.num_locals,
                self._random,
                self.std if math.isfinite(self._nominal) else float("nan"),
            )
        )
