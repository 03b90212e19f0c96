"""Structure-of-arrays batch engine for canonical first-order delay forms.

This is the shared vectorized core behind every propagation engine in the
package: the levelized block-based SSTA of :mod:`repro.timing.propagation`,
the all-pairs analysis of :mod:`repro.timing.allpairs`, the hierarchical
design analysis of :mod:`repro.hier.analysis` and the Monte Carlo samplers
of :mod:`repro.montecarlo`.

SoA layout
----------
A :class:`CanonicalBatch` holds ``N`` canonical forms

    d_i = a0_i + ag_i * xg + sum_k(a_ik * xk) + ar_i * xr_i

as stacked NumPy arrays instead of ``N`` Python objects:

``nominal``       shape ``(N,)``    — the means ``a0``;
``global_coeff``  shape ``(N,)``    — sensitivities to the one global
                                      variable shared by the whole design;
``local_coeffs``  shape ``(N, K)``  — sensitivities to the ``K`` independent
                                      (PCA) local variables, one row per
                                      form;
``random_var``    shape ``(N,)``    — the *variance* ``ar**2`` of each
                                      form's private random part.

Internally the global and the local coefficients are fused into a single
correlated-coefficient matrix ``corr`` of shape ``(N, 1 + K)`` whose column
0 is the global coefficient; ``global_coeff`` and ``local_coeffs`` are
zero-copy views of its columns.  The fused layout is exactly what the
kernels consume: a variance is one ``einsum`` contraction of ``corr`` with
itself plus ``random_var``, a covariance is the same contraction between two
batches, and the Clark maximum becomes a handful of elementwise array
expressions with no per-form Python arithmetic.

The private random part is stored as a variance (not as the coefficient)
because the two hot operations want it that way: summing independent private
parts is a plain addition of variances, and the Clark variance-matching of
the residual is a subtraction.  The square root is only taken when a scalar
:class:`~repro.core.canonical.CanonicalForm` is materialised.

Every kernel is also exposed as a module-level function operating on raw
``(mean, corr, randvar)`` array triples with arbitrary leading batch axes,
so engines with their own array layouts (the all-pairs analysis keeps
``(V, I, 1 + K)`` tensors) share the same code without wrapping their state
in batch objects.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.canonical import CanonicalForm
from repro.core.gaussian import (
    DEGENERATE_THETA,
    normal_cdf,
    normal_cdf_into,
    normal_pdf,
    normal_pdf_into,
)

__all__ = [
    "CanonicalBatch",
    "FoldWorkspace",
    "batch_variance",
    "batch_covariance",
    "clark_max_arrays",
    "clark_max_into",
    "merge_max_with_validity_into",
    "pad_corr",
    "tightness_arrays",
    "tightness_from_moments",
    "clark_max_reduce",
]

Number = Union[int, float]


def pad_corr(corr: np.ndarray, width: int) -> np.ndarray:
    """Zero-pad a correlated-coefficient matrix to ``width`` columns.

    Returns ``corr`` itself when it already has ``width`` columns; the
    single pad helper shared by every engine that aligns coefficient
    spaces of different local dimensionality.
    """
    if corr.shape[1] == width:
        return corr
    padded = np.zeros((corr.shape[0], width), dtype=float)
    padded[:, : corr.shape[1]] = corr
    return padded


# ----------------------------------------------------------------------
# Raw array kernels (shared with engines that keep their own layouts)
# ----------------------------------------------------------------------
def batch_variance(corr: np.ndarray, randvar: np.ndarray) -> np.ndarray:
    """Total variance of a batch: ``sum_k corr_k^2 + randvar`` per entry."""
    return np.einsum("...k,...k->...", corr, corr) + randvar


def batch_covariance(corr_a: np.ndarray, corr_b: np.ndarray) -> np.ndarray:
    """Pairwise covariance of two batches (private parts are independent)."""
    return np.einsum("...k,...k->...", corr_a, corr_b)


def tightness_from_moments(
    mean_a: np.ndarray,
    var_a: np.ndarray,
    mean_b: np.ndarray,
    var_b: np.ndarray,
    cov: np.ndarray,
    mean_tolerance: Union[float, np.ndarray] = 0.0,
    relative_epsilon: float = 0.0,
) -> np.ndarray:
    """Batched tightness probability ``Prob{A >= B}`` from raw moments.

    Unlike :func:`tightness_arrays` the (co)variances are taken as inputs,
    which lets callers inject covariances that are not expressible as a
    coefficient contraction — the criticality engine evaluates both of its
    shared-random-variance covariance bounds through this one kernel, so the
    per-edge scalar reference and the edge-chunked batched path apply the
    identical degeneracy rule.

    Degenerate pairs (``theta`` numerically zero) resolve deterministically:
    ``A`` wins when its mean is within ``mean_tolerance`` of ``B``'s (ties in
    exactly-equal maxima count as attained).  ``relative_epsilon`` widens
    the degeneracy floor to ``relative_epsilon * (var_a + var_b)``: the
    cancellation ``var_a + var_b - 2 cov`` of two near-identical operands
    carries round-off on the scale of the variances themselves, so an
    absolute-only epsilon makes the degenerate classification depend on
    the accumulation order of the inputs — two evaluation engines then
    disagree by O(1) on analytically-tied operands.  A relative floor
    classifies ties identically regardless of which engine computed the
    moments.
    """
    theta_sq = np.maximum(var_a + var_b - 2.0 * cov, 0.0)
    floor = DEGENERATE_THETA * DEGENERATE_THETA
    if relative_epsilon:
        floor = np.maximum(floor, relative_epsilon * (var_a + var_b))
    degenerate = theta_sq <= floor
    safe_theta = np.where(degenerate, 1.0, np.sqrt(theta_sq))
    tp = normal_cdf((mean_a - mean_b) / safe_theta)
    return np.where(
        degenerate, (mean_a >= mean_b - mean_tolerance).astype(float), tp
    )


def tightness_arrays(
    mean_a: np.ndarray,
    corr_a: np.ndarray,
    randvar_a: np.ndarray,
    mean_b: np.ndarray,
    corr_b: np.ndarray,
    randvar_b: np.ndarray,
) -> np.ndarray:
    """Batched tightness probability ``Prob{A >= B}`` (eq. 6).

    Degenerate pairs (``theta`` numerically zero) resolve deterministically
    to 1 or 0 depending on which mean is larger.
    """
    var_a = batch_variance(corr_a, randvar_a)
    var_b = batch_variance(corr_b, randvar_b)
    cov = batch_covariance(corr_a, corr_b)
    return tightness_from_moments(mean_a, var_a, mean_b, var_b, cov)


def clark_max_arrays(
    mean_a: np.ndarray,
    corr_a: np.ndarray,
    randvar_a: np.ndarray,
    mean_b: np.ndarray,
    corr_b: np.ndarray,
    randvar_b: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clark maximum of two batches of canonical forms.

    All inputs are batched along the leading axes; ``corr_*`` additionally
    has the correlated-coefficient axis last.  Returns the canonical
    re-approximation ``(mean, corr, randvar)`` of the elementwise maximum:
    Clark's exact mean, the tightness-probability-weighted correlated
    coefficients, and the residual private variance chosen so the total
    variance matches Clark's exact variance (clamped at zero).
    """
    var_a = batch_variance(corr_a, randvar_a)
    var_b = batch_variance(corr_b, randvar_b)
    cov = batch_covariance(corr_a, corr_b)

    theta_sq = np.maximum(var_a + var_b - 2.0 * cov, 0.0)
    theta = np.sqrt(theta_sq)
    degenerate = theta <= DEGENERATE_THETA
    safe_theta = np.where(degenerate, 1.0, theta)

    alpha = (mean_a - mean_b) / safe_theta
    tp = normal_cdf(alpha)
    phi = normal_pdf(alpha)

    # Degenerate case: the operands differ deterministically.
    tp = np.where(degenerate, (mean_a >= mean_b).astype(float), tp)
    phi = np.where(degenerate, 0.0, phi)

    mean = tp * mean_a + (1.0 - tp) * mean_b + theta * phi
    second = (
        tp * (var_a + mean_a * mean_a)
        + (1.0 - tp) * (var_b + mean_b * mean_b)
        + (mean_a + mean_b) * theta * phi
    )
    variance = np.maximum(second - mean * mean, 0.0)

    corr = tp[..., np.newaxis] * corr_a + (1.0 - tp)[..., np.newaxis] * corr_b
    linear_variance = np.einsum("...k,...k->...", corr, corr)
    randvar = np.maximum(variance - linear_variance, 0.0)
    return mean, corr, randvar


class FoldWorkspace:
    """Named reusable scratch buffers for the in-place Clark kernels.

    The levelized fold calls the pairwise Clark kernel once per round per
    level; without scratch reuse each call allocates ~15 temporaries, which
    at 10^5-10^6 edges turns the fold allocation-bound.  A workspace keeps
    one flat float64/bool array per buffer name, grown monotonically to the
    largest request and sliced/reshaped into views, so a whole propagation
    pass allocates each temporary once (at the widest level) instead of per
    level.  Buffers hold stale garbage between uses by design — every kernel
    fully overwrites what it reads.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers = {}

    def view(self, name: str, shape: Tuple[int, ...], dtype=float) -> np.ndarray:
        """A contiguous uninitialised view of the named buffer."""
        dtype = np.dtype(dtype)
        size = 1
        for extent in shape:
            size *= int(extent)
        key = (name, dtype.str)
        flat = self._buffers.get(key)
        if flat is None or flat.shape[0] < size:
            flat = np.empty(max(size, 1), dtype=dtype)
            self._buffers[key] = flat
        return flat[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the workspace buffers."""
        return sum(buffer.nbytes for buffer in self._buffers.values())


def clark_max_into(
    mean_a: np.ndarray,
    corr_a: np.ndarray,
    randvar_a: np.ndarray,
    mean_b: np.ndarray,
    corr_b: np.ndarray,
    randvar_b: np.ndarray,
    out_mean: np.ndarray,
    out_corr: np.ndarray,
    out_randvar: np.ndarray,
    work: FoldWorkspace,
) -> None:
    """Allocation-free :func:`clark_max_arrays` writing into ``out_*``.

    Replays the reference kernel's operation sequence step for step with
    ``out=`` ufuncs and workspace temporaries, so the results are *bitwise*
    equal to the allocating kernel (asserted in the tests) — the engines
    built on either kernel stay interchangeable under the 1e-9 parity
    suites.  The ``out_*`` arrays must not alias any input.
    """
    shape = mean_a.shape
    var_a = work.view("var_a", shape)
    var_b = work.view("var_b", shape)
    cov = work.view("cov", shape)
    np.einsum("...k,...k->...", corr_a, corr_a, out=var_a)
    var_a += randvar_a
    np.einsum("...k,...k->...", corr_b, corr_b, out=var_b)
    var_b += randvar_b
    np.einsum("...k,...k->...", corr_a, corr_b, out=cov)

    # theta = sqrt(max(var_a + var_b - 2 cov, 0)), degeneracy on theta.
    theta = work.view("theta", shape)
    np.add(var_a, var_b, out=theta)
    scratch = work.view("scratch", shape)
    np.multiply(cov, 2.0, out=scratch)
    np.subtract(theta, scratch, out=theta)
    np.maximum(theta, 0.0, out=theta)
    np.sqrt(theta, out=theta)
    degenerate = work.view("degenerate", shape, dtype=bool)
    np.less_equal(theta, DEGENERATE_THETA, out=degenerate)
    safe_theta = work.view("safe_theta", shape)
    np.copyto(safe_theta, theta)
    np.copyto(safe_theta, 1.0, where=degenerate)

    alpha = work.view("alpha", shape)
    np.subtract(mean_a, mean_b, out=alpha)
    np.divide(alpha, safe_theta, out=alpha)
    tp = work.view("tp", shape)
    normal_cdf_into(alpha, tp)
    phi = work.view("phi", shape)
    normal_pdf_into(alpha, phi)

    # Degenerate case: the operands differ deterministically.
    wins = work.view("wins", shape, dtype=bool)
    np.greater_equal(mean_a, mean_b, out=wins)
    np.copyto(tp, wins, where=degenerate)
    np.copyto(phi, 0.0, where=degenerate)

    one_minus_tp = work.view("one_minus_tp", shape)
    np.subtract(1.0, tp, out=one_minus_tp)

    # mean = (tp * mean_a + (1 - tp) * mean_b) + theta * phi
    np.multiply(tp, mean_a, out=out_mean)
    np.multiply(one_minus_tp, mean_b, out=scratch)
    out_mean += scratch
    np.multiply(theta, phi, out=scratch)
    out_mean += scratch

    # second = tp (var_a + mean_a^2) + (1-tp) (var_b + mean_b^2)
    #          + ((mean_a + mean_b) * theta) * phi
    second = work.view("second", shape)
    np.multiply(mean_a, mean_a, out=second)
    np.add(var_a, second, out=second)
    second *= tp
    np.multiply(mean_b, mean_b, out=scratch)
    np.add(var_b, scratch, out=scratch)
    scratch *= one_minus_tp
    second += scratch
    np.add(mean_a, mean_b, out=scratch)
    scratch *= theta
    scratch *= phi
    second += scratch
    np.multiply(out_mean, out_mean, out=scratch)
    second -= scratch
    np.maximum(second, 0.0, out=second)  # second now holds the variance

    # corr = tp[..., None] * corr_a + (1 - tp)[..., None] * corr_b
    corr_scratch = work.view("corr_scratch", corr_a.shape)
    np.multiply(corr_a, tp[..., np.newaxis], out=out_corr)
    np.multiply(corr_b, one_minus_tp[..., np.newaxis], out=corr_scratch)
    out_corr += corr_scratch

    np.einsum("...k,...k->...", out_corr, out_corr, out=scratch)
    np.subtract(second, scratch, out=out_randvar)
    np.maximum(out_randvar, 0.0, out=out_randvar)


def merge_max_with_validity_into(
    mean_a: np.ndarray,
    corr_a: np.ndarray,
    randvar_a: np.ndarray,
    valid_a: np.ndarray,
    mean_b: np.ndarray,
    corr_b: np.ndarray,
    randvar_b: np.ndarray,
    valid_b: np.ndarray,
    out_mean: np.ndarray,
    out_corr: np.ndarray,
    out_randvar: np.ndarray,
    out_valid: np.ndarray,
    work: FoldWorkspace,
) -> None:
    """Clark max that honours per-entry validity masks, into ``out_*``.

    Entries valid on only one side copy that side; entries valid on neither
    side stay invalid (their numeric content is meaningless).  Bitwise equal
    to the allocating oracle ``merge_max_with_validity`` of
    ``tests/oracles.py`` (the masked selection is pure elementwise choice).
    The ``out_*`` arrays must not alias any input.
    """
    clark_max_into(
        mean_a, corr_a, randvar_a, mean_b, corr_b, randvar_b,
        out_mean, out_corr, out_randvar, work,
    )
    np.logical_or(valid_a, valid_b, out=out_valid)
    if valid_a.all() and valid_b.all():
        # Fast path for the common fully-reachable case: no masking needed.
        return
    both = work.view("both", valid_a.shape, dtype=bool)
    np.logical_and(valid_a, valid_b, out=both)
    only_a = work.view("only_a", valid_a.shape, dtype=bool)
    np.logical_not(valid_b, out=only_a)
    only_a &= valid_a
    not_both = work.view("not_both", valid_a.shape, dtype=bool)
    np.logical_not(both, out=not_both)

    np.copyto(out_mean, mean_b, where=not_both)
    np.copyto(out_mean, mean_a, where=only_a)
    np.copyto(out_randvar, randvar_b, where=not_both)
    np.copyto(out_randvar, randvar_a, where=only_a)
    np.copyto(out_corr, corr_b, where=not_both[..., np.newaxis])
    np.copyto(out_corr, corr_a, where=only_a[..., np.newaxis])


def clark_max_reduce(
    mean: np.ndarray, corr: np.ndarray, randvar: np.ndarray, axis: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Balanced tree reduction of the Clark maximum along ``axis``.

    Entry ``i`` of the first half is paired with entry ``i + n//2`` of the
    second half on every round, so the reduction depth is ``ceil(log2 n)``
    Clark approximations per entry instead of the ``n - 1`` of a sequential
    left fold — fewer stacked approximations and order-stable accuracy.
    Returns the reduced ``(mean, corr, randvar)`` with ``axis`` removed.
    """
    mean = np.moveaxis(np.asarray(mean, dtype=float), axis, 0)
    randvar = np.moveaxis(np.asarray(randvar, dtype=float), axis, 0)
    # The coefficient axis of ``corr`` is last; its batch axes precede it.
    corr = np.moveaxis(np.asarray(corr, dtype=float), axis, 0)
    if mean.shape[0] == 0:
        raise ValueError("cannot reduce an empty batch")
    while mean.shape[0] > 1:
        n = mean.shape[0]
        half = n // 2
        top = 2 * half
        red_mean, red_corr, red_randvar = clark_max_arrays(
            mean[:half], corr[:half], randvar[:half],
            mean[half:top], corr[half:top], randvar[half:top],
        )
        if n % 2:
            mean = np.concatenate([red_mean, mean[top:]], axis=0)
            corr = np.concatenate([red_corr, corr[top:]], axis=0)
            randvar = np.concatenate([red_randvar, randvar[top:]], axis=0)
        else:
            mean, corr, randvar = red_mean, red_corr, red_randvar
    return mean[0], corr[0], randvar[0]


# ----------------------------------------------------------------------
# The batch type
# ----------------------------------------------------------------------
class CanonicalBatch:
    """``N`` canonical forms stored as structure-of-arrays (see module doc).

    Construct from component arrays (``nominal``, ``global_coeff``,
    ``local_coeffs``, ``random_var``), from a list of forms with
    :meth:`from_forms`, or wrap existing ``(mean, corr, randvar)`` arrays
    without copying via :meth:`from_mean_corr_randvar`.  All operations are
    vectorized over the batch axis and return new batches; the underlying
    arrays are treated as immutable.
    """

    __slots__ = ("_mean", "_corr", "_randvar")

    def __init__(
        self,
        nominal: Union[Sequence[Number], np.ndarray],
        global_coeff: Optional[Union[Sequence[Number], np.ndarray]] = None,
        local_coeffs: Optional[np.ndarray] = None,
        random_var: Optional[Union[Sequence[Number], np.ndarray]] = None,
    ) -> None:
        mean = np.atleast_1d(np.asarray(nominal, dtype=float))
        if mean.ndim != 1:
            raise ValueError("nominal must be one-dimensional")
        n = mean.shape[0]

        if global_coeff is None:
            global_arr = np.zeros(n, dtype=float)
        else:
            global_arr = np.broadcast_to(
                np.asarray(global_coeff, dtype=float), (n,)
            ).astype(float)

        if local_coeffs is None:
            locals_arr = np.zeros((n, 0), dtype=float)
        else:
            locals_arr = np.asarray(local_coeffs, dtype=float)
            if locals_arr.ndim == 1:
                locals_arr = np.broadcast_to(locals_arr, (n, locals_arr.shape[0]))
            if locals_arr.shape[0] != n:
                raise ValueError(
                    "local_coeffs has %d rows for %d forms" % (locals_arr.shape[0], n)
                )

        if random_var is None:
            randvar = np.zeros(n, dtype=float)
        else:
            randvar = np.broadcast_to(
                np.asarray(random_var, dtype=float), (n,)
            ).astype(float)
            if np.any(randvar < 0.0):
                raise ValueError("random_var entries must be non-negative")

        corr = np.empty((n, 1 + locals_arr.shape[1]), dtype=float)
        corr[:, 0] = global_arr
        corr[:, 1:] = locals_arr
        self._mean = mean
        self._corr = corr
        self._randvar = randvar

    # ------------------------------------------------------------------
    # Constructors / converters
    # ------------------------------------------------------------------
    @classmethod
    def from_mean_corr_randvar(
        cls, mean: np.ndarray, corr: np.ndarray, randvar: np.ndarray
    ) -> "CanonicalBatch":
        """Zero-copy wrap of existing ``(mean, corr, randvar)`` arrays.

        ``corr`` fuses the global coefficient (column 0) with the local
        coefficients (columns ``1..K``); ``randvar`` is the private-part
        variance.  The arrays are referenced, not copied, so engines that
        already keep this layout (e.g. the timing-graph edge arrays) expose
        batch views for free.
        """
        self = object.__new__(cls)
        self._mean = np.asarray(mean, dtype=float)
        self._corr = np.asarray(corr, dtype=float)
        self._randvar = np.asarray(randvar, dtype=float)
        if self._mean.ndim != 1 or self._randvar.ndim != 1 or self._corr.ndim != 2:
            raise ValueError("expected mean (N,), corr (N, C), randvar (N,)")
        if not (
            self._mean.shape[0] == self._corr.shape[0] == self._randvar.shape[0]
        ):
            raise ValueError("mean, corr and randvar disagree on the batch size")
        if self._corr.shape[1] < 1:
            raise ValueError("corr needs at least the global-coefficient column")
        return self

    @classmethod
    def from_forms(
        cls, forms: Iterable[CanonicalForm], num_locals: Optional[int] = None
    ) -> "CanonicalBatch":
        """Stack a sequence of canonical forms into one batch.

        Forms with fewer than ``num_locals`` local coefficients (default:
        the widest form in the sequence) are zero-padded, mirroring the
        broadcasting of the object-level operators.
        """
        forms = list(forms)
        if num_locals is None:
            num_locals = max((form.num_locals for form in forms), default=0)
        n = len(forms)
        mean = np.empty(n, dtype=float)
        corr = np.zeros((n, 1 + num_locals), dtype=float)
        randvar = np.empty(n, dtype=float)
        for row, form in enumerate(forms):
            if form.num_locals > num_locals:
                raise ValueError(
                    "form %d has %d local coefficients, batch holds %d"
                    % (row, form.num_locals, num_locals)
                )
            mean[row] = form.nominal
            corr[row, 0] = form.global_coeff
            corr[row, 1 : 1 + form.num_locals] = form.local_coeffs
            randvar[row] = form.random_coeff * form.random_coeff
        return cls.from_mean_corr_randvar(mean, corr, randvar)

    @classmethod
    def zeros(cls, n: int, num_locals: int = 0) -> "CanonicalBatch":
        """A batch of ``n`` deterministic zeros."""
        return cls.from_mean_corr_randvar(
            np.zeros(n), np.zeros((n, 1 + num_locals)), np.zeros(n)
        )

    @classmethod
    def constant(
        cls, values: Union[Sequence[Number], np.ndarray], num_locals: int = 0
    ) -> "CanonicalBatch":
        """A batch of deterministic values."""
        values = np.atleast_1d(np.asarray(values, dtype=float))
        n = values.shape[0]
        return cls.from_mean_corr_randvar(
            values.copy(), np.zeros((n, 1 + num_locals)), np.zeros(n)
        )

    @classmethod
    def concatenate(cls, batches: Sequence["CanonicalBatch"]) -> "CanonicalBatch":
        """Stack several batches into one, zero-padding the local axes."""
        if not batches:
            raise ValueError("cannot concatenate zero batches")
        width = max(batch.num_corr for batch in batches)
        mean = np.concatenate([batch._mean for batch in batches])
        randvar = np.concatenate([batch._randvar for batch in batches])
        corr = np.concatenate([batch._corr_padded(width) for batch in batches])
        return cls.from_mean_corr_randvar(mean, corr, randvar)

    def to_forms(self) -> List[CanonicalForm]:
        """Materialise the batch as a list of canonical forms."""
        from_owned = CanonicalForm._from_owned
        mean = self._mean
        corr = self._corr
        sigma = np.sqrt(np.maximum(self._randvar, 0.0))
        return [
            from_owned(
                float(mean[row]), float(corr[row, 0]), corr[row, 1:].copy(),
                float(sigma[row]),
            )
            for row in range(mean.shape[0])
        ]

    def form(self, row: int) -> CanonicalForm:
        """Materialise one entry as a canonical form."""
        corr = self._corr[row]
        return CanonicalForm._from_owned(
            float(self._mean[row]),
            float(corr[0]),
            corr[1:].copy(),
            math.sqrt(max(float(self._randvar[row]), 0.0)),
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def nominal(self) -> np.ndarray:
        """Means ``a0``, shape ``(N,)``."""
        return self._mean

    @property
    def mean(self) -> np.ndarray:
        """Alias of :attr:`nominal`."""
        return self._mean

    @property
    def global_coeff(self) -> np.ndarray:
        """Global sensitivities ``ag``, shape ``(N,)`` (view of ``corr``)."""
        return self._corr[:, 0]

    @property
    def local_coeffs(self) -> np.ndarray:
        """Local sensitivities, shape ``(N, K)`` (view of ``corr``)."""
        return self._corr[:, 1:]

    @property
    def corr(self) -> np.ndarray:
        """Fused correlated coefficients, shape ``(N, 1 + K)``."""
        return self._corr

    @property
    def random_var(self) -> np.ndarray:
        """Private-part variances ``ar**2``, shape ``(N,)``."""
        return self._randvar

    @property
    def random_coeff(self) -> np.ndarray:
        """Private-part coefficients ``ar`` (a derived square root)."""
        return np.sqrt(np.maximum(self._randvar, 0.0))

    @property
    def num_locals(self) -> int:
        """Number of independent local variables of the batch."""
        return int(self._corr.shape[1] - 1)

    @property
    def num_corr(self) -> int:
        """Number of correlated components (1 global + K locals)."""
        return int(self._corr.shape[1])

    @property
    def variance(self) -> np.ndarray:
        """Total variances, shape ``(N,)``."""
        return batch_variance(self._corr, self._randvar)

    @property
    def std(self) -> np.ndarray:
        """Standard deviations, shape ``(N,)``."""
        return np.sqrt(self.variance)

    @property
    def correlated_variance(self) -> np.ndarray:
        """Variances excluding the private random parts."""
        return np.einsum("nk,nk->n", self._corr, self._corr)

    def __len__(self) -> int:
        return int(self._mean.shape[0])

    def __getitem__(
        self, key: Union[int, slice, np.ndarray]
    ) -> Union[CanonicalForm, "CanonicalBatch"]:
        """An integer yields a :class:`CanonicalForm`; anything else a sub-batch."""
        if isinstance(key, (int, np.integer)):
            return self.form(int(key))
        return CanonicalBatch.from_mean_corr_randvar(
            self._mean[key], self._corr[key], self._randvar[key]
        )

    def gather(self, rows: Union[Sequence[int], np.ndarray]) -> "CanonicalBatch":
        """Sub-batch of the given rows (fancy indexing; copies)."""
        rows = np.asarray(rows, dtype=np.int64)
        return CanonicalBatch.from_mean_corr_randvar(
            self._mean[rows], self._corr[rows], self._randvar[rows]
        )

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _corr_padded(self, width: int) -> np.ndarray:
        return pad_corr(self._corr, width)

    def _aligned(self, other: "CanonicalBatch") -> Tuple[np.ndarray, np.ndarray]:
        if len(self) != len(other):
            raise ValueError(
                "batch sizes differ: %d vs %d" % (len(self), len(other))
            )
        width = max(self.num_corr, other.num_corr)
        return self._corr_padded(width), other._corr_padded(width)

    def add(self, other: "CanonicalBatch") -> "CanonicalBatch":
        """Elementwise statistical sum (independent private variances add)."""
        corr_a, corr_b = self._aligned(other)
        return CanonicalBatch.from_mean_corr_randvar(
            self._mean + other._mean, corr_a + corr_b, self._randvar + other._randvar
        )

    def add_constant(
        self, values: Union[Number, Sequence[Number], np.ndarray]
    ) -> "CanonicalBatch":
        """Shift every mean by a deterministic value (scalar or per-entry)."""
        return CanonicalBatch.from_mean_corr_randvar(
            self._mean + np.asarray(values, dtype=float), self._corr, self._randvar
        )

    def add_form(self, form: CanonicalForm) -> "CanonicalBatch":
        """Add one canonical form to every entry of the batch."""
        width = max(self.num_corr, form.num_locals + 1)
        corr = self._corr_padded(width).copy()
        corr[:, 0] += form.global_coeff
        corr[:, 1 : 1 + form.num_locals] += form.local_coeffs
        return CanonicalBatch.from_mean_corr_randvar(
            self._mean + form.nominal,
            corr,
            self._randvar + form.random_coeff * form.random_coeff,
        )

    def scale(
        self, factors: Union[Number, Sequence[Number], np.ndarray]
    ) -> "CanonicalBatch":
        """Multiply every form by a deterministic factor (scalar or per-entry)."""
        factors = np.asarray(factors, dtype=float)
        return CanonicalBatch.from_mean_corr_randvar(
            self._mean * factors,
            self._corr * factors[..., np.newaxis] if factors.ndim else self._corr * factors,
            self._randvar * factors * factors,
        )

    def negate(self) -> "CanonicalBatch":
        """Elementwise negation (private variances are unchanged)."""
        return CanonicalBatch.from_mean_corr_randvar(
            -self._mean, -self._corr, self._randvar
        )

    def subtract(self, other: "CanonicalBatch") -> "CanonicalBatch":
        """Elementwise statistical difference ``self - other``."""
        corr_a, corr_b = self._aligned(other)
        return CanonicalBatch.from_mean_corr_randvar(
            self._mean - other._mean, corr_a - corr_b, self._randvar + other._randvar
        )

    def covariance(self, other: "CanonicalBatch") -> np.ndarray:
        """Pairwise covariances, shape ``(N,)``."""
        corr_a, corr_b = self._aligned(other)
        return batch_covariance(corr_a, corr_b)

    def correlation(self, other: "CanonicalBatch") -> np.ndarray:
        """Pairwise Pearson correlations (zero where either std is zero)."""
        denom = self.std * other.std
        cov = self.covariance(other)
        return np.divide(cov, denom, out=np.zeros_like(cov), where=denom > 0.0)

    def tightness(self, other: "CanonicalBatch") -> np.ndarray:
        """Pairwise tightness probabilities ``Prob{self >= other}``."""
        corr_a, corr_b = self._aligned(other)
        return tightness_arrays(
            self._mean, corr_a, self._randvar, other._mean, corr_b, other._randvar
        )

    def maximum(self, other: "CanonicalBatch") -> "CanonicalBatch":
        """Elementwise Clark maximum re-expressed canonically (eq. 9)."""
        corr_a, corr_b = self._aligned(other)
        mean, corr, randvar = clark_max_arrays(
            self._mean, corr_a, self._randvar, other._mean, corr_b, other._randvar
        )
        return CanonicalBatch.from_mean_corr_randvar(mean, corr, randvar)

    def minimum(self, other: "CanonicalBatch") -> "CanonicalBatch":
        """Elementwise statistical minimum via ``min(A,B) = -max(-A,-B)``."""
        return self.negate().maximum(other.negate()).negate()

    def max_over(self) -> CanonicalForm:
        """Balanced tree-reduction Clark maximum over the whole batch.

        ``ceil(log2 N)`` rounds of the batched pairwise kernel instead of a
        sequential fold: fewer stacked Clark approximations (order-stable
        accuracy) and every round is one vectorized call.
        """
        if len(self) == 0:
            raise ValueError("max_over() requires a non-empty batch")
        mean, corr, randvar = clark_max_reduce(self._mean, self._corr, self._randvar)
        return CanonicalForm(
            float(mean), corr[0], corr[1:], math.sqrt(max(float(randvar), 0.0))
        )

    def min_over(self) -> CanonicalForm:
        """Balanced tree-reduction statistical minimum over the whole batch."""
        return self.negate().max_over().negate()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator, num_samples: int) -> np.ndarray:
        """Draw joint samples of every form; returns ``(N, num_samples)``.

        One standard normal vector is drawn per correlated component and
        shared across the batch (capturing the global/local correlation
        structure); private noise is drawn only for entries with a non-zero
        private variance.
        """
        correlated = rng.standard_normal((self.num_corr, num_samples))
        values = self._corr @ correlated
        values += self._mean[:, np.newaxis]
        random_sigma = np.sqrt(np.maximum(self._randvar, 0.0))
        nonzero = random_sigma > 0.0
        if nonzero.all():
            # Every entry draws, so the masked gather/scatter below would
            # copy the full (N, S) block twice for nothing — at million-row
            # blocks that traffic dominates the draw itself.  Same stream
            # consumption, bit-identical values.
            noise = rng.standard_normal((len(self), num_samples))
            noise *= random_sigma[:, np.newaxis]
            values += noise
        elif nonzero.any():
            noise = rng.standard_normal((int(nonzero.sum()), num_samples))
            values[nonzero] += random_sigma[nonzero, np.newaxis] * noise
        return values

    def sample_at(
        self,
        global_sample: Union[Number, np.ndarray],
        local_samples: Optional[np.ndarray] = None,
        random_samples: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Evaluate every form at given variable samples; ``(N, S)``.

        ``global_sample`` is a scalar or ``(S,)`` vector, ``local_samples``
        has shape ``(K, S)`` and ``random_samples`` ``(N, S)``; missing
        inputs default to zero.
        """
        global_sample = np.atleast_1d(np.asarray(global_sample, dtype=float))
        num_samples = global_sample.shape[0]
        values = np.repeat(self._mean[:, np.newaxis], num_samples, axis=1)
        values += np.outer(self.global_coeff, global_sample)
        if local_samples is not None and self.num_locals:
            local_samples = np.asarray(local_samples, dtype=float)
            if local_samples.ndim == 1:
                local_samples = local_samples[:, np.newaxis]
            values += self.local_coeffs @ local_samples[: self.num_locals]
        if random_samples is not None:
            values += self.random_coeff[:, np.newaxis] * np.asarray(
                random_samples, dtype=float
            )
        return values

    def __repr__(self) -> str:
        return "CanonicalBatch(n=%d, num_locals=%d)" % (len(self), self.num_locals)
