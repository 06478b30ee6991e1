"""Linear bank-mapping transforms (paper Sections 4.1–4.2).

A bank mapping assigns element ``x`` to bank ``B(x) = (α · x) % N``.  The
paper's central observation is that a *good* ``α`` can be written down
directly from the pattern's bounding box, with no search:

.. math::

    D_j = \\max_i Δ^{(i)}_j − \\min_i Δ^{(i)}_j + 1, \\qquad
    α_j = \\prod_{k=j+1}^{n-1} D_k  \\quad (α_{n-1} = 1)

This is exactly the mixed-radix (positional number system) weighting: each
offset is read as a number whose digit in position ``j`` ranges over an
interval of width ``D_j``.  Theorem 1 then states that the transformed
values ``z^(i) = α · Δ^(i)`` are pairwise distinct — two different digit
strings encode different numbers.  This module implements the construction,
the transformed values, and an independent checker for the theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import List, Sequence, Tuple

from ..errors import DimensionMismatchError
from .opcount import OpCounter, resolve
from .pattern import Pattern


@dataclass(frozen=True)
class LinearTransform:
    """A transform vector ``α`` together with the pattern extents it came from.

    Attributes
    ----------
    alpha:
        The weight vector ``(α_0, …, α_{n-1})``.
    extents:
        The per-dimension widths ``D_j`` used to derive it (empty for
        transforms built directly from a vector, e.g. LTB candidates).
    """

    alpha: Tuple[int, ...]
    extents: Tuple[int, ...] = ()

    @property
    def ndim(self) -> int:
        return len(self.alpha)

    def apply(self, vector: Sequence[int], ops: OpCounter | None = None) -> int:
        """Compute the dot product ``α · vector``.

        Charges ``n`` multiplications and ``n−1`` additions to ``ops``.
        """
        if len(vector) != self.ndim:
            raise DimensionMismatchError(
                f"vector has {len(vector)} components, transform expects {self.ndim}"
            )
        counter = resolve(ops)
        counter.mul(self.ndim)
        if self.ndim > 1:
            counter.add(self.ndim - 1)
        return sum(a * int(c) for a, c in zip(self.alpha, vector))

    def transform_pattern(
        self, pattern: Pattern, ops: OpCounter | None = None
    ) -> List[int]:
        """The transformed values ``z^(i) = α · Δ^(i)`` in canonical order.

        Charges what :meth:`apply` charges per offset, in bulk: ``n·m``
        multiplications and ``(n−1)·m`` additions.
        """
        alpha = self.alpha
        n = len(alpha)
        if pattern.ndim != n:
            raise DimensionMismatchError(
                f"vector has {pattern.ndim} components, transform expects {n}"
            )
        m = pattern.size
        counter = resolve(ops)
        counter.mul(n * m)
        if n > 1:
            counter.add((n - 1) * m)
        return [sum(map(mul, alpha, delta)) for delta in pattern.offsets]

    def bank_of(self, vector: Sequence[int], n_banks: int, ops: OpCounter | None = None) -> int:
        """Bank index ``B(x) = (α · x) % N``."""
        if n_banks <= 0:
            raise ValueError(f"bank count must be positive, got {n_banks}")
        counter = resolve(ops)
        value = self.apply(vector, ops)
        counter.mod()
        return value % n_banks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LinearTransform(alpha={self.alpha})"


def derive_alpha(pattern: Pattern, ops: OpCounter | None = None) -> LinearTransform:
    """Construct the paper's ``α`` from a pattern (Section 4.1).

    The construction costs a handful of scalar operations (finding the
    per-dimension min/max and a suffix product), independent of the array
    size and of any bank count — this constant-time step is what replaces
    LTB's exhaustive search over ``N^n`` candidate vectors.

    Parameters
    ----------
    pattern:
        The access pattern ``P``.
    ops:
        Optional instrumentation counter.  Charged with the comparisons of
        the min/max scan, the subtractions/additions of ``D_j``, and the
        multiplications of the suffix product.

    Returns
    -------
    LinearTransform
        With ``alpha[j] = D_{j+1} · D_{j+2} ⋯ D_{n-1}`` and ``alpha[-1] = 1``.

    Examples
    --------
    >>> from repro.patterns import log_pattern
    >>> derive_alpha(log_pattern()).alpha
    (5, 1)
    """
    counter = resolve(ops)
    n = pattern.ndim
    m = pattern.size
    # Min/max scan: each of the m offsets contributes two comparisons per
    # dimension (against the running min and max).
    counter.compare(2 * m * n)
    mins = pattern.mins
    maxs = pattern.maxs
    # D_j = max - min + 1  →  one subtraction and one addition per dimension.
    counter.sub(n)
    counter.add(n)
    extents = tuple(maxs[j] - mins[j] + 1 for j in range(n))
    # Suffix product: n-1 multiplications.
    alpha = [1] * n
    for j in range(n - 2, -1, -1):
        counter.mul()
        alpha[j] = alpha[j + 1] * extents[j + 1]
    return LinearTransform(alpha=tuple(alpha), extents=extents)


def transformed_values(
    pattern: Pattern, ops: OpCounter | None = None
) -> Tuple[LinearTransform, List[int]]:
    """Convenience: derive ``α`` and return it with ``z^(i) = α · Δ^(i)``."""
    transform = derive_alpha(pattern, ops)
    return transform, transform.transform_pattern(pattern, ops)


def check_theorem1(pattern: Pattern, transform: LinearTransform | None = None) -> bool:
    """Independently verify Theorem 1: the ``z^(i)`` are pairwise distinct.

    With ``transform=None`` the paper's ``α`` is derived first; passing an
    explicit transform lets tests probe vectors that *violate* the theorem
    (e.g. ``α = (1, 1)`` on a square pattern).
    """
    if transform is None:
        transform = derive_alpha(pattern)
    values = transform.transform_pattern(pattern)
    return len(set(values)) == len(values)


def spread(values: Sequence[int]) -> int:
    """``max(values) − min(values)``: the paper's ``M`` upper bound on bank count.

    Any ``N > spread(z)`` trivially separates the pattern because all
    residues ``z % N`` stay distinct.
    """
    if not values:
        raise ValueError("spread of an empty sequence is undefined")
    return max(values) - min(values)
