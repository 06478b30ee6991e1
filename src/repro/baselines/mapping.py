"""Full address mappings (and bulk kernels) for the naive baseline schemes.

:class:`~repro.baselines.cyclic.CyclicScheme` and
:class:`~repro.baselines.block.BlockScheme` only hash elements to banks;
to run a baseline through the simulation harness we also need in-bank
offsets — i.e. a complete :class:`~repro.core.mapping.BankMapping`.  The
two frozen-dataclass subclasses below provide exactly that:

* :class:`CyclicBankMapping` — ``B(x) = x_d % N``, in-bank coordinate
  ``x_d // N``; the partitioned dimension is padded to ``⌈w_d/N⌉`` slots.
* :class:`BlockBankMapping` — ``B(x) = x_d // ⌈w_d/N⌉``, in-bank
  coordinate ``x_d % ⌈w_d/N⌉``.

Both are bijective over in-range elements, so the scalar simulator (which
only calls ``address_of``/``bank_size``) replays them as faithfully as any
stock mapping.  Note that block banking is **not** a modular linear hash:
its :class:`~repro.core.partition.PartitionSolution` is a carrier for the
bank count / measured ``δP`` / scheme label, and the bank hashing lives on
the mapping override, never on ``solution.bank_of``.

Importing this module registers NumPy bank-index kernels with the bulk
dispatcher (:func:`repro.core.vectorized.register_bulk_kernel`), which
makes ``simulate_sweep(engine="auto")`` batch baseline conflict
simulations instead of replaying element by element — the same eligibility
rule as the stock mappings, extended by registration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..core.mapping import BankMapping, Shape
from ..core.opcount import OpCounter
from ..core.partition import PartitionSolution
from ..core.pattern import Pattern
from ..core.transform import LinearTransform
from ..core.vectorized import register_bulk_kernel
from ..errors import MappingError
from ..native import register_native_spec
from .block import BlockScheme
from .cyclic import CyclicScheme


def _ravel_rows(coords: "np.ndarray", shape: Sequence[int]) -> "np.ndarray":
    """Row-major ravel of a ``(k, n)`` coordinate batch over ``shape``."""
    linear = np.zeros(len(coords), dtype=np.int64)
    for dim, width in enumerate(shape):
        linear = linear * int(width) + coords[:, dim]
    return linear


@dataclass(frozen=True)
class _DimBankMapping(BankMapping):
    """Shared plumbing for mappings that bank along one dimension ``dim``.

    Subclasses define the per-bank shape and the two scalar address
    methods; geometry and storage accounting follow from the bank shape
    (all banks are the same size, so overhead accounting matches the
    scheme's ``overhead_elements`` closed form).
    """

    dim: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 <= self.dim < self.ndim:
            raise MappingError(
                f"dim {self.dim} out of range for shape {self.shape}"
            )

    @property
    def slots(self) -> int:
        """Padded extent of the partitioned dimension inside one bank."""
        return math.ceil(self.shape[self.dim] / self.n_banks)

    @property
    def bank_shape(self) -> Shape:
        return (
            self.shape[: self.dim] + (self.slots,) + self.shape[self.dim + 1 :]
        )

    def bank_size(self, bank: int) -> int:
        if not 0 <= bank < self.n_banks:
            raise ValueError(f"bank {bank} out of range [0, {self.n_banks})")
        size = 1
        for w in self.bank_shape:
            size *= w
        return size

    @property
    def total_bank_elements(self) -> int:
        return self.n_banks * self.bank_size(0)


@dataclass(frozen=True)
class CyclicBankMapping(_DimBankMapping):
    """Cyclic (interleaved) banking along ``dim`` as a full address mapping."""

    def bank_of(self, element: Sequence[int], ops: OpCounter | None = None) -> int:
        vec = self._check_element(element)
        return vec[self.dim] % self.n_banks

    def offset_of(self, element: Sequence[int], ops: OpCounter | None = None) -> int:
        vec = self._check_element(element)
        coords = (
            vec[: self.dim] + (vec[self.dim] // self.n_banks,) + vec[self.dim + 1 :]
        )
        return self._ravel(coords, self.bank_shape)


@dataclass(frozen=True)
class BlockBankMapping(_DimBankMapping):
    """Block (contiguous-chunk) banking along ``dim`` as a full mapping.

    Unlike :meth:`BlockScheme.bank_of` this never clamps: the mapping's
    contract is in-range elements only (enforced by ``_check_element``),
    and the simulator's trace generator keeps every read in range.
    """

    @property
    def chunk(self) -> int:
        """Elements of the partitioned dimension per bank (``= slots``)."""
        return self.slots

    def bank_of(self, element: Sequence[int], ops: OpCounter | None = None) -> int:
        vec = self._check_element(element)
        return vec[self.dim] // self.chunk

    def offset_of(self, element: Sequence[int], ops: OpCounter | None = None) -> int:
        vec = self._check_element(element)
        coords = (
            vec[: self.dim] + (vec[self.dim] % self.chunk,) + vec[self.dim + 1 :]
        )
        return self._ravel(coords, self.bank_shape)


def cyclic_mapping(
    scheme: CyclicScheme, pattern: Pattern, shape: Sequence[int]
) -> CyclicBankMapping:
    """Package a cyclic scheme as a full mapping over an array of ``shape``.

    The solution record carries the scheme's *measured* ``δP`` (from
    :meth:`CyclicScheme.as_solution`), so simulation reports can be checked
    against the analytic claim.
    """
    return CyclicBankMapping(
        solution=scheme.as_solution(pattern),
        shape=tuple(int(w) for w in shape),
        dim=scheme.dim,
    )


def block_mapping(scheme: BlockScheme, pattern: Pattern) -> BlockBankMapping:
    """Package a block scheme (which already knows its shape) as a mapping.

    Block banking has no linear transform; the solution's unit ``α`` is a
    placeholder and ``solution.bank_of`` must not be used for this scheme —
    the mapping's override is the only valid hash.  ``delta_ii`` is the
    scheme's measured worst case over a chunk-boundary window.
    """
    shape = tuple(int(w) for w in scheme.shape)
    alpha = tuple(1 if j == scheme.dim else 0 for j in range(len(shape)))
    solution = PartitionSolution(
        pattern=pattern,
        transform=LinearTransform(alpha=alpha),
        n_banks=scheme.n_banks,
        n_unconstrained=scheme.n_banks,
        delta_ii=scheme.worst_delta_ii(pattern),
        scheme="block",
        algorithm="block",
    )
    return BlockBankMapping(solution=solution, shape=shape, dim=scheme.dim)


def _cyclic_kernel(
    mapping: CyclicBankMapping, elements: "np.ndarray"
) -> Tuple["np.ndarray", "np.ndarray"]:
    in_bank, banks = np.divmod(elements[:, mapping.dim], mapping.n_banks)
    coords = elements.copy()
    coords[:, mapping.dim] = in_bank
    return banks, _ravel_rows(coords, mapping.bank_shape)


def _block_kernel(
    mapping: BlockBankMapping, elements: "np.ndarray"
) -> Tuple["np.ndarray", "np.ndarray"]:
    banks, in_bank = np.divmod(elements[:, mapping.dim], mapping.chunk)
    coords = elements.copy()
    coords[:, mapping.dim] = in_bank
    return banks, _ravel_rows(coords, mapping.bank_shape)


def _cyclic_spec(mapping: CyclicBankMapping) -> dict:
    return {
        "kind": 1,
        "n_banks": mapping.n_banks,
        "dim": mapping.dim,
        "divisor": mapping.n_banks,
        "bank_shape": mapping.bank_shape,
    }


def _block_spec(mapping: BlockBankMapping) -> dict:
    return {
        "kind": 2,
        "n_banks": mapping.n_banks,
        "dim": mapping.dim,
        "divisor": mapping.chunk,
        "bank_shape": mapping.bank_shape,
    }


register_bulk_kernel(CyclicBankMapping, _cyclic_kernel)
register_bulk_kernel(BlockBankMapping, _block_kernel)

# The same types also opt into the compiled tier's fused trace kernel
# (engine="native"); registration is pure metadata and costs nothing when
# the extension cannot load.
register_native_spec(CyclicBankMapping, _cyclic_spec)
register_native_spec(BlockBankMapping, _block_spec)
