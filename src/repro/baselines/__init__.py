"""Baseline partitioning schemes the paper compares against or dismisses.

* :mod:`repro.baselines.ltb` — the DAC 2013 linear-transform exhaustive
  search (the paper's head-to-head comparator, Table 1).
* :mod:`repro.baselines.cyclic` — single-dimension cyclic banking.
* :mod:`repro.baselines.block` — single-dimension block banking.
* :mod:`repro.baselines.duplication` — full array duplication.
"""

from .block import BlockScheme
from .cyclic import CyclicScheme, best_cyclic, cyclic_delta_ii
from .duplication import DuplicationScheme, duplication_for
from .linebuffer import LineBufferDesign, linebuffer_vs_banking_storage
from .ltb import (
    LTB_ENGINES,
    LTBResult,
    ltb_bank_of,
    ltb_min_banks,
    ltb_overhead_elements,
    ltb_partition,
)
from .mapping import (
    BlockBankMapping,
    CyclicBankMapping,
    block_mapping,
    cyclic_mapping,
)

__all__ = [
    "BlockScheme",
    "BlockBankMapping",
    "CyclicScheme",
    "CyclicBankMapping",
    "best_cyclic",
    "block_mapping",
    "cyclic_delta_ii",
    "cyclic_mapping",
    "DuplicationScheme",
    "duplication_for",
    "LineBufferDesign",
    "linebuffer_vs_banking_storage",
    "LTB_ENGINES",
    "LTBResult",
    "ltb_bank_of",
    "ltb_min_banks",
    "ltb_overhead_elements",
    "ltb_partition",
]
