"""The blocking stage: build, then clean.

:class:`BlockingEngine` runs the paper's first pillar -- schema-agnostic
blocking, block purging, block filtering, comparison propagation -- as one
stage.  Each builder's ``build`` and each cleaner's ``process`` is the one
body of its algorithm; the engine only hands the shared
:class:`~repro.core.context.PipelineContext` to the builder.

Blocks take one form, :class:`~repro.blocking.columns.BlockColumns`: the
block keys in block order, a CSR of member ordinals into one identifier
table and the left-member count of every block.  Every builder emits
columns, the cleaners are passes over *(block, description ordinal)*
assignments, and the :class:`~repro.blocking.base.BlockCollection` they
return holds the columns only; :class:`~repro.blocking.base.Block` views
exist only while somebody iterates it (the default workflow never does:
:meth:`EntityIndexEngine.from_columns
<repro.metablocking.entity_index.EntityIndexEngine.from_columns>` takes the
columns as they are).  The cleaners assume well-formed bilateral blocks (no
identifier on both sides of one block, the same malformed shape the
meta-blocking engines reject).
"""

from __future__ import annotations

from typing import Optional

from repro.blocking.base import BlockBuilder, BlockCollection, ERInput
from repro.blocking.cleaning import BlockFiltering, BlockPurging, clean_blocks
from repro.blocking.token_blocking import TokenBlocking


class BlockingEngine:
    """Block building and cleaning as one stage.

    Parameters
    ----------
    builder:
        The blocking scheme to execute (default: :class:`TokenBlocking`).
    context:
        Optional shared :class:`~repro.core.context.PipelineContext`, handed
        to the builder: when it owns the input data, the token-reading
        builders read its interned columns and their blocks speak its
        ordinals (the single-interning guarantee of the shared context);
        otherwise they intern privately.
    parallel:
        Accepted and ignored: building, purging, filtering and comparison
        propagation run on the driver's column kernels (shipping their
        columns costs more than the kernels do).
    """

    def __init__(
        self,
        builder: Optional[BlockBuilder] = None,
        context=None,
        parallel=None,
    ) -> None:
        self.builder = builder if builder is not None else TokenBlocking()
        self.context = context

    def build(self, data: ERInput) -> BlockCollection:
        """Build the blocks of ``data`` with the configured builder."""
        return self.builder.build(data, self.context)

    def clean(
        self,
        blocks: BlockCollection,
        purging: Optional[BlockPurging] = None,
        filtering: Optional[BlockFiltering] = None,
        propagate: bool = False,
    ) -> BlockCollection:
        """Purging, then filtering, then optional comparison propagation.

        :func:`~repro.blocking.cleaning.clean_blocks`, on the driver.
        """
        return clean_blocks(blocks, purging, filtering, propagate)

    def run(
        self,
        data: ERInput,
        purging: Optional[BlockPurging] = None,
        filtering: Optional[BlockFiltering] = None,
        propagate: bool = False,
    ) -> BlockCollection:
        """:meth:`build` followed by :meth:`clean`."""
        return self.clean(self.build(data), purging, filtering, propagate)
