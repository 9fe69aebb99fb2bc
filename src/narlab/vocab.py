"""Shared token-id conventions.

Ids 0..3 are reserved control tokens; task content tokens start at
``N_RESERVED``.  The vocabulary is shared between source and target side.
"""

from __future__ import annotations

from dataclasses import dataclass

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
N_RESERVED = 4


@dataclass(frozen=True)
class Vocabulary:
    """Shared source/target vocabulary: 4 reserved ids + content ids."""

    n_content: int

    def __post_init__(self):
        if self.n_content < 1:
            raise ValueError(f"vocabulary needs at least one content token, got {self.n_content}")

    @property
    def size(self) -> int:
        """Total table size including reserved ids."""
        return self.n_content + N_RESERVED

    @property
    def content_ids(self) -> range:
        return range(N_RESERVED, N_RESERVED + self.n_content)
