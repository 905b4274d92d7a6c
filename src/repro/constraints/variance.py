"""Argument variance for set constructors.

Every constructor argument position is either covariant (the constructed
set grows when the argument grows) or contravariant (the constructed set
shrinks when the argument grows).  Variance drives the structural
decomposition rule of the resolution system ``R`` (paper Figure 1):

    c(l_1, ..., l_n) <= c(r_1, ..., r_n)

decomposes into ``l_i <= r_i`` for covariant positions and ``r_i <= l_i``
for contravariant positions.
"""

from __future__ import annotations

import enum


class Variance(enum.Enum):
    """Variance of a constructor argument position."""

    COVARIANT = "+"
    CONTRAVARIANT = "-"

    def flip(self) -> "Variance":
        """Return the opposite variance.

        Useful when reasoning about nested contexts: an argument that is
        contravariant inside a contravariant position is overall covariant.
        """
        if self is Variance.COVARIANT:
            return Variance.CONTRAVARIANT
        return Variance.COVARIANT

    @property
    def is_covariant(self) -> bool:
        return self is Variance.COVARIANT

    @property
    def is_contravariant(self) -> bool:
        return self is Variance.CONTRAVARIANT

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Shorthands used throughout signature declarations.
COVARIANT = Variance.COVARIANT
CONTRAVARIANT = Variance.CONTRAVARIANT
