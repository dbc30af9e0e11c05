"""What the identities are: word kinds, term lists, bracket word order and w.

Both routes read this module, the dense numerics (`matrixops`, `graded`) and
the exact word expansion (`words`); it imports no tidlab module.  The routes
read each table as an attribute at call time (`definitions.IDENTITY18_TERMS`),
so one changed definition reaches both.
"""

import math

__all__ = ["HIGH", "LOW", "IDENTITY6_TERMS", "BRACKET_WORD_ORDER", "IDENTITY18_TERMS", "OMEGA"]

HIGH = "high"  # word type with (2,1) components at even (0-based) positions
LOW = "low"  # word type with (1,2) components at even (0-based) positions

# the twelve four-symbol terms, in printed order: "WXYZ" means ((W∘X)∘Y)∘Z
IDENTITY6_TERMS: tuple[str, ...] = (
    "ABCD", "CBDA", "CDAB", "ADBC",
    "CABD", "DCBA", "ACDB", "BADC",
    "BCAD", "BDCA", "DACB", "DBAC",
)

# bracket words: for arguments (x, y, z), each ordering below is one word and
# the weight is keyed by which argument sits in the middle:
#   middle = 2nd argument -> alpha, 1st -> beta, 3rd -> gamma
BRACKET_WORD_ORDER: tuple[tuple[tuple[int, int, int], str], ...] = (
    ((0, 1, 2), "alpha"),
    ((2, 1, 0), "alpha"),
    ((2, 0, 1), "beta"),
    ((1, 0, 2), "beta"),
    ((0, 2, 1), "gamma"),
    ((1, 2, 0), "gamma"),
)

# the twenty five-symbol terms: "PQRST" means ((P,Q,R) S, T)
IDENTITY18_TERMS: tuple[str, ...] = (
    "ABCDE", "BCDEA", "CDEAB", "DEABC", "EABCD",
    "CBAED", "BAEDC", "AEDCB", "EDCBA", "DCBAE",
    "DACEB", "ACEBD", "CEBDA", "EBDAC", "BDACE",
    "CADBE", "ADBEC", "DBECA", "BECAD", "ECADB",
)

OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)  # the numeric embedding of w = exp(2πi/3)
