"""Registry names of the deleted related-work and extension codecs.

QSGD, DGC, Gaia, sufficient factors, adaptive 3LC, 16-bit float,
round-robin, TernGrad's clipping and K > 2 local steps are no longer
modelled (ARCHITECTURE.md, "Module census").
Artifacts written before the deletion can still name them, so the suites
pin how each is met. Two extend a surviving name, so a prefix match would
wrongly accept them.
"""

RETIRED_SCHEMES = (
    "16-bit float",
    "round-robin 1/4",
    "Stoch 3-value + QE (clip 2.5)",
    "QSGD (2-bit)",
    "QSGD (4-bit)",
    "DGC (0.10%)",
    "Gaia",
    "sufficient factors (rank 1)",
    "sufficient factors (rank 4)",
    "3LC (adaptive, 0.5 bits)",
    "4 local steps",
    "8 local steps",
    "2 local steps + 3LC (s=1.00)",
)
