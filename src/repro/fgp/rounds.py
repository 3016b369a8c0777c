"""The FGP sampler's round structure and vocabulary (Lemma 16 / 18).

One execution ("attempt", or "trial") tries to sample a single copy of
the pattern H and returns either a frozenset of host edges (the copy)
or ``None``.  For
every fixed copy of H in G, the return probability is exactly
1/(2m)^ρ(H) in the augmented model (Lemma 15/16) and (1±o(1)) of that
in the relaxed model (Lemma 18).

Round structure (matching the proof of Lemma 16):

1. f1 edge samples for all decomposition pieces (one *extra* edge per
   odd cycle, used by the high-degree wedge branch) + the edge count;
2. one wedge-completion query per odd cycle — the indexed neighbor
   f3(u, j) with j uniform in [√(2m)] in the augmented model
   (Algorithm 1), or the random-neighbor f3(u) plus an acceptance
   coin in the relaxed model (Algorithm 5);
3. all-pairs adjacency (f4) and degrees (f2) of the sampled vertices.

Postprocessing performs the canonicality checks of Definitions 13–14
and the branch/acceptance coins of SampleWedge (Algorithm 6), then
resolves which copy (if any) the sampled piece-family witnesses,
returning each witnessed copy with probability exactly 1/f_T(H).

The structure does not depend on the input: an attempt whose samples
failed still asks rounds 2 and 3.  So the k attempts of an estimator
are one array program, :class:`repro.fgp.bank.FgpTrialBank`, which
issues each round for all of them at once.

Indexing note: the paper's Algorithm 1 writes ⌈c_i/2⌉ + 1 edges per
cycle; for an odd cycle of length c = 2k+1 the sampler needs k path
edges plus one extra edge, i.e. ⌊c/2⌋ + 1 — we follow the ⌊·⌋ reading,
which is the only one consistent with Algorithms 7 and 9.
"""

from __future__ import annotations

from typing import FrozenSet

from repro.graph.graph import Edge

#: A sampled copy of H: the frozenset of its host edges.
SampledCopy = FrozenSet[Edge]


class SamplerMode:
    """Which query dialect the sampler speaks.

    ``AUGMENTED`` uses indexed neighbor queries (Definition 6) and is
    valid for direct oracles and insertion-only streams (Theorem 9).
    ``RELAXED`` uses random-neighbor queries plus an extra acceptance
    coin (Definition 10) and is valid for relaxed direct oracles and
    turnstile streams (Theorem 11).
    """

    AUGMENTED = "augmented"
    RELAXED = "relaxed"


#: Wedge-branch ablation settings (experiment A1): the correct sampler
#: uses BOTH branches of SampleWedge; forcing one shows the bias each
#: branch alone would incur.
WEDGE_BOTH = "both"
WEDGE_LOW_ONLY = "low_only"
WEDGE_HIGH_ONLY = "high_only"
