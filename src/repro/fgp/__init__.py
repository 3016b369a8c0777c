"""The FGP subgraph sampler [FGP20] and its counting wrappers.

The sampler's round structure (Lemma 16 = "it has 3 rounds") is laid
out in :mod:`repro.fgp.rounds` and implemented once, for all k
attempts of an estimator at a time, by :class:`FgpTrialBank`.
Driving the bank against a direct oracle gives the sublinear-time
algorithm of Algorithms 6–9; driving it against a stream oracle gives
the 3-pass streaming samplers of Theorem 17 (insertion-only) and
Lemma 18 / Theorem 1 (turnstile).
"""

from repro.fgp.bank import FgpTrialBank
from repro.fgp.rounds import SamplerMode
from repro.fgp.counting import (
    count_subgraph_query_model,
    sample_subgraph_once,
    sample_subgraph_uniformly,
)

__all__ = [
    "FgpTrialBank",
    "SamplerMode",
    "count_subgraph_query_model",
    "sample_subgraph_once",
    "sample_subgraph_uniformly",
]
