"""The trial tape of :class:`repro.fgp.bank.FgpTrialBank`.

A bank draws each trial's first D uniforms at construction, D = round-1
slots + (augmented: one per odd cycle) + one coin per odd cycle + 1,
and its trials then read the tape instead of a ``random.Random``.  The
cases below count the draws of the per-trial reference generator: no
trial ever needs more than D, and the bank's per-trial cursor lands on
exactly the reference's count, so a tape row is the sequence the trial
would have drawn.  Forks share the read-only tape.
"""

import random

import numpy as np
import pytest
from reference import subgraph_sampler_rounds

from repro.fgp.bank import FgpTrialBank
from repro.fgp.rounds import SamplerMode
from repro.graph import generators as gen
from repro.oracle.direct import DirectAugmentedOracle, DirectRelaxedOracle
from repro.patterns import pattern as zoo
from repro.transform.driver import LockstepState, run_round_adaptive

AUGMENTED, RELAXED = SamplerMode.AUGMENTED, SamplerMode.RELAXED

#: name -> (pattern, host, D in the augmented and the relaxed model).
#: Triangle: 2 slots + 1 index + 1 coin + 1; C5 and house (one 5-cycle):
#: 3 + 1 + 1 + 1; bowtie (a triangle and a 1-petal star): 3 + 1 + 1 + 1;
#: P3 (a 2-petal star): 2 + 1.
CASES = {
    "triangle": (zoo.triangle, gen.gnp(10, 0.8, rng=3), 5, 4),
    "C5": (lambda: zoo.cycle(5), gen.gnp(10, 0.8, rng=3), 6, 5),
    "bowtie": (zoo.bowtie, gen.gnp(10, 0.8, rng=3), 6, 5),
    # On a dense host one 5-cycle can witness several houses, more than
    # f_T(house) = 1, so house runs on a single house.
    "house": (zoo.house, zoo.house().graph, 6, 5),
    "P3": (lambda: zoo.path(3), gen.gnp(10, 0.8, rng=3), 3, 3),
}


class CountingRandom(random.Random):
    """A ``random.Random`` that counts its ``random()`` draws."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def oracle(mode, graph, seed=5):
    if mode == RELAXED:
        return DirectRelaxedOracle(graph, seed, failure_probability=0.1)
    return DirectAugmentedOracle(graph, seed)


@pytest.mark.parametrize("mode", [AUGMENTED, RELAXED])
@pytest.mark.parametrize("name", list(CASES))
def test_no_trial_draws_more_than_the_tape_holds(name, mode):
    make, host, augmented, relaxed = CASES[name]
    pattern, trials = make(), 2000 if name == "house" else 600
    seeds = [7000 + trial for trial in range(trials)]
    bank = FgpTrialBank(pattern, seeds, mode=mode)
    width = augmented if mode == AUGMENTED else relaxed
    assert bank._tape.shape == (trials, width)
    rngs = [CountingRandom(seed) for seed in seeds]
    reference = LockstepState(
        [subgraph_sampler_rounds(pattern, rng=rng, mode=mode) for rng in rngs]
    )
    bank_run = run_round_adaptive(bank, oracle(mode, host))
    reference_run = run_round_adaptive(reference, oracle(mode, host))
    assert bank_run.outputs == reference_run.outputs
    assert any(output is not None for output in bank_run.outputs)
    draws = np.array([rng.draws for rng in rngs])
    assert draws.max() <= width
    assert bank._cursor.tolist() == draws.tolist()


def test_a_supplied_random_advances_by_exactly_the_tape_width():
    rngs = [CountingRandom(seed) for seed in range(4)]
    bank = FgpTrialBank(zoo.triangle(), rngs)
    assert [rng.draws for rng in rngs] == [5] * 4
    for seed, row in enumerate(bank._tape.tolist()):
        twin = random.Random(seed)
        assert row == [twin.random() for _ in range(5)]
    # A run reads the tape, not the sources.
    run_round_adaptive(bank, DirectAugmentedOracle(gen.gnp(10, 0.8, rng=3), 1))
    assert [rng.draws for rng in rngs] == [5] * 4


def test_the_tape_is_read_only_and_shared_by_forks():
    bank = FgpTrialBank(zoo.triangle(), range(300))
    tape = bank._tape
    assert not tape.flags.writeable
    with pytest.raises(ValueError):
        tape[0, 0] = 0.5
    host = gen.gnp(10, 0.8, rng=3)
    outputs = run_round_adaptive(bank, DirectAugmentedOracle(host, 1)).outputs
    assert any(output is not None for output in outputs)
    forks = [bank.fork() for _ in range(2)]
    for fork in forks:
        assert fork._tape is tape and fork.live and not fork._cursor.any()
        assert run_round_adaptive(fork, DirectAugmentedOracle(host, 1)).outputs == outputs
    # Running the forks left the original run as it was.
    assert bank.outputs == outputs and not bank.live
