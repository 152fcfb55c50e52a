"""One hash over the serialized output of every builder on a fixed grid.

Any change to a builder's gates, their order, their labels or the text
format changes the hash.  The grid is 1268 circuits:

* the counter and the count stage for n = 1..16, both targets, with and
  without wraparound;
* ``build_qft_phase_estimator`` for n = 1..12;
* ``build_phase_estimator(count_phase_table(n), m)`` for n <= 4, m <= 6;
* ``build_create`` for m <= 4 index and p <= 6 data qubits, on every
  constant content and on 25 seeded random contents per layout.
"""

import hashlib
import random

from qabacus import (
    ArrayContents, ArrayLayout, CountTarget, build_count_stage, build_counter,
    build_create, build_phase_estimator, build_qft_phase_estimator,
    count_phase_table, serialize,
)

SWEEP_SHA256 = (
    "d6c38e3e7824dd2e4310a5fc99c9ecf6744818fbd1f36eab00b3cd768c7f92be")


def _sweep():
    for n in range(1, 17):
        for target in CountTarget:
            for wrap in (False, True):
                yield build_count_stage(n, target, allow_wraparound=wrap)
                yield build_counter(n, target, allow_wraparound=wrap)
    for n in range(1, 13):
        yield build_qft_phase_estimator(n)
    for n in range(1, 5):
        for m in range(1, 7):
            yield build_phase_estimator(count_phase_table(n), m)
    for m in range(1, 5):
        for p in range(1, 7):
            layout = ArrayLayout(m, p)
            for v in range(1 << p):
                yield build_create(ArrayContents((v,) * layout.length), layout)
            for seed in range(25):
                rng = random.Random(seed)
                values = tuple(rng.randrange(1 << p)
                               for _ in range(layout.length))
                yield build_create(ArrayContents(values), layout)


def test_builder_sweep_golden():
    digest = hashlib.sha256()
    count = 0
    for circuit in _sweep():
        digest.update(serialize(circuit).encode())
        count += 1
    assert count == 1268
    assert digest.hexdigest() == SWEEP_SHA256
