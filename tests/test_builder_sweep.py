"""Hashes over the serialized output of every builder on fixed grids.

Any change to a builder's gates, their order, their labels or the text
format changes a hash.  The first grid is 1268 circuits:

* the counter and the count stage for n = 1..16, both targets, with and
  without wraparound;
* ``build_qft_phase_estimator`` for n = 1..12;
* ``build_phase_estimator(count_phase_table(n), m)`` for n <= 4, m <= 6;
* ``build_create`` for m <= 4 index and p <= 6 data qubits, on every
  constant content and on 25 seeded random contents per layout.

A second hash covers the 3610 circuits of the builders that grid leaves
out, and a third the bytes of every analytic Fourier state at n <= 10.
"""

import hashlib
import random

from qabacus import (
    ArrayContents, ArrayLayout, CountTarget, IndexPredicate,
    analytic_fourier_state, build_count_stage, build_counter, build_create,
    build_create_arithmetic, build_encoder, build_inverse_qft,
    build_phase_estimator, build_qft, build_qft_phase_estimator,
    build_update_add, count_phase_table, serialize,
)

SWEEP_SHA256 = (
    "d6c38e3e7824dd2e4310a5fc99c9ecf6744818fbd1f36eab00b3cd768c7f92be")
OTHER_BUILDERS_SHA256 = (
    "6c9540be25fb6d0661775f424938741549b0834b27ea093cd563528430d51899")
FOURIER_STATES_SHA256 = (
    "fcf54f2c767f4b670d3af6f505079362c60c955f56cb4fbc25e8b6ff63265cce")


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


def _other_builders():
    """The builders the sweep leaves out, on grids of their own."""
    for n in range(1, 11):
        yield build_qft(n)
        yield build_inverse_qft(n)
    for n in range(1, 9):
        for d in range(1 << n):
            yield build_encoder(d, n)
    for m in range(1, 5):
        for p in range(1, 7):
            layout = ArrayLayout(m, p)
            values = sorted({0, 1, 5 % (1 << p), (1 << p) - 1})
            for first in values:
                for step in values:
                    yield build_create_arithmetic(first, step, layout)
            # all, even, odd, then every (mask, match) pair with match
            # inside mask.
            predicates = [IndexPredicate.all_indices(), IndexPredicate.even(),
                          IndexPredicate.odd()]
            predicates += [IndexPredicate(mask, match)
                           for mask in range(1 << m)
                           for match in range(1 << m) if not match & ~mask]
            for predicate in predicates:
                for addend in values:
                    yield build_update_add(addend, predicate, layout)


def test_other_builders_golden():
    digest = hashlib.sha256()
    count = 0
    for circuit in _other_builders():
        digest.update(serialize(circuit).encode())
        count += 1
    assert count == 3610
    assert digest.hexdigest() == OTHER_BUILDERS_SHA256


def test_analytic_fourier_states_golden():
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 11):
        for d in range(1 << n):
            digest.update(analytic_fourier_state(d, n).amplitudes.tobytes())
            count += 1
    assert count == 2046
    assert digest.hexdigest() == FOURIER_STATES_SHA256
