"""Every single-entry corruption of a generator block is caught.

For each model family, every +1 shift of one entry of a generator block
whose source and target degrees are <= N is planted in a fresh build, and
an exhaustive generator sweep must break on it: the commutator formula on
every ordered generator pair and every p, q in [-N, N] whose window fits,
and the translation identity on every generator and every n in [-N, N].
Nothing is sampled.
"""

import pytest

from voacert.errors import TruncationError
from voacert.graded_fock import (build_model, heisenberg_spec, lattice_spec,
                                 virasoro_spec)
from voacert.mode_engine import commutator_residual, translation_residual


def _sweep(model):
    """(residual, arguments after the model) of every residual checked."""
    gens = [g.state for g in model.generators.values()]
    span = range(-model.N, model.N + 1)
    for a in gens:
        for b in gens:
            for p in span:
                for q in span:
                    yield commutator_residual, (a, p, b, q)
    for a in gens:
        for n in span:
            yield translation_residual, (a, n)


def _broken(model) -> bool:
    for residual, args in _sweep(model):
        try:
            if not residual(model, *args).is_zero:
                return True
        except TruncationError:
            continue  # the window does not fit
    return False


def _corruptions(spec):
    """(gid, m, src, row, col, 1) for every entry of every generator block
    between degrees <= N."""
    clean = build_model(spec)
    n = spec.N
    return [(gid, src - tgt, src, row, col, 1)
            for gid in clean.generators
            for src in range(n + 1) for tgt in range(n + 1)
            for row in range(clean.dim(tgt)) for col in range(clean.dim(src))]


@pytest.mark.parametrize("spec, count", [
    (heisenberg_spec(1, 5), 361), (virasoro_spec("1/2", 6), 100),
    (virasoro_spec(1, 6), 121), (lattice_spec(2, 3), 675)],
    ids=["heisenberg(1,5)", "virasoro(1/2,6)", "virasoro(1,6)",
         "lattice(2,3)"])
def test_every_generator_block_corruption_breaks_a_residual(spec, count):
    corruptions = _corruptions(spec)
    assert len(corruptions) == count
    missed = [c for c in corruptions
              if not _broken(build_model(spec, corrupt=c))]
    assert missed == []


def test_the_sweep_finds_nothing_on_a_clean_model():
    assert not _broken(build_model(lattice_spec(2, 3)))
