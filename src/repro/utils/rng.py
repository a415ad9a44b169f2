"""Random-number-generator plumbing.

Every stochastic routine in :mod:`repro` accepts an ``rng`` argument that may
be ``None`` (fresh entropy), an integer seed, or an existing
:class:`numpy.random.Generator`.  :func:`normalize_rng` converts any of those
into a ``Generator`` so call sites stay one line long, and
:func:`spawn_rngs` derives independent child generators for parallel or
repeated experiment instances without seed reuse.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

RngLike = "int | np.random.Generator | np.random.SeedSequence | None"


def normalize_rng(rng=None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted ``rng`` spec.

    Parameters
    ----------
    rng:
        ``None`` for OS entropy, an ``int`` seed, a
        :class:`numpy.random.SeedSequence`, or an existing ``Generator``
        (returned unchanged).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    if rng is None or isinstance(rng, (int, np.integer)):
        return np.random.default_rng(rng)
    raise TypeError(
        f"rng must be None, an int seed, a SeedSequence, or a Generator; "
        f"got {type(rng).__name__}"
    )


def copy_sequence(seq: np.random.SeedSequence) -> np.random.SeedSequence:
    """Fresh :class:`~numpy.random.SeedSequence` with the same seed data.

    ``SeedSequence.spawn`` advances the parent's spawn counter in place, so
    spawning from a caller-supplied sequence would silently consume it: the
    next spawn from the same object yields *different* children.  Repeated
    runs must derive the same children from one seed spec, so the
    derivation must be a pure function of the seed data — spawning from a
    copy keeps the caller's object untouched.
    """
    return np.random.SeedSequence(
        entropy=seq.entropy, spawn_key=seq.spawn_key, pool_size=seq.pool_size
    )


def spawn_rngs(rng, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent child generators.

    The parent spec is normalised first; children are produced through
    ``SeedSequence.spawn`` semantics (via ``Generator.spawn`` when available)
    so repeated experiment instances never share streams.

    A :class:`~numpy.random.SeedSequence` parent is treated as a *value*
    (pure seed data), not a stateful object: spawning happens on a copy, so
    the same sequence always derives the same children and the caller's
    object is never consumed.  Pass a ``Generator`` for stateful spawning.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if count == 0:
        # Validate the spec but never touch a parent's spawn state for an
        # empty ensemble.
        normalize_rng(rng)
        return []
    if isinstance(rng, np.random.SeedSequence):
        children = copy_sequence(rng).spawn(count)
        return [np.random.default_rng(child) for child in children]
    parent = normalize_rng(rng)
    return list(parent.spawn(count))


def stream_for(name: str, seed: int) -> np.random.Generator:
    """Return a generator keyed by a string label and base seed.

    Used by the experiment harness so each figure's workload draws from its
    own named stream: changing one experiment never perturbs another.

    ``seed`` may be any Python int (sweeps derive labelled seeds
    arithmetically, which can go negative or exceed 64 bits); it is folded
    into ``SeedSequence``'s accepted range rather than rejected.
    """
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    digest = np.frombuffer(name.encode("utf-8"), dtype=np.uint8)
    entropy = (int(digest.sum()) * 1_000_003 + len(name) * 7919) ^ seed
    return np.random.default_rng(np.random.SeedSequence([seed, entropy & 0xFFFFFFFF]))


def choice_without_replacement(
    rng: np.random.Generator, population: int, size: int
) -> np.ndarray:
    """Sample ``size`` distinct indices from ``range(population)``, sorted.

    Thin wrapper that keeps the "sorted, unique" contract used by the
    samplers in one place.
    """
    if size > population:
        raise ValueError(
            f"cannot draw {size} distinct indices from a population of {population}"
        )
    picked = rng.choice(population, size=size, replace=False)
    picked.sort()
    return picked


def split_sequence(seed: int, labels: Sequence[str]) -> dict[str, np.random.Generator]:
    """Build a dict of named generators from one seed (one per label)."""
    seq = np.random.SeedSequence(seed)
    children = seq.spawn(len(labels))
    return {label: np.random.default_rng(child) for label, child in zip(labels, children)}
