"""Small-world classification via the omega index.

omega = <l>_rand / <l>  -  <C> / <C>_lattice

compares the empirical path length against a degree-matched random null
and the empirical clustering against a degree-matched lattice null.
Values near zero indicate a small world, negative values a more regular
(lattice-like) topology, positive values a more random one.

The null-model ensemble defaults live here rather than in ``null_models``
so that ``cli`` can read them without importing that module, the one
that loads numpy; ``null_models`` imports them from here.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Optional

from .exceptions import ComputeError
from .graph import SpatialGraph
from .measures import clustering, path_length_and_diameter

if TYPE_CHECKING:
    from .null_models import NullModelEnsemble

DEFAULT_THRESHOLD = 0.3
DEFAULT_SWAPS_PER_EDGE = 10
DEFAULT_REPLICATES = 20


class ZeroClusteringError(ComputeError):
    pass


class UnmovedNullModelError(ComputeError):
    pass


class OmegaResult(NamedTuple):
    l_emp: float
    c_emp: float
    l_rand: float
    c_latt: float
    omega: float
    classification: str  # "lattice-like" | "small-world" | "random-like"
    threshold: float
    in_range: bool  # False flags omega outside [-1, 1]; never clamped
    per_replicate_omegas: tuple[float, ...] = ()


def classify(omega_value: float, threshold: float = DEFAULT_THRESHOLD) -> str:
    if omega_value < -threshold:
        return "lattice-like"
    if omega_value > threshold:
        return "random-like"
    return "small-world"


def omega_from_stats(
    l_emp: float,
    c_emp: float,
    l_rand: float,
    c_latt: float,
    threshold: float = DEFAULT_THRESHOLD,
    per_replicate_omegas: tuple[float, ...] = (),
) -> OmegaResult:
    """Omega from the four precomputed statistics."""
    if c_latt == 0:
        raise ZeroClusteringError("lattice clustering is 0; omega is undefined")
    if l_emp <= 0:
        raise ComputeError(f"empirical path length must be positive, got {l_emp}")
    value = l_rand / l_emp - c_emp / c_latt
    return OmegaResult(l_emp, c_emp, l_rand, c_latt, value, classify(value, threshold),
                       threshold, -1.0 <= value <= 1.0, per_replicate_omegas)


def omega(
    g: SpatialGraph,
    rand_ensemble: NullModelEnsemble,
    latt_ensemble: NullModelEnsemble,
    threshold: float = DEFAULT_THRESHOLD,
    l_emp: Optional[float] = None,
    c_emp: Optional[float] = None,
) -> OmegaResult:
    """Omega for a graph given its two null-model ensembles.

    Ensemble means feed the index; per-replicate omegas (pairing the
    i-th random with the i-th lattice replicate) are attached for
    variance inspection. ``l_emp`` (binary average path length) and
    ``c_emp`` (average clustering) of ``g`` are computed unless the
    caller already has them. Raises UnmovedNullModelError when no random
    replicate accepted a swap: the random reference is then the input
    itself, and omega compares the graph with nothing.
    """
    if rand_ensemble.kind != "random" or latt_ensemble.kind != "lattice":
        raise ValueError(
            f"expected (random, lattice) ensembles, got "
            f"({rand_ensemble.kind!r}, {latt_ensemble.kind!r})"
        )
    for ensemble in (rand_ensemble, latt_ensemble):
        replicate = ensemble.replicates[0]
        if replicate.n != g.n or replicate.m != g.m:
            raise ValueError("ensemble does not match the graph (n or m differ)")
    if not any(stats.accepted_swaps for stats in rand_ensemble.stats.per_replicate):
        raise UnmovedNullModelError(
            "no random replicate accepted a swap (a rigid input, or zero swaps per edge), "
            "so the random reference is the input itself; omega is undefined")
    if l_emp is None:
        l_emp = path_length_and_diameter(g, "binary").average
    if c_emp is None:
        c_emp = clustering(g).average

    per_rep = []
    pairs = zip(rand_ensemble.stats.per_replicate, latt_ensemble.stats.per_replicate)
    for rand_stats, latt_stats in pairs:
        if latt_stats.clustering > 0 and l_emp > 0:
            per_rep.append(rand_stats.path_length / l_emp - c_emp / latt_stats.clustering)
        else:
            per_rep.append(math.nan)

    return omega_from_stats(l_emp, c_emp, rand_ensemble.stats.mean_path_length,
                            latt_ensemble.stats.mean_clustering, threshold, tuple(per_rep))
