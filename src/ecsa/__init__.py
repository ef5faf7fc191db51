"""Cuckoo-search optimization library with a Sobol-initialized, cosine-annealed
enhanced variant, a 13-function benchmark suite, rank-sum comparison tooling
and a discretized location-allocation model."""

from .allocation import (
    AllocationInstance,
    AllocationObjective,
    decode,
    fitness,
    load_instance,
    load_instance_csv,
    optimal_assignment,
    synth_instance,
)
from .benchmarks import BenchmarkObjective, ObjectiveSpec, evaluate_many, suite
from .core import SearchBox
from .levy import mantegna_sigma
from .optimizer import CuckooSearch, EngineInputs, EnhancedCuckooSearch, RunTrace, run_trials
from .rng import RandomSource, stable_seed
from .schedule import cosine_schedule
from .sobol import SobolSequence, sobol_population
from .stats import decide, rank_sum_p, summarize

__version__ = "0.1.0"

__all__ = [
    "AllocationInstance",
    "AllocationObjective",
    "BenchmarkObjective",
    "CuckooSearch",
    "EngineInputs",
    "EnhancedCuckooSearch",
    "ObjectiveSpec",
    "RandomSource",
    "RunTrace",
    "SearchBox",
    "SobolSequence",
    "cosine_schedule",
    "decide",
    "decode",
    "evaluate_many",
    "fitness",
    "load_instance",
    "load_instance_csv",
    "mantegna_sigma",
    "optimal_assignment",
    "rank_sum_p",
    "run_trials",
    "sobol_population",
    "stable_seed",
    "suite",
    "summarize",
    "synth_instance",
]
