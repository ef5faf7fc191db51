"""Cuckoo-search optimization library with a Sobol-initialized, cosine-annealed
enhanced variant, a 13-function benchmark suite, rank-sum comparison tooling
and a discretized location-allocation model."""

from .allocation import (
    AllocationInstance,
    AllocationObjective,
    Assignment,
    decode,
    fitness,
    load_instance,
    load_instance_csv,
    optimal_assignment,
    synth_instance,
)
from .benchmarks import BenchmarkObjective, ObjectiveSpec, evaluate, evaluate_many, suite
from .core import Candidate, SearchBox, as_search_box
from .levy import LevyParams, mantegna_sigma
from .optimizer import CuckooSearch, EnhancedCuckooSearch, RunTrace, init_population, run_trials
from .rng import RandomSource, as_random_source, stable_seed
from .schedule import cosine_schedule
from .sobol import SobolSequence, sobol_population
from .stats import decide, rank_sum_p, summarize

__version__ = "0.1.0"

__all__ = [
    "AllocationInstance",
    "AllocationObjective",
    "Assignment",
    "BenchmarkObjective",
    "Candidate",
    "CuckooSearch",
    "EnhancedCuckooSearch",
    "LevyParams",
    "ObjectiveSpec",
    "RandomSource",
    "RunTrace",
    "SearchBox",
    "SobolSequence",
    "as_random_source",
    "as_search_box",
    "cosine_schedule",
    "decide",
    "decode",
    "evaluate",
    "evaluate_many",
    "fitness",
    "init_population",
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
