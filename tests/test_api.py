import ecsa

# Every public name of the package.  Adding or removing one is a deliberate
# API change: update this list with it.
PUBLIC_API = [
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
    "optimal_assignment",
    "rank_sum_p",
    "run_trials",
    "sobol_population",
    "stable_seed",
    "suite",
    "summarize",
    "synth_instance",
]


def test_public_api_is_pinned():
    assert sorted(ecsa.__all__) == PUBLIC_API


def test_every_public_name_imports():
    # a star import fails on any listed name the package does not define
    namespace = {}
    exec("from ecsa import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_API
