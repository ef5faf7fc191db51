import ast
from pathlib import Path

import ecsa

PACKAGE = Path(ecsa.__file__).parent

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


def _text_file_calls_without_encoding(source: str) -> list[int]:
    """Lines of the ``open``, ``.open``, ``.read_text`` and ``.write_text`` calls that leave
    the encoding to the locale: no ``encoding=`` and no binary mode."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode_index = 1
        elif isinstance(func, ast.Attribute) and func.attr in ("open", "read_text", "write_text"):
            mode_index = 0 if func.attr == "open" else None
        else:
            continue
        keywords = {keyword.arg: keyword.value for keyword in node.keywords}
        mode = keywords.get("mode")
        if mode is None and mode_index is not None and len(node.args) > mode_index:
            mode = node.args[mode_index]
        binary = isinstance(mode, ast.Constant) and "b" in str(mode.value)
        if "encoding" not in keywords and not binary:
            lines.append(node.lineno)
    return lines


def test_text_files_name_their_encoding():
    # a file opened without an encoding reads and writes in the locale's,
    # which is ASCII under LC_ALL=C
    found = {
        str(path.relative_to(PACKAGE)): lines
        for path in sorted(PACKAGE.rglob("*.py"))
        if (lines := _text_file_calls_without_encoding(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_encoding_scan_finds_each_call_form():
    source = (
        "open(p)\n"
        "open(p, 'rb')\n"
        "open(p, mode='wb')\n"
        "open(p, 'w', encoding='utf-8')\n"
        "path.open()\n"
        "path.open('rb')\n"
        "path.read_text()\n"
        "path.write_text(text, encoding='utf-8')\n"
        "path.write_text(text)\n"
        "path.read_bytes()\n"
    )
    assert _text_file_calls_without_encoding(source) == [1, 5, 7, 9]
