"""Bitmap-kernel equivalence: every kernel is bit-for-bit the reference.

The pure-Python big-int kernel is the executable specification; the
packed numpy kernel and the compressed roaring-style kernel must answer
every :class:`~repro.booldata.index.VerticalIndex` question — including
the logical op counters — identically on any instance.  Exercised at
the edge widths (1, 63, 64, 65, 130: word boundaries and multi-word
rows) and edge row counts (0, 1, and word boundaries ±1).
"""

import random

import pytest

from repro.booldata import kernels
from repro.booldata.index import VerticalIndex, build_columns
from repro.common.bits import full_mask
from repro.common.errors import ValidationError

CONCRETE = list(kernels.available_kernels())
FAST = [k for k in CONCRETE if k != "python"]

EDGE_WIDTHS = [1, 63, 64, 65, 130]
EDGE_ROWS = [0, 1, 63, 64, 65]


def random_rows(width: int, num_rows: int, seed: int, density: float = 0.3):
    rng = random.Random(seed * 1000003 + width * 101 + num_rows)
    rows = []
    for _ in range(num_rows):
        row = 0
        for attribute in range(width):
            if rng.random() < density:
                row |= 1 << attribute
        rows.append(row)
    return rows


def random_masks(width: int, count: int, seed: int):
    rng = random.Random(seed)
    return [rng.randrange(1 << width) for _ in range(count)]


def probe(index: VerticalIndex, width: int, seed: int):
    """Answer a deterministic battery of queries; return everything."""
    rng = random.Random(seed)
    keeps = [rng.randrange(1 << width) for _ in range(8)] + [0, full_mask(width)]
    within = index.satisfied_rows(keeps[0])
    # a few rows in a few 64-row words, the last row included: on long
    # logs this is a sparse selector, which packed kernels gather
    sparse = sum(1 << tid for tid in range(0, index.num_rows, 700))
    if index.num_rows:
        sparse |= 1 << (index.num_rows - 1)
    answers = {
        "columns": index.columns,
        "used": index.used_attributes,
        "satisfied_rows": [index.satisfied_rows(k) for k in keeps],
        "satisfied_within": [index.satisfied_rows(k, within) for k in keeps],
        "satisfied_count": [index.satisfied_count(k) for k in keeps],
        "satisfied_counts": index.satisfied_counts(keeps),
        "counts_within": index.satisfied_counts(keeps, within),
        "cooccurring": [index.cooccurring_rows(k) for k in keeps],
        "cooccurring_within": [index.cooccurring_rows(k, within) for k in keeps],
        "disjoint": [index.disjoint_rows(k) for k in keeps],
        "frequencies": index.attribute_frequencies(),
        "frequencies_pooled": index.attribute_frequencies(keeps[1], within),
        "frequencies_sparse": index.attribute_frequencies(keeps[1], sparse),
    }
    if width <= 16:
        pool = index.used_attributes or keeps[1]
        size = min(2, pool.bit_count())
        answers["best_subset"] = index.best_subset(pool, size)
    answers["ops"] = index.ops_snapshot()
    return answers


@pytest.mark.parametrize("kernel", FAST)
@pytest.mark.parametrize("width", EDGE_WIDTHS)
@pytest.mark.parametrize("num_rows", EDGE_ROWS)
def test_kernels_match_reference_at_edges(kernel, width, num_rows):
    rows = random_rows(width, num_rows, seed=7)
    reference = VerticalIndex(width, rows, kernel="python")
    candidate = VerticalIndex(width, rows, kernel=kernel)
    assert candidate.kernel == kernel
    assert probe(candidate, width, seed=13) == probe(reference, width, seed=13)


@pytest.mark.parametrize("kernel", FAST)
@pytest.mark.parametrize("seed", [3, 17, 29])
def test_kernels_match_reference_on_random_instances(kernel, seed):
    rng = random.Random(seed)
    width = rng.choice([6, 14, 70, 128])
    rows = random_rows(width, rng.randrange(2, 300), seed, density=rng.random())
    reference = VerticalIndex(width, rows, kernel="python")
    candidate = VerticalIndex(width, rows, kernel=kernel)
    assert probe(candidate, width, seed) == probe(reference, width, seed)


@pytest.mark.parametrize("kernel", FAST)
@pytest.mark.parametrize(("width", "num_rows"), [(64, 1024), (70, 4099)])
def test_kernels_match_reference_on_long_logs(kernel, width, num_rows):
    rows = random_rows(width, num_rows, seed=11, density=0.05)
    reference = VerticalIndex(width, rows, kernel="python")
    candidate = VerticalIndex(width, rows, kernel=kernel)
    assert probe(candidate, width, seed=19) == probe(reference, width, seed=19)


@pytest.mark.parametrize("kernel", CONCRETE)
def test_from_columns_round_trip(kernel):
    width, rows = 67, random_rows(67, 90, seed=5)
    columns = build_columns(width, rows)
    index = VerticalIndex.from_columns(width, len(rows), columns, kernel=kernel)
    assert index.columns == columns
    assert index.num_rows == len(rows)
    rebuilt = VerticalIndex(width, rows, kernel=kernel)
    assert probe(index, width, seed=23) == probe(rebuilt, width, seed=23)


@pytest.mark.parametrize("kernel", CONCRETE)
def test_merge_and_drop_prefix_match_a_rebuild(kernel):
    width = 70
    first = random_rows(width, 40, seed=1)
    second = random_rows(width, 100, seed=2)
    store = kernels.store_class(kernel).build(width, first)
    store.merge_rows(second, len(first))
    assert store.num_rows == len(first) + len(second)
    assert store.int_columns() == build_columns(width, first + second)
    store.drop_prefix(30)
    assert store.num_rows == len(first) + len(second) - 30
    assert store.int_columns() == build_columns(width, (first + second)[30:])


@pytest.mark.parametrize("kernel", CONCRETE)
def test_clone_is_independent(kernel):
    width, rows = 65, random_rows(65, 70, seed=9)
    store = kernels.store_class(kernel).build(width, rows)
    twin = store.clone()
    store.merge_rows([full_mask(width)], len(rows))
    assert twin.int_columns() == build_columns(width, rows)
    assert twin.num_rows == len(rows)


@pytest.mark.parametrize("kernel", CONCRETE)
def test_memory_bytes_is_positive_and_int(kernel):
    index = VerticalIndex(64, random_rows(64, 200, seed=4), kernel=kernel)
    assert isinstance(index.memory_bytes(), int)
    assert index.memory_bytes() > 0


def test_compressed_is_smaller_on_sparse_logs():
    rows = random_rows(64, 5000, seed=8, density=0.002)
    dense = VerticalIndex(64, rows, kernel="python")
    sparse = VerticalIndex(64, rows, kernel="compressed")
    assert sparse.memory_bytes() < dense.memory_bytes()
    assert sparse.columns == dense.columns


class TestRegistry:
    def test_validate_rejects_unknown_names(self):
        with pytest.raises(ValidationError, match="unknown kernel"):
            kernels.validate_kernel("bitslice")

    def test_choices_cover_kernels_plus_auto(self):
        assert set(kernels.KERNEL_CHOICES) == set(kernels.KERNELS) | {"auto"}

    def test_concrete_names_resolve_to_themselves(self):
        for kernel in kernels.available_kernels():
            assert kernels.resolve_kernel(kernel) == kernel

    def test_auto_prefers_python_on_small_logs(self):
        assert kernels.resolve_kernel("auto", num_rows=10) == "python"

    def test_auto_prefers_numpy_on_large_logs(self, monkeypatch):
        monkeypatch.setattr(kernels, "_numpy_available", True)
        resolved = kernels.resolve_kernel(
            "auto", num_rows=kernels.AUTO_NUMPY_MIN_ROWS
        )
        assert resolved == "numpy"

    def test_auto_without_numpy_picks_compressed_for_huge_sparse(
        self, monkeypatch
    ):
        monkeypatch.setattr(kernels, "_numpy_available", False)
        resolved = kernels.resolve_kernel(
            "auto", num_rows=kernels.AUTO_COMPRESSED_MIN_ROWS, density=0.001
        )
        assert resolved == "compressed"

    def test_auto_without_numpy_keeps_python_for_dense(self, monkeypatch):
        monkeypatch.setattr(kernels, "_numpy_available", False)
        resolved = kernels.resolve_kernel(
            "auto", num_rows=kernels.AUTO_COMPRESSED_MIN_ROWS, density=0.5
        )
        assert resolved == "python"

    def test_numpy_request_without_numpy_is_a_validation_error(
        self, monkeypatch
    ):
        monkeypatch.setattr(kernels, "_numpy_available", False)
        with pytest.raises(ValidationError, match="repro\\[fast\\]"):
            kernels.resolve_kernel("numpy")
        with pytest.raises(ValidationError, match="not installed"):
            kernels.store_class("numpy")
        assert kernels.available_kernels() == ("python", "compressed")

    def test_store_classes_carry_their_kernel_name(self):
        for kernel in kernels.available_kernels():
            assert kernels.store_class(kernel).kernel == kernel
