"""Public API surface tests: imports, __all__, and version."""

import importlib

import pytest


PACKAGES = [
    "repro",
    "repro.cache",
    "repro.cluster",
    "repro.core",
    "repro.engine",
    "repro.obs",
    "repro.workloads",
    "repro.apps",
    "repro.bench",
]


class TestImports:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_package_imports(self, name):
        module = importlib.import_module(name)
        assert module is not None

    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_entries_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.{symbol} missing"

    def test_version(self):
        import repro

        assert repro.__version__

    def test_quickstart_docstring_is_runnable_shape(self):
        """The README/`repro` docstring snippet's API calls all exist."""
        from repro import DatasetCollection, HashPartitioner, StarkContext

        sc = StarkContext(num_workers=2, cores_per_worker=2)
        hours = DatasetCollection(sc, HashPartitioner(2), namespace="logs",
                                  window=2)
        for hour in range(3):
            hours.add(hour, sc.parallelize([(k, hour) for k in range(50)], 2))
        assert sorted(hours.steps) == [1, 2]
        rdds = list(hours.steps.values())
        merged = rdds[0].cogroup(*rdds[1:])
        assert merged.count() == 50
