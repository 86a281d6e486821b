"""Utilities: RNG streams, table rendering, parallel fan-out, validation."""

import numpy as np
import pytest

from repro.utils.parallel import effective_jobs, map_trials
from repro.utils.rng import child_rng, make_rng, spawn_rngs
from repro.utils.tables import fmt_num, fmt_pct, format_mapping, format_table
from repro.utils.validation import as_f64, check_in, check_positive, check_prob, require


class TestRng:
    def test_child_streams_deterministic(self):
        a = child_rng(5, 1).normal(size=4)
        b = child_rng(5, 1).normal(size=4)
        assert np.array_equal(a, b)

    def test_child_streams_independent(self):
        a = child_rng(5, 1).normal(size=4)
        b = child_rng(5, 2).normal(size=4)
        assert not np.array_equal(a, b)

    def test_spawn_count(self):
        rngs = spawn_rngs(0, 5)
        assert len(rngs) == 5

    def test_make_rng_default_seed(self):
        assert np.array_equal(make_rng().normal(size=3), make_rng(None).normal(size=3))


class TestTables:
    def test_fmt_pct(self):
        assert fmt_pct(0.0719) == "7.19%"

    def test_fmt_num_zero(self):
        assert fmt_num(0) == "0"

    def test_format_table_alignment(self):
        out = format_table(["a", "bbbb"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert len({line.index("|") for line in lines if "|" in line}) == 1

    def test_format_table_title(self):
        out = format_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_format_table_cell_count_checked(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_mapping(self):
        out = format_mapping({"k": 1})
        assert "k" in out and "1" in out


class TestParallel:
    def test_effective_jobs(self):
        assert effective_jobs(4) == 4
        assert effective_jobs(None) >= 1
        assert effective_jobs(0) >= 1

    def test_effective_jobs_negative_raises(self):
        with pytest.raises(ValueError, match="jobs"):
            effective_jobs(-3)

    def test_chunk_validated(self):
        with pytest.raises(ValueError, match="chunk"):
            map_trials(_Squares, indices=range(5), jobs=1, chunk=0)

    def test_inline_path(self):
        assert map_trials(_Squares, indices=range(5), jobs=1) == [0, 1, 4, 9, 16]

    def test_factory_called_once_inline(self):
        calls = []

        def factory():
            calls.append(1)
            return _Squares()

        map_trials(factory, indices=range(10), jobs=1, chunk=3)
        assert len(calls) == 1

    def test_parallel_preserves_order(self):
        results = map_trials(_Squares, indices=range(37), jobs=2, chunk=5)
        assert results == [i * i for i in range(37)]

    def test_single_trial_runs_inline(self):
        assert map_trials(_Squares, indices=[0], jobs=8) == [0]


class _Squares:
    """Toy slice task (the class is its own factory): trial ``i`` is ``i * i``."""

    def run_many(self, indices: list[int]) -> list[int]:
        return [i * i for i in indices]


class TestValidation:
    def test_require(self):
        require(True, "ok")
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")

    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ValueError):
            check_positive("x", 0)

    def test_check_in(self):
        check_in("x", "a", ["a", "b"])
        with pytest.raises(ValueError):
            check_in("x", "c", ["a", "b"])

    def test_check_prob(self):
        check_prob("p", 0.5)
        with pytest.raises(ValueError):
            check_prob("p", 1.5)

    def test_as_f64(self):
        out = as_f64([1, 2])
        assert out.dtype == np.float64
