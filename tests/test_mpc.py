"""Tests for the MPC simulator substrate (config, tables, primitives)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpc import (
    DistributedTable,
    MPCConfig,
    MPCSimulator,
    MPCViolation,
    find_min_by_group,
    join_lookup,
    reduce_by_key,
    segment_broadcast,
    sort_table,
)


@pytest.fixture
def sim():
    return MPCSimulator(MPCConfig(n=1000, gamma=0.5, total_words=5000))


def _table(sim, **cols):
    return DistributedTable(sim, {k: np.asarray(v) for k, v in cols.items()})


class TestConfig:
    def test_machine_memory_scales(self):
        c1 = MPCConfig(n=10**4, gamma=0.5, total_words=10**5)
        c2 = MPCConfig(n=10**4, gamma=0.25, total_words=10**5)
        assert c1.machine_memory > c2.machine_memory

    def test_num_machines_cover_input(self):
        c = MPCConfig(n=100, gamma=0.5, total_words=10**6)
        assert c.num_machines * c.machine_memory >= 10**6

    def test_tree_levels_grow_as_gamma_shrinks(self):
        levels = [
            MPCConfig(n=10**4, gamma=g, total_words=10**6).tree_levels()
            for g in (0.8, 0.4, 0.2)
        ]
        assert levels[0] <= levels[1] <= levels[2]

    def test_rounds_for_map_free(self):
        c = MPCConfig(n=100, gamma=0.5, total_words=1000)
        assert c.rounds_for("map") == 0
        assert c.rounds_for("sort") >= 2
        with pytest.raises(KeyError):
            c.rounds_for("teleport")

    def test_validation(self):
        with pytest.raises(ValueError):
            MPCConfig(n=0, gamma=0.5, total_words=10)
        with pytest.raises(ValueError):
            MPCConfig(n=10, gamma=1.5, total_words=10)


class TestDistributedTable:
    def test_even_partition(self, sim):
        t = _table(sim, x=np.arange(100))
        loads = t.machine_loads()
        assert loads.max() <= sim.config.machine_memory

    def test_memory_violation_detected(self):
        # Tiny machines, bulky table on one machine -> violation.
        sim = MPCSimulator(MPCConfig(n=4, gamma=0.5, total_words=64, memory_constant=1.0))
        with pytest.raises(MPCViolation):
            DistributedTable(
                sim,
                {"x": np.arange(1000)},
                machine_of=np.zeros(1000, dtype=np.int64),
            )

    def test_column_length_mismatch(self, sim):
        with pytest.raises(ValueError):
            _table(sim, a=np.arange(5), b=np.arange(6))

    def test_with_columns_budget(self, sim):
        t = DistributedTable(sim, {"a": np.arange(10)}, words_per_record=2)
        t2 = t.with_columns(b=np.arange(10))
        assert len(t2) == 10
        with pytest.raises(ValueError, match="budget"):
            t2.with_columns(c=np.arange(10), d=np.arange(10))

    def test_select_is_free(self, sim):
        t = _table(sim, x=np.arange(50))
        before = sim.rounds
        t2 = t.select(t["x"] % 2 == 0)
        assert len(t2) == 25
        assert sim.rounds == before


class TestPrimitives:
    def test_sort_correct_and_charged(self, sim):
        t = _table(sim, k=np.array([3, 1, 2, 1]), v=np.array([9, 8, 7, 6]))
        before = sim.rounds
        s = sort_table(t, ["k", "v"])
        assert s["k"].tolist() == [1, 1, 2, 3]
        assert s["v"].tolist() == [6, 8, 7, 9]
        assert sim.rounds > before

    def test_find_min_by_group(self, sim):
        t = _table(
            sim,
            g=np.array([0, 0, 1, 1, 1]),
            w=np.array([5.0, 2.0, 9.0, 1.0, 1.0]),
            tag=np.array([10, 20, 30, 40, 50]),
        )
        out = find_min_by_group(t, ["g"], "w", tie_key="tag")
        assert out["g"].tolist() == [0, 1]
        assert out["w"].tolist() == [2.0, 1.0]
        assert out["tag"].tolist() == [20, 40]  # tie broken by tag

    @pytest.mark.parametrize(
        "op,expect",
        [("sum", [7.0, 11.0]), ("min", [2.0, 1.0]), ("max", [5.0, 9.0]), ("count", [2, 3])],
    )
    def test_reduce_by_key(self, sim, op, expect):
        t = _table(
            sim,
            g=np.array([0, 0, 1, 1, 1]),
            v=np.array([5.0, 2.0, 9.0, 1.0, 1.0]),
        )
        out = reduce_by_key(t, ["g"], "v", op)
        assert out["value"].tolist() == pytest.approx(expect)

    def test_reduce_unknown_op(self, sim):
        t = _table(sim, g=np.array([0]), v=np.array([1.0]))
        with pytest.raises(ValueError):
            reduce_by_key(t, ["g"], "v", "median")

    def test_segment_broadcast(self, sim):
        t = DistributedTable(
            sim,
            {
                "g": np.array([1, 0, 1, 0]),
                "v": np.array([10, 20, 30, 40]),
            },
            words_per_record=3,
        )
        out = segment_broadcast(t, ["g"], "v", "lead")
        # sorted by g: group 0 leader value 20, group 1 leader value 10
        got = {(int(a), int(b)) for a, b in zip(out["g"], out["lead"])}
        assert got == {(0, 20), (1, 10)}

    def test_join_lookup(self, sim):
        t = DistributedTable(sim, {"k": np.array([5, 3, 9])}, words_per_record=2)
        out = join_lookup(t, "k", np.array([3, 5]), np.array([30, 50]), "val")
        assert out["val"].tolist() == [50, 30, -1]

    def test_join_lookup_empty_lookup(self, sim):
        t = DistributedTable(sim, {"k": np.array([1, 2])}, words_per_record=2)
        out = join_lookup(t, "k", np.zeros(0, dtype=np.int64), np.zeros(0), "val", default=7)
        assert out["val"].tolist() == [7, 7]

    def test_join_lookup_missing_and_negative_keys_get_default(self, sim):
        t = DistributedTable(sim, {"k": np.array([-1, 4, 2, 100, -7, 0])}, words_per_record=2)
        out = join_lookup(t, "k", np.array([0, 2, 3]), np.array([10, 20, 30]), "val", default=-5)
        assert out["val"].tolist() == [-5, -5, 20, -5, -5, 10]

    def test_join_lookup_duplicate_key_first_occurrence_wins(self, sim):
        t = DistributedTable(sim, {"k": np.array([1, 2, 1, 3])}, words_per_record=2)
        # Dense keys and sparse keys (the binary-search path) agree.
        for base in (0, 10**9):
            keys = np.array([2, 1, 1, 2]) + base
            tt = t.with_columns(k=t["k"] + base)
            out = join_lookup(tt, "k", keys, np.array([7, 8, 9, 6]), "val")
            assert out["val"].tolist() == [8, 7, 8, -1]

    @pytest.mark.parametrize(
        "values, default, dtype",
        [
            (np.array([1, 2], dtype=np.int64), -1, np.int64),
            (np.array([1, 2], dtype=np.int32), -1, np.int32),
            (np.array([0.5, 1.5]), -1, np.float64),
            (np.array([1, 0], dtype=np.int64), 0, np.int64),
            (np.array([True, False]), False, np.bool_),
        ],
    )
    def test_join_lookup_output_dtype(self, sim, values, default, dtype):
        t = DistributedTable(sim, {"k": np.array([3, 8, 4])}, words_per_record=2)
        for keys in (np.array([3, 4]), np.array([-3, 4])):
            tt = t.with_columns(k=np.where(t["k"] == 3, keys[0], t["k"]))
            out = join_lookup(tt, "k", keys, values, "val", default=default)
            assert out["val"].dtype == dtype
            assert out["val"].tolist() == [values[0], default, values[1]]

    def test_join_lookup_matches_merge_join(self, sim):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lk = rng.integers(-3, rng.integers(1, 40), size=rng.integers(1, 20))
            lv = rng.integers(0, 100, size=lk.size)
            keys = rng.integers(-2, 45, size=rng.integers(0, 30))
            t = DistributedTable(sim, {"k": keys}, words_per_record=2)
            order = np.argsort(lk, kind="stable")
            pos = np.clip(np.searchsorted(lk[order], keys), 0, lk.size - 1)
            want = np.where(lk[order][pos] == keys, lv[order][pos], -1)
            np.testing.assert_array_equal(join_lookup(t, "k", lk, lv, "val")["val"], want)

    def test_round_accounting_accumulates(self, sim):
        t = _table(sim, k=np.arange(20))
        r0 = sim.rounds
        sort_table(t, ["k"])
        r1 = sim.rounds
        sort_table(t, ["k"])
        assert r1 - r0 == sim.rounds - r1  # constant per call
        assert len(sim.log) == 2
        assert sim.summary()["rounds"] == sim.rounds
