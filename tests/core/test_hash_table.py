"""Tests for the modified Robin Hood hash table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paper.reference.hash_table import RobinHoodHashTable, next_power_of_two
from repro.errors import ConfigError


class TestNextPowerOfTwo:
    def test_values(self):
        assert next_power_of_two(1) == 1
        assert next_power_of_two(2) == 2
        assert next_power_of_two(3) == 4
        assert next_power_of_two(1000) == 1024

    def test_zero_clamped(self):
        assert next_power_of_two(0) == 1


class TestBasicOperations:
    def test_put_get(self):
        ht = RobinHoodHashTable(16)
        ht.put(5, 3)
        assert ht.get(5) == 3
        assert ht.get(6) is None
        assert ht.size == 1

    def test_update_keeps_monotone_value(self):
        ht = RobinHoodHashTable(16)
        ht.put(5, 3)
        ht.put(5, 7)
        ht.put(5, 2)  # counts never decrease
        assert ht.get(5) == 7
        assert ht.size == 1

    def test_negative_key_rejected(self):
        with pytest.raises(ConfigError):
            RobinHoodHashTable(16).put(-1, 0)

    def test_scan_filters_by_value(self):
        ht = RobinHoodHashTable(16)
        ht.put(1, 5)
        ht.put(2, 2)
        keys, values = ht.scan(min_value=3)
        assert keys.tolist() == [1]
        assert values.tolist() == [5]

    def test_items(self):
        ht = RobinHoodHashTable(16)
        ht.put(1, 5)
        ht.put(2, 2)
        assert sorted(ht.items()) == [(1, 5), (2, 2)]

    def test_capacity_rounded_up(self):
        assert RobinHoodHashTable(20).capacity == 32

    def test_invalid_capacity(self):
        with pytest.raises(ConfigError):
            RobinHoodHashTable(0)


class TestExpiredOverwrite:
    def test_expired_entry_can_be_displaced(self):
        # Fill a tiny table with expired entries, then insert fresh ones:
        # with the modification this succeeds by overwriting in place.
        ht = RobinHoodHashTable(8, expired_overwrite=True)
        for key in range(8):
            ht.put(key, 1)
        for key in range(100, 108):
            ht.put(key, 10, expire_below=5)
        assert ht.expired_overwrites > 0
        for key in range(100, 108):
            assert ht.get(key) == 10

    def test_without_modification_full_table_overflows(self):
        ht = RobinHoodHashTable(8, expired_overwrite=False)
        for key in range(8):
            ht.put(key, 1)
        with pytest.raises(ConfigError):
            for key in range(100, 108):
                ht.put(key, 10, expire_below=5)

    def test_live_entries_never_overwritten(self):
        ht = RobinHoodHashTable(16, expired_overwrite=True)
        ht.put(1, 9)
        for key in range(2, 12):
            ht.put(key, 9, expire_below=5)
        assert ht.get(1) == 9  # value >= threshold survived


@settings(max_examples=40)
@given(st.dictionaries(st.integers(0, 10_000), st.integers(0, 100), max_size=60))
def test_matches_python_dict(mapping):
    ht = RobinHoodHashTable(256)
    for key, value in mapping.items():
        ht.put(key, value)
    for key, value in mapping.items():
        assert ht.get(key) == value
    assert ht.size == len(mapping)
    assert sorted(ht.items()) == sorted(mapping.items())


@settings(max_examples=20)
@given(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 30)), max_size=200))
def test_monotone_updates_keep_maximum(updates):
    ht = RobinHoodHashTable(128)
    best: dict[int, int] = {}
    for key, value in updates:
        ht.put(key, value)
        best[key] = max(best.get(key, 0), value)
    for key, value in best.items():
        assert ht.get(key) == value
