"""Array-for-array equality of two :class:`CollectionStatistics`."""

import numpy as np

PACKED_ARRAYS = ("doc_lengths", "offsets", "doc_indices", "frequencies")


def assert_statistics_equal(actual, expected) -> None:
    """Assert equal docIDs (values and types), term ids in order, and arrays."""
    assert list(actual.doc_ids) == list(expected.doc_ids)
    assert [type(doc_id) for doc_id in actual.doc_ids] == [
        type(doc_id) for doc_id in expected.doc_ids
    ]
    assert list(actual.term_ids.items()) == list(expected.term_ids.items())
    for name in PACKED_ARRAYS:
        actual_array, expected_array = getattr(actual, name), getattr(expected, name)
        assert actual_array.dtype == expected_array.dtype, name
        np.testing.assert_array_equal(actual_array, expected_array, err_msg=name)
    assert actual.total_terms == expected.total_terms
