"""Payloads as lists of bytes and as a trace's (n, 8) byte matrix, for the tests."""

import numpy as np


def payload_columns(payloads):
    """0-8 byte payloads as (n, 8) uint8 rows, zero past each payload, and byte counts."""
    rows = np.zeros((len(payloads), 8), dtype=np.uint8)
    for row, payload in zip(rows, payloads):
        row[:len(payload)] = np.frombuffer(payload, dtype=np.uint8)
    return rows, np.array([len(p) for p in payloads], dtype=np.int64)


def payload_list(payloads, lengths):
    """Rows and byte counts as a list of bytes."""
    return [bytes(row[:k]) for row, k in zip(payloads, np.asarray(lengths).tolist())]
