"""Packed bit columns built the direct way: the whole table at once.

Reference for ``privmine.SupportEstimator.columns``; it does not import
privmine. A label table is first one-hot expanded into its full
(records, bits) boolean matrix; either kind of table is then packed along
the record axis in one ``np.packbits(bits, axis=0)`` call, 8 records per
byte (the first record in the high bit), and the packed bytes are laid into
64-bit words, one row of words per bit, zero past the last record.
"""

import numpy as np


def one_hot(codes: np.ndarray, sizes) -> np.ndarray:
    """(records, sum(sizes)) booleans: record i's bit offsets[j] + codes[i, j] is set."""
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)
    bits = np.zeros((len(codes), int(sum(sizes))), dtype=bool)
    bits[np.arange(len(codes))[:, None], offsets + codes] = True
    return bits


def packed_columns(bits: np.ndarray) -> np.ndarray:
    """(bits, words) uint64: column j holds bit j of every record, 64 records per word."""
    packed = np.packbits(bits, axis=0)
    columns = np.zeros((packed.shape[1], -(-len(packed) // 8)), np.uint64)
    columns.view(np.uint8)[:, :len(packed)] = packed.T
    return columns
