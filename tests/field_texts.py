"""Field texts the columnar readers and the line parsers might read differently.

Shared by the properties that hold each `_loadtxt` reader to its line
parser: the gt/results table (tests/test_metrics.py), the detection columns
and the embedding block (tests/test_io.py).
"""

# Signs, padding, leading zeros, separators, floats and exponents int()
# rejects, hex, full-width digits, keys past int64, non-finite and
# overflowing values, zero and negative sides, empties.
INT_TEXTS = ["0", "1", "2", "-1", "+1", " 1", "0001", "1_0", "1.0", "1e0", "0x1", "１",
             "9223372036854775808", "99999999999999999999", ""]
REAL_TEXTS = ["0", "-0.0", "-2", "2", "+1", " 3", "1_0", "0x1", "１", "1d5", ".5",
              "inf", "-inf", "nan", "1e400", "1e-400", ""]
# (leading, trailing) whitespace a data line may carry; both parsers strip it.
EDGE_PADS = [("\t", ""), ("", " "), (" ", "\t"), ("  ", "  ")]
