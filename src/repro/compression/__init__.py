"""Error-bounded lossy compression methods and the lossless baseline."""

from repro.compression.base import (CompressionResult, Compressor,
                                    check_error_bound, gzip_bytes, gunzip_bytes)
# Import order is registration order, which orders the registry's derived
# tuples; Swing registers before its subclass CAMEO.
from repro.compression.pmc import PMC
from repro.compression.swing import Swing
from repro.compression.sz import SZ
from repro.compression.cameo import Cameo
from repro.compression.lfzip import LFZip
from repro.compression.ppa import PPA
from repro.compression.gorilla import Gorilla
from repro.compression.registry import (GRID_METHODS, LOSSY_METHODS,
                                        PAPER_ERROR_BOUNDS,
                                        STREAMING_METHODS, make)
from repro.compression.streaming import (ConstantSegment, LFZipSegment,
                                          LinearSegment, OnlineLFZip,
                                          OnlinePMC, OnlineSwing, reconstruct)
from repro.compression.serialize import (compression_ratio, raw_gz_size,
                                         serialize_csv)

__all__ = [
    "Cameo",
    "LFZip",
    "PPA",
    "GRID_METHODS",
    "STREAMING_METHODS",
    "ConstantSegment",
    "LFZipSegment",
    "LinearSegment",
    "OnlineLFZip",
    "OnlinePMC",
    "OnlineSwing",
    "reconstruct",
    "CompressionResult",
    "Compressor",
    "check_error_bound",
    "gzip_bytes",
    "gunzip_bytes",
    "Gorilla",
    "PMC",
    "Swing",
    "SZ",
    "LOSSY_METHODS",
    "PAPER_ERROR_BOUNDS",
    "make",
    "compression_ratio",
    "raw_gz_size",
    "serialize_csv",
]
