"""binary64 <-> raw bit pattern helpers."""

import struct

__all__ = ["bits_to_float", "float_to_bits"]

# Bound methods of prebuilt Structs: no format-string lookup per call.
pack_f64 = struct.Struct("<d").pack
unpack_f64 = struct.Struct("<d").unpack
pack_u64 = struct.Struct("<Q").pack
unpack_u64 = struct.Struct("<Q").unpack


def float_to_bits(f: float) -> int:
    return unpack_u64(pack_f64(f))[0]


def bits_to_float(u: int) -> float:
    return unpack_f64(pack_u64(u))[0]
