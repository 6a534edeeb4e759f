"""Fixed-point quantized tensors.

DNNDK's DECENT tool converts floating-point CNNs to fixed-point models with
at most INT8 precision (Section 3.1 of the paper); the paper evaluates INT8
down to INT4 (Section 6.1).  We implement symmetric power-of-two
quantization — the scheme DECENT uses — where a tensor is stored as signed
integers of width ``bits`` plus a per-tensor fractional-bit count:

    real_value = stored_int * 2^(-frac_bits)

Bit flips injected by :mod:`repro.faults` operate directly on the stored
integer words, so a flipped MSB produces the large excursions the paper
observes below the guardband.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QuantizationError

#: Bit-widths DECENT supports without "significant accuracy loss" (S6.1):
#: INT8..INT4.  INT3 and below lose too much accuracy even at Vnom and the
#: paper excludes them; we reject them at the API boundary.
SUPPORTED_BITS = (4, 5, 6, 7, 8)


@dataclass(frozen=True)
class QuantFormat:
    """A symmetric fixed-point format: ``bits`` total, ``frac_bits`` fractional."""

    bits: int
    frac_bits: int

    def __post_init__(self):
        if self.bits not in SUPPORTED_BITS:
            raise QuantizationError(
                f"INT{self.bits} is not supported (DECENT supports INT8..INT4; "
                f"INT3 and below lose accuracy even at Vnom)"
            )

    @property
    def scale(self) -> float:
        """Real value of one integer step."""
        return 2.0 ** (-self.frac_bits)

    @property
    def qmin(self) -> int:
        return -(1 << (self.bits - 1))

    @property
    def qmax(self) -> int:
        return (1 << (self.bits - 1)) - 1

    @property
    def max_real(self) -> float:
        return self.qmax * self.scale

    def __str__(self) -> str:
        return f"INT{self.bits}(Q{self.bits - 1 - self.frac_bits}.{self.frac_bits})"


def frac_bits_for_peak(peak: float, bits: int) -> int:
    """Fractional-bit count covering a tensor whose absolute peak is ``peak``.

    This is DECENT's calibration rule: the largest power-of-two scale whose
    representable range still contains the extrema.  Exposed separately
    from :func:`choose_frac_bits` so callers that track peaks incrementally
    (the copy-on-divergence repeat executor) apply the byte-identical rule.
    """
    if bits not in SUPPORTED_BITS:
        raise QuantizationError(f"INT{bits} is not supported")
    # Tiny (incl. subnormal) peaks behave like zero: the clamp window below
    # caps frac at 16 anyway, and log2 would overflow on them.
    if peak < 2.0 ** -24:
        return bits - 1
    qmax = (1 << (bits - 1)) - 1
    # Want peak <= qmax * 2^-frac  =>  frac <= log2(qmax / peak).
    frac = int(np.floor(np.log2(qmax / peak)))
    # Clamp to a sane window so degenerate tensors stay representable.
    return int(np.clip(frac, -16, 16))


def choose_frac_bits(data: np.ndarray, bits: int) -> int:
    """Pick the fractional-bit count that covers ``data`` without overflow."""
    peak = float(np.max(np.abs(data))) if data.size else 0.0
    return frac_bits_for_peak(peak, bits)


def quantize_array(data: np.ndarray, fmt: QuantFormat) -> np.ndarray:
    """Quantize a float array into stored-integer form (int32, saturated).

    float32 inputs take a same-precision fast path: scaling by a power of
    two is exact in either precision (an exponent shift; overflow saturates
    through the clip, and sub-denormal losses all round to zero), so the
    fast path lands bit-identical integers to the float64 reference while
    skipping the widening copy.
    """
    data = np.asarray(data)
    if data.dtype == np.float32:
        # Overflow to inf is fine: the clip saturates it, matching the
        # float64 reference.
        with np.errstate(over="ignore"):
            scaled = np.round(data * np.float32(2.0 ** fmt.frac_bits))
    else:
        scaled = np.round(np.asarray(data, dtype=np.float64) / fmt.scale)
    return np.clip(scaled, fmt.qmin, fmt.qmax).astype(np.int32)


def dequantize_array(stored: np.ndarray, fmt: QuantFormat) -> np.ndarray:
    """Recover real values from stored integers."""
    return stored.astype(np.float32) * np.float32(fmt.scale)


def saturate(stored: np.ndarray, fmt: QuantFormat) -> np.ndarray:
    """Saturate stored integers into the format's representable range."""
    return np.clip(stored, fmt.qmin, fmt.qmax)


def flip_stored_bits(
    stored: np.ndarray,
    width: int,
    flat_indices: np.ndarray,
    bit_positions: np.ndarray,
) -> None:
    """XOR the given bit of the stored word at each flat index, in place.

    Bits index the two's-complement representation *within the format
    width*: bit ``width-1`` is the sign bit.  The result is re-wrapped
    into the signed range (a flipped sign bit swings the value across
    zero, exactly like a latch upset in a signed datapath).  One call
    flips every site of a whole stacked repeat batch at once; XOR
    commutes, so the merged pass lands the same words as per-repeat
    passes would.
    """
    mask = (1 << width) - 1
    flat = stored.reshape(-1)
    # Touch only the flipped words, not the whole tensor: gather the hit
    # sites, XOR, scatter back.  ufunc.at accumulates, so repeated sites
    # (mapped through `inverse`) XOR sequentially — plain fancy-index
    # assignment would silently drop all but one flip.
    sites, inverse = np.unique(flat_indices, return_inverse=True)
    words = flat[sites].astype(np.int64) & mask
    np.bitwise_xor.at(
        words, inverse, np.int64(1) << bit_positions.astype(np.int64)
    )
    # Sign-extend back from `width` bits.
    sign_bit = np.int64(1) << (width - 1)
    signed = (words ^ sign_bit) - sign_bit
    flat[sites] = signed.astype(flat.dtype)


@dataclass
class QuantizedTensor:
    """Stored integers plus their format.

    The integer buffer is the ground truth; ``real`` materializes the
    dequantized view.  Arithmetic helpers keep everything saturating, the
    way the DPU's fixed-point datapath behaves.
    """

    stored: np.ndarray
    fmt: QuantFormat

    @classmethod
    def from_real(cls, data: np.ndarray, bits: int, frac_bits: int | None = None) -> "QuantizedTensor":
        if frac_bits is None:
            frac_bits = choose_frac_bits(np.asarray(data), bits)
        fmt = QuantFormat(bits=bits, frac_bits=frac_bits)
        return cls(stored=quantize_array(np.asarray(data), fmt), fmt=fmt)

    @property
    def real(self) -> np.ndarray:
        return dequantize_array(self.stored, self.fmt)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.stored.shape)

    def requantize(self, bits: int, frac_bits: int | None = None) -> "QuantizedTensor":
        """Convert to another format through the real domain."""
        return QuantizedTensor.from_real(self.real, bits=bits, frac_bits=frac_bits)

    def flip_bits(self, flat_indices: np.ndarray, bit_positions: np.ndarray) -> None:
        """XOR the given bit of the stored word at each flat index, in place.

        See :func:`flip_stored_bits` for the bit semantics.
        """
        flip_stored_bits(self.stored, self.fmt.bits, flat_indices, bit_positions)

    def quantization_error(self, reference: np.ndarray) -> float:
        """RMS error of this tensor against a float reference."""
        diff = self.real.astype(np.float64) - np.asarray(reference, dtype=np.float64)
        return float(np.sqrt(np.mean(diff**2))) if diff.size else 0.0
