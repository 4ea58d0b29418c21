/**
 * @file
 * Fixed-point quantization used by the Screener's INT4 datapath.
 *
 * The paper quantizes both the projected features and the screener weights
 * to 4-bit fixed point ("The Screener performs dimension-reduced INT4
 * computations"); Fig. 12(b) sweeps the quantization level, so the bit
 * width is a parameter here (2/4/8 bits supported, plus FP32 passthrough).
 *
 * Schemes: symmetric linear quantization (the bit-identical default —
 * per-row scales for weight matrices, each category row gets its own
 * scale, cheap to store alongside the row; a per-tensor scale for
 * activations), plus an opt-in calibration-based *asymmetric* per-row
 * scheme (rmin/rmax + zero-point, the chainer-compiler
 * Linear_NonScaled mode): rows whose value distribution is offset from
 * zero waste half the symmetric code space, and at INT4 that is the
 * difference between 16 useful levels and ~8. Activations stay
 * symmetric in both schemes (that is what the Screener's feature path
 * streams), so the asymmetric GEMV reduces to the symmetric integer
 * MAC plus one per-row correction term zp_r * sum(hq).
 */

#ifndef ENMC_TENSOR_QUANTIZE_H
#define ENMC_TENSOR_QUANTIZE_H

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/matrix.h"

namespace enmc::tensor {

/** Quantization bit-width selector. Fp32 disables quantization. */
enum class QuantBits {
    Fp32 = 0,
    Int8 = 8,
    Int4 = 4,
    Int2 = 2,
};

/** Number of payload bits (0 for FP32). */
int quantBitCount(QuantBits bits);

/**
 * Quantization scheme selector. Symmetric is the default everywhere and
 * keeps every existing result bit-identical; Asymmetric is the
 * calibration-based rmin/rmax + zero-point per-row scheme.
 */
enum class QuantScheme : uint8_t {
    Symmetric = 0,
    Asymmetric = 1,
};

const char *quantSchemeName(QuantScheme scheme);

/**
 * Unsigned level span of the asymmetric scheme: 2^bits - 1 (15 for INT4).
 * Codes run [0, span]; the zero-point is the code of real 0.0.
 */
int quantLevelSpan(QuantBits bits);

/** Largest representable magnitude, e.g. 7 for INT4 symmetric. */
int quantMaxLevel(QuantBits bits);

/** A quantized vector: int8 storage (values fit the chosen width) + scale. */
struct QuantizedVector
{
    std::vector<int8_t> values;
    float scale = 1.0f;    //!< dequant: real = value * scale
    QuantBits bits = QuantBits::Int4;

    /** Reconstruct the real-valued vector. */
    Vector dequantize() const;

    /** Storage bytes at the nominal bit width (packed). */
    size_t packedBytes() const;
};

/**
 * A quantized matrix with per-row scales. Storage is one int8 per element
 * regardless of nominal width; packedBytes() reports the true packed size
 * used for all bandwidth/timing accounting.
 */
struct QuantizedMatrix
{
    size_t rows = 0;
    size_t cols = 0;
    std::vector<int8_t> values;    //!< row-major
    std::vector<float> scales;     //!< one per row
    QuantBits bits = QuantBits::Int4;
    QuantScheme scheme = QuantScheme::Symmetric;
    /**
     * Per-row zero-points (asymmetric scheme only; empty for symmetric).
     * Codes are unsigned levels in [0, quantLevelSpan(bits)], stored in
     * the int8 `values` lanes; real = (code - zero_point) * scale.
     */
    std::vector<int32_t> zero_points;

    std::span<const int8_t> row(size_t r) const
    {
        return {values.data() + r * cols, cols};
    }

    /** Calibration range of row r implied by scale + zero-point. */
    float rowMin(size_t r) const;
    float rowMax(size_t r) const;

    Matrix dequantize() const;
    size_t packedBytes() const;
};

/** Quantize a vector with a symmetric per-tensor scale. */
QuantizedVector quantize(std::span<const float> v, QuantBits bits);

/** Quantize a matrix with symmetric per-row scales. */
QuantizedMatrix quantize(const Matrix &m, QuantBits bits);

/**
 * Quantize a matrix with asymmetric per-row rmin/rmax + zero-point
 * codecs. The calibration range of each row is [min(rmin, 0),
 * max(rmax, 0)] (always spanning 0 so the zero-point is representable,
 * per the chainer-compiler scheme); a degenerate row (rmin == rmax,
 * i.e. constant zero after the span-0 clamp) is a fatal configuration
 * error — symmetric quantization handles it, asymmetric calibration
 * cannot produce a scale from an empty range.
 */
QuantizedMatrix quantizeAsymmetric(const Matrix &m, QuantBits bits);

/** Dispatch on `scheme`: quantize() or quantizeAsymmetric(). */
QuantizedMatrix quantize(const Matrix &m, QuantBits bits,
                         QuantScheme scheme);

/**
 * Integer GEMV: z[r] = scale_r * scale_h * sum_c Wq[r][c] * hq[c] + b[r].
 * This is the exact arithmetic the Screener's INT4 MAC array performs
 * (integer multiply-accumulate, one dequant multiply per output).
 *
 * Asymmetric weights add the per-row correction term — z[r] =
 * scale_r * scale_h * (sum_c Wq[r][c] * hq[c] - zp_r * sum_c hq[c]) +
 * b[r] — still one integer MAC per element plus one per-row multiply
 * (sum_c hq[c] is shared by every row).
 */
Vector gemvQuantized(const QuantizedMatrix &w, const QuantizedVector &h,
                     std::span<const float> b);

/**
 * Integer GEMV restricted to rows [r0, r1): z[r] (absolute indexing,
 * z.size() == w.rows) gets the same bit-exact value gemvQuantized()
 * produces for that row. Used by the functional backend, which evaluates
 * per-bank row slices.
 *
 * With `w_offset`, output row r reads weight row w_offset + r (its
 * scale and zero-point too) while z and b keep index r, so a slice of a
 * larger matrix is screened in place.
 */
void gemvQuantizedRows(const QuantizedMatrix &w, std::span<const int8_t> h,
                       float hscale, std::span<const float> b,
                       std::span<float> z, size_t r0, size_t r1,
                       size_t w_offset = 0);

} // namespace enmc::tensor

#endif // ENMC_TENSOR_QUANTIZE_H
