#include "tensor/quantize.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "tensor/kernels.h"

namespace enmc::tensor {

int
quantBitCount(QuantBits bits)
{
    return static_cast<int>(bits);
}

int
quantMaxLevel(QuantBits bits)
{
    switch (bits) {
      case QuantBits::Fp32:
        return 0;
      case QuantBits::Int8:
        return 127;
      case QuantBits::Int4:
        return 7;
      case QuantBits::Int2:
        return 1;
    }
    ENMC_PANIC("unreachable quant bits");
}

const char *
quantSchemeName(QuantScheme scheme)
{
    switch (scheme) {
      case QuantScheme::Symmetric:
        return "symmetric";
      case QuantScheme::Asymmetric:
        return "asymmetric";
    }
    ENMC_PANIC("unreachable quant scheme");
}

int
quantLevelSpan(QuantBits bits)
{
    const int count = quantBitCount(bits);
    ENMC_ASSERT(count > 0, "quantLevelSpan: FP32 has no level span");
    return (1 << count) - 1;
}

namespace {

/** Per-row symmetric scale from the row's absolute maximum. */
float
rowScale(std::span<const float> row, int max_level)
{
    const float am = kernels::absMax(row);
    return (am > 0.0f) ? am / max_level : 1.0f;
}

} // namespace

Vector
QuantizedVector::dequantize() const
{
    Vector v(values.size());
    for (size_t i = 0; i < values.size(); ++i)
        v[i] = values[i] * scale;
    return v;
}

size_t
QuantizedVector::packedBytes() const
{
    if (bits == QuantBits::Fp32)
        return values.size() * sizeof(float);
    return ceilDiv(values.size() * quantBitCount(bits), 8) + sizeof(float);
}

Matrix
QuantizedMatrix::dequantize() const
{
    Matrix m(rows, cols);
    if (scheme == QuantScheme::Asymmetric) {
        // Codes are unsigned levels stored in the int8 lanes; at INT8
        // the span is 255, so the lane bits must be read back unsigned.
        for (size_t r = 0; r < rows; ++r)
            for (size_t c = 0; c < cols; ++c)
                m(r, c) = static_cast<float>(
                              static_cast<int32_t>(static_cast<uint8_t>(
                                  values[r * cols + c])) -
                              zero_points[r]) *
                          scales[r];
        return m;
    }
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            m(r, c) = values[r * cols + c] * scales[r];
    return m;
}

float
QuantizedMatrix::rowMin(size_t r) const
{
    ENMC_ASSERT(scheme == QuantScheme::Asymmetric,
                "rowMin: symmetric rows have no calibration range");
    return static_cast<float>(0 - zero_points[r]) * scales[r];
}

float
QuantizedMatrix::rowMax(size_t r) const
{
    ENMC_ASSERT(scheme == QuantScheme::Asymmetric,
                "rowMax: symmetric rows have no calibration range");
    return static_cast<float>(quantLevelSpan(bits) - zero_points[r]) *
           scales[r];
}

size_t
QuantizedMatrix::packedBytes() const
{
    if (bits == QuantBits::Fp32)
        return values.size() * sizeof(float);
    // Asymmetric rows additionally store one packed zero-point code each
    // (codes fit the storage width, so one byte covers every width here).
    const size_t zp_bytes =
        (scheme == QuantScheme::Asymmetric) ? zero_points.size() : 0;
    return ceilDiv(values.size() * quantBitCount(bits), 8) +
           scales.size() * sizeof(float) + zp_bytes;
}

QuantizedVector
quantize(std::span<const float> v, QuantBits bits)
{
    QuantizedVector q;
    q.bits = bits;
    q.values.resize(v.size());
    if (bits == QuantBits::Fp32)
        ENMC_PANIC("quantize() called with Fp32; keep the float vector");
    const int max_level = quantMaxLevel(bits);
    q.scale = rowScale(v, max_level);
    kernels::ops().quantizeSpan(v.data(), v.size(), 1.0f / q.scale,
                                max_level, q.values.data());
    return q;
}

QuantizedMatrix
quantize(const Matrix &m, QuantBits bits)
{
    ENMC_ASSERT(bits != QuantBits::Fp32,
                "quantize(Matrix) called with Fp32; keep the float matrix");
    QuantizedMatrix q;
    q.bits = bits;
    q.rows = m.rows();
    q.cols = m.cols();
    q.values.resize(m.size());
    q.scales.resize(m.rows());
    const int max_level = quantMaxLevel(bits);
    // Rows are independent (quantizeSpan is bit-exact on every target), so
    // large matrices quantize in parallel without changing results.
    const size_t workers =
        (m.size() >= kernels::kParallelMinWork) ? 0 : 1;
    parallelFor(0, m.rows(), workers, [&](size_t r) {
        const auto row = m.row(r);
        const float scale = rowScale(row, max_level);
        q.scales[r] = scale;
        kernels::ops().quantizeSpan(row.data(), m.cols(), 1.0f / scale,
                                    max_level,
                                    q.values.data() + r * m.cols());
    });
    return q;
}

QuantizedMatrix
quantizeAsymmetric(const Matrix &m, QuantBits bits)
{
    ENMC_ASSERT(bits != QuantBits::Fp32,
                "quantizeAsymmetric called with Fp32; keep the float matrix");
    QuantizedMatrix q;
    q.bits = bits;
    q.scheme = QuantScheme::Asymmetric;
    q.rows = m.rows();
    q.cols = m.cols();
    q.values.resize(m.size());
    q.scales.resize(m.rows());
    q.zero_points.resize(m.rows());
    const int span = quantLevelSpan(bits);
    for (size_t r = 0; r < m.rows(); ++r) {
        const auto row = m.row(r);
        float rmin = 0.0f, rmax = 0.0f;
        for (const float v : row) {
            rmin = std::min(rmin, v);
            rmax = std::max(rmax, v);
        }
        // The range always spans 0 so the zero-point code exists; a row
        // that is still degenerate after the clamp is constant-zero.
        if (rmin == rmax)
            ENMC_FATAL("asymmetric quantization: degenerate row ", r,
                       " (rmin == rmax == ", rmin,
                       "); calibrate on non-constant rows or use the "
                       "symmetric scheme");
        const float scale = (rmax - rmin) / static_cast<float>(span);
        const int32_t zp = std::clamp<int32_t>(
            static_cast<int32_t>(std::lrint((0.0f - rmin) / scale)), 0,
            span);
        q.scales[r] = scale;
        q.zero_points[r] = zp;
        int8_t *out = q.values.data() + r * m.cols();
        for (size_t c = 0; c < m.cols(); ++c) {
            const int32_t code = std::clamp<int32_t>(
                static_cast<int32_t>(std::lrint(row[c] / scale)) + zp, 0,
                span);
            out[c] = static_cast<int8_t>(code);
        }
    }
    return q;
}

QuantizedMatrix
quantize(const Matrix &m, QuantBits bits, QuantScheme scheme)
{
    return scheme == QuantScheme::Asymmetric ? quantizeAsymmetric(m, bits)
                                             : quantize(m, bits);
}

namespace {

/**
 * Reference-loop asymmetric GEMV rows: integer MAC with the per-row
 * zero-point correction. Deliberately not kernel-dispatched — the
 * int64 accumulation order is fixed, so the result is bit-exact on
 * every target by construction (the same contract the symmetric path
 * gets from its kernel table).
 */
void
gemvAsymRows(const QuantizedMatrix &w, std::span<const int8_t> h,
             float hscale, std::span<const float> b, std::span<float> z,
             size_t r0, size_t r1, size_t w_offset)
{
    int64_t hsum = 0;
    for (const int8_t v : h)
        hsum += v;
    for (size_t r = r0; r < r1; ++r) {
        const size_t wr = w_offset + r;
        const int8_t *row = w.values.data() + wr * w.cols;
        int64_t acc = 0;
        // Weight codes are unsigned levels in int8 lanes (up to 255 at
        // INT8) — reinterpret, don't sign-extend. Activations stay
        // symmetric/signed.
        for (size_t c = 0; c < w.cols; ++c)
            acc += static_cast<int64_t>(static_cast<uint8_t>(row[c])) *
                   h[c];
        acc -= static_cast<int64_t>(w.zero_points[wr]) * hsum;
        z[r] = static_cast<float>(acc) * w.scales[wr] * hscale +
               (b.empty() ? 0.0f : b[r]);
    }
}

} // namespace

Vector
gemvQuantized(const QuantizedMatrix &w, const QuantizedVector &h,
              std::span<const float> b)
{
    ENMC_ASSERT(w.cols == h.values.size(), "gemvQuantized: dim mismatch");
    ENMC_ASSERT(b.empty() || b.size() == w.rows,
                "gemvQuantized: bias size mismatch");
    Vector z(w.rows);
    if (w.scheme == QuantScheme::Asymmetric) {
        gemvAsymRows(w, h.values, h.scale, b, z, 0, w.rows, 0);
        return z;
    }
    kernels::gemvQuantInto(w.values.data(), w.rows, w.cols,
                           w.scales.data(), h.values.data(), h.scale, b, z);
    return z;
}

void
gemvQuantizedRows(const QuantizedMatrix &w, std::span<const int8_t> h,
                  float hscale, std::span<const float> b, std::span<float> z,
                  size_t r0, size_t r1, size_t w_offset)
{
    ENMC_ASSERT(w.cols == h.size(), "gemvQuantizedRows: dim mismatch");
    ENMC_ASSERT(r0 <= r1 && w_offset + r1 <= w.rows,
                "gemvQuantizedRows: bad row range");
    if (w.scheme == QuantScheme::Asymmetric) {
        gemvAsymRows(w, h, hscale, b, z, r0, r1, w_offset);
        return;
    }
    kernels::ops().gemvQuantRows(w.values.data() + w_offset * w.cols, w.cols,
                                 w.scales.data() + w_offset, h.data(),
                                 hscale, b.empty() ? nullptr : b.data(),
                                 z.data(), r0, r1);
}

} // namespace enmc::tensor
