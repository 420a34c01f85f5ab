// Int8 post-training-quantized inference kernels: the precision half of
// the edge/cloud latency trade (ROADMAP item 2). Scheme (gemmlowp-style,
// specialized so the AVX2 path is *exact*):
//
//   weights      per-output-channel symmetric:  w ≈ s_w[row] * q_w,
//                q_w in [-127, 127]
//   activations  per-tensor affine, 7-bit:      x ≈ s_x * (q_x - z_x),
//                q_x in [0, 127]
//
// The 7-bit activation range is deliberate: vpmaddubsw saturates its
// pairwise u8*s8 sums at int16, and 2 * 127 * 127 = 32258 just fits in
// 32767 — so the AVX2 kernel never saturates and produces bit-identical
// accumulators to the portable scalar fallback. The int32 accumulator is
// likewise exact for k < 2^31 / 127^2 ≈ 133,000, far beyond any model
// shape here.
//
// The affine zero point folds out of the GEMM as a per-row constant:
//
//   y[i,j] = Σ_p w[i,p] x[p,j]
//          ≈ s_w[i] s_x ( Σ_p q_w[i,p] q_x[p,j]  -  z_x Σ_p q_w[i,p] )
//
// so qgemm needs only the integer accumulator plus the precomputed row
// sums. Dequantization (subtract, convert, scale) runs through one shared
// scalar helper on every ISA path, so scalar and AVX2 qgemm results are
// bitwise identical — which is what lets the drift oracle commit exact
// thresholds instead of per-machine ones.
//
// Determinism contract: integer accumulation is exact, so results are
// bitwise identical for any worker count and any batch size (a batch row
// depends only on its own column of activations).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace autolearn::ml {

/// Activation quantizer limits: q in [0, kActMax] (7-bit, see above).
inline constexpr std::int32_t kActMax = 127;
/// Weight quantizer limit: q in [-kWeightMax, kWeightMax] (symmetric).
inline constexpr std::int32_t kWeightMax = 127;

/// Per-tensor affine activation quantizer: x ≈ scale * (q - zero_point).
struct ActQuant {
  float scale = 1.0f;
  std::int32_t zero_point = 0;  // in [0, kActMax]
};

/// Chooses the activation quantizer covering [lo, hi]. The range is
/// widened to include 0 so a zero activation (ReLU floor, padding)
/// quantizes exactly. Degenerate ranges yield the identity-ish
/// {scale 1, zp 0} quantizer.
ActQuant choose_act_quant(float lo, float hi);

/// round(x / scale) + zero_point, clamped to [0, kActMax]. In-range
/// values round-trip within scale / 2 (plus float rounding).
std::uint8_t quantize_activation(float v, const ActQuant& q);
void quantize_activations(const float* x, std::size_t n, const ActQuant& q,
                          std::uint8_t* out);
inline float dequantize_activation(std::uint8_t v, const ActQuant& q) {
  return q.scale * static_cast<float>(static_cast<std::int32_t>(v) -
                                      q.zero_point);
}

/// Per-output-channel symmetrically quantized weight matrix, stored both
/// row-major (scalar kernel, introspection) and packed into the AVX2
/// microkernel layout (4-row blocks of 4-deep k quads). Built once at
/// model-quantization time; qgemm reuses it across every batch.
struct QuantizedWeights {
  std::size_t rows = 0, cols = 0;
  std::vector<std::int8_t> q;          // row-major [rows, cols]
  std::vector<std::int8_t> packed;     // kernel panels (internal layout)
  std::vector<float> scales;           // [rows]: w ≈ scales[i] * q[i, :]
  std::vector<std::int32_t> row_sums;  // [rows]: Σ_p q — zero-point term
};

/// Max-abs per-channel symmetric quantization of w [rows, cols]
/// (row-major). Channels never clip: |w - s*q| <= s/2 everywhere; an
/// all-zero channel gets scale 1 and round-trips exactly.
QuantizedWeights quantize_weights(const float* w, std::size_t rows,
                                  std::size_t cols);

/// Kernel selection, mirroring the sgemm process-wide dispatch. Auto
/// resolves once at startup; the explicit variants exist so tests can pin
/// both paths and assert bitwise equality.
enum class QGemmIsa { Auto, Scalar, Avx2 };
bool qgemm_isa_supported(QGemmIsa isa);

/// C[m, n] = dequant(QW[m, k] @ QX[k, n]), with m = w.rows, k = w.cols.
/// x is the quantized activation matrix, row-major [k, n] with values in
/// [0, kActMax] (produced by quantize_activations — larger values would
/// saturate the AVX2 path). C is float with leading dimension ldc and is
/// overwritten (never read). As in sgemm, tiles of C columns go to the
/// shared ThreadPool, so do not call from inside a pool region. Throws
/// std::invalid_argument if `isa` names an unsupported kernel.
void qgemm(const QuantizedWeights& w, const std::uint8_t* x, std::size_t n,
           const ActQuant& xq, float* c, std::size_t ldc,
           QGemmIsa isa = QGemmIsa::Auto);

}  // namespace autolearn::ml
