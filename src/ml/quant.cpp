#include "ml/quant.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define AUTOLEARN_QGEMM_DISPATCH 1
#include <immintrin.h>
#endif

#include "ml/gemm.hpp"
#include "util/thread_pool.hpp"

namespace autolearn::ml {
namespace {

// Microtile geometry. QMR weight rows share one 32-byte activation load;
// each accumulator vector covers QNR output columns; k advances in quads
// because vpmaddubsw consumes pairs and vpmaddwd pairs-of-pairs.
constexpr std::size_t QMR = 4;
constexpr std::size_t QNR = 8;
constexpr std::size_t QKQ = 4;

// Parallel / packing tile: QNC columns of C per task. The packed
// activation panel for a tile is QNC * k_pad bytes; model shapes keep
// that comfortably inside L2 (largest zoo k is 192).
constexpr std::size_t QNC = 256;

static_assert(QNC % QNR == 0);

inline std::size_t quads(std::size_t k) { return (k + QKQ - 1) / QKQ; }

// Activation pre-clamp, applied in float before the round-to-int: keeps
// cvtps/lrintf away from the int32-overflow region (where they disagree)
// while being far outside any value the [0, kActMax] clamp could keep.
// Both the scalar and the AVX2 quantizer apply it, which is what makes
// them bitwise interchangeable.
constexpr float kActPreClamp = 1.0e6f;

// Per-thread packed-activation / scalar-accumulator scratch, grow-only
// like the sgemm pack buffers.
thread_local std::vector<std::uint8_t> tl_pack_x;
thread_local std::vector<std::int32_t> tl_acc;

/// Shared writeback: every kernel funnels its int32 accumulators through
/// this exact float expression, which is what makes scalar and AVX2
/// results bitwise identical.
inline void dequant_store(const std::int32_t* acc, std::size_t nr,
                          float scale, std::int32_t corr, float* cp) {
  for (std::size_t j = 0; j < nr; ++j) {
    cp[j] = scale * static_cast<float>(acc[j] - corr);
  }
}

/// Scalar kernel for one column tile [j0, j0+nt). Reads the row-major
/// quantized matrices directly; accumulation order over p is ascending,
/// but integer accumulation is exact so order is immaterial for the
/// bitwise contract.
void qgemm_tile_scalar(const QuantizedWeights& w, const std::uint8_t* x,
                       std::size_t n, const ActQuant& xq, float* c,
                       std::size_t ldc, std::size_t j0, std::size_t nt) {
  const std::size_t k = w.cols;
  if (tl_acc.size() < nt) tl_acc.resize(nt);
  std::int32_t* acc = tl_acc.data();
  for (std::size_t i = 0; i < w.rows; ++i) {
    std::fill(acc, acc + nt, 0);
    const std::int8_t* wr = w.q.data() + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const std::int32_t wv = wr[p];
      if (wv == 0) continue;
      const std::uint8_t* xr = x + p * n + j0;
      for (std::size_t j = 0; j < nt; ++j) {
        acc[j] += wv * static_cast<std::int32_t>(xr[j]);
      }
    }
    dequant_store(acc, nt, w.scales[i] * xq.scale,
                  xq.zero_point * w.row_sums[i], c + i * ldc + j0);
  }
}

#ifdef AUTOLEARN_QGEMM_DISPATCH

/// Packs columns [j0, j0+nt) of x [k, n] into QNR-column groups of
/// k-quads: group g holds quads(k) 32-byte blocks, block q laying out
/// columns j0+g*8 .. +7 as 4 consecutive k bytes each (the layout
/// vpmaddubsw needs so its pairwise adds stay within one column).
/// Padding (past k or nt) is 0 and multiplies zero-padded weights.
void pack_x_tile(const std::uint8_t* x, std::size_t n, std::size_t k,
                 std::size_t j0, std::size_t nt, std::uint8_t* panel) {
  const std::size_t kq = quads(k);
  for (std::size_t g = 0; g * QNR < nt; ++g) {
    std::uint8_t* dst = panel + g * kq * QNR * QKQ;
    const std::size_t jbase = j0 + g * QNR;
    const std::size_t nr = std::min(QNR, nt - g * QNR);
    for (std::size_t q = 0; q < kq; ++q) {
      for (std::size_t t = 0; t < QKQ; ++t) {
        const std::size_t p = q * QKQ + t;
        if (p >= k) {
          for (std::size_t j = 0; j < QNR; ++j) dst[j * QKQ + t] = 0;
          continue;
        }
        const std::uint8_t* row = x + p * n + jbase;
        for (std::size_t j = 0; j < QNR; ++j) {
          dst[j * QKQ + t] = j < nr ? row[j] : 0;
        }
      }
      dst += QNR * QKQ;
    }
  }
}

/// AVX2 microkernel over one packed column tile: per k-quad, one 32-byte
/// activation load is shared by QMR broadcast weight quads;
/// vpmaddubsw(u8 act, s8 weight) then vpmaddwd(·, 1) yields the four
/// per-column dot-product partials, summed exactly into 8 x int32 lanes
/// (no saturation by the 7-bit activation contract in quant.hpp).
[[gnu::target("avx2")]] void qgemm_tile_avx2(const QuantizedWeights& w,
                                             const std::uint8_t* panel,
                                             std::size_t nt, const ActQuant& xq,
                                             float* c, std::size_t ldc,
                                             std::size_t j0) {
  const std::size_t kq = quads(w.cols);
  const __m256i ones = _mm256_set1_epi16(1);
  for (std::size_t g = 0; g * QNR < nt; ++g) {
    const std::uint8_t* bp0 = panel + g * kq * QNR * QKQ;
    const std::size_t nr = std::min(QNR, nt - g * QNR);
    for (std::size_t ir = 0; ir < w.rows; ir += QMR) {
      // Packed weights: 4-byte k-quads for rows ir..ir+3, 4-byte aligned.
      const std::int32_t* ap = reinterpret_cast<const std::int32_t*>(
          w.packed.data() + (ir / QMR) * kq * QMR * QKQ);
      const std::uint8_t* bp = bp0;
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      __m256i acc2 = _mm256_setzero_si256();
      __m256i acc3 = _mm256_setzero_si256();
      for (std::size_t q = 0; q < kq; ++q) {
        const __m256i bv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp));
        acc0 = _mm256_add_epi32(
            acc0, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(bv, _mm256_set1_epi32(ap[0])), ones));
        acc1 = _mm256_add_epi32(
            acc1, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(bv, _mm256_set1_epi32(ap[1])), ones));
        acc2 = _mm256_add_epi32(
            acc2, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(bv, _mm256_set1_epi32(ap[2])), ones));
        acc3 = _mm256_add_epi32(
            acc3, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(bv, _mm256_set1_epi32(ap[3])), ones));
        bp += QNR * QKQ;
        ap += QMR;
      }
      alignas(32) std::int32_t tmp[QMR][QNR];
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp[0]), acc0);
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp[1]), acc1);
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp[2]), acc2);
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp[3]), acc3);
      const std::size_t mr = std::min(QMR, w.rows - ir);
      for (std::size_t i = 0; i < mr; ++i) {
        dequant_store(tmp[i], nr, w.scales[ir + i] * xq.scale,
                      xq.zero_point * w.row_sums[ir + i],
                      c + (ir + i) * ldc + j0 + g * QNR);
      }
    }
  }
}

/// AVX2 activation quantizer, 32 floats per iteration: IEEE divide,
/// round via cvtps (nearest-even, same as the scalar lrintf under the
/// default MXCSR), saturating int32->int16->u8 packs, then a min against
/// kActMax. Bitwise identical to quantize_activation by construction —
/// see the pre-clamp note there.
[[gnu::target("avx2")]] void quantize_acts_avx2(const float* x, std::size_t n,
                                                const ActQuant& q,
                                                std::uint8_t* out) {
  const __m256 scale = _mm256_set1_ps(q.scale);
  const __m256 lo = _mm256_set1_ps(-kActPreClamp);
  const __m256 hi = _mm256_set1_ps(kActPreClamp);
  const __m256i zp = _mm256_set1_epi32(q.zero_point);
  const __m256i maxq = _mm256_set1_epi8(static_cast<char>(kActMax));
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i v[4];
    for (std::size_t t = 0; t < 4; ++t) {
      __m256 f = _mm256_div_ps(_mm256_loadu_ps(x + i + t * 8), scale);
      f = _mm256_max_ps(_mm256_min_ps(f, hi), lo);
      v[t] = _mm256_add_epi32(_mm256_cvtps_epi32(f), zp);
    }
    const __m256i ab = _mm256_packs_epi32(v[0], v[1]);
    const __m256i cd = _mm256_packs_epi32(v[2], v[3]);
    __m256i bytes = _mm256_packus_epi16(ab, cd);
    bytes = _mm256_permutevar8x32_epi32(bytes, order);
    bytes = _mm256_min_epu8(bytes, maxq);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), bytes);
  }
  for (; i < n; ++i) out[i] = quantize_activation(x[i], q);
}

bool avx2_supported() { return __builtin_cpu_supports("avx2"); }

#else

bool avx2_supported() { return false; }

#endif  // AUTOLEARN_QGEMM_DISPATCH

// Resolved once at process start, like the sgemm micro-kernel pick: the
// selection can never vary with worker count or call site.
const bool g_use_avx2 = avx2_supported();

}  // namespace

ActQuant choose_act_quant(float lo, float hi) {
  lo = std::min(lo, 0.0f);
  hi = std::max(hi, 0.0f);
  ActQuant q;
  if (!(hi > lo)) return q;  // degenerate/NaN range: identity quantizer
  q.scale = (hi - lo) / static_cast<float>(kActMax);
  q.zero_point = std::clamp<std::int32_t>(
      static_cast<std::int32_t>(std::lround(-lo / q.scale)), 0, kActMax);
  return q;
}

std::uint8_t quantize_activation(float v, const ActQuant& q) {
  // lrintf under the default rounding mode (nearest-even) matches the
  // AVX2 cvtps path exactly; the pre-clamp keeps it out of the region
  // where float->int conversion is unspecified.
  const float f =
      std::max(std::min(v / q.scale, kActPreClamp), -kActPreClamp);
  const std::int32_t r =
      static_cast<std::int32_t>(std::lrintf(f)) + q.zero_point;
  return static_cast<std::uint8_t>(std::clamp<std::int32_t>(r, 0, kActMax));
}

void quantize_activations(const float* x, std::size_t n, const ActQuant& q,
                          std::uint8_t* out) {
#ifdef AUTOLEARN_QGEMM_DISPATCH
  if (g_use_avx2) {
    quantize_acts_avx2(x, n, q, out);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = quantize_activation(x[i], q);
}

QuantizedWeights quantize_weights(const float* w, std::size_t rows,
                                  std::size_t cols) {
  QuantizedWeights out;
  out.rows = rows;
  out.cols = cols;
  out.q.resize(rows * cols);
  out.scales.resize(rows);
  out.row_sums.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const float* wr = w + i * cols;
    float maxabs = 0.0f;
    for (std::size_t p = 0; p < cols; ++p) {
      maxabs = std::max(maxabs, std::fabs(wr[p]));
    }
    const float scale =
        maxabs > 0.0f ? maxabs / static_cast<float>(kWeightMax) : 1.0f;
    out.scales[i] = scale;
    std::int32_t sum = 0;
    for (std::size_t p = 0; p < cols; ++p) {
      const auto v = static_cast<std::int32_t>(std::clamp<long>(
          std::lround(wr[p] / scale), -kWeightMax, kWeightMax));
      out.q[i * cols + p] = static_cast<std::int8_t>(v);
      sum += v;
    }
    out.row_sums[i] = sum;
  }
  // Kernel panels: QMR-row blocks of k-quads, 4 bytes per row per quad,
  // zero-padded past rows/cols so the microkernel needs no edge cases.
  const std::size_t kq = quads(cols);
  const std::size_t blocks = (rows + QMR - 1) / QMR;
  out.packed.assign(blocks * kq * QMR * QKQ, 0);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t block = i / QMR;
    const std::size_t lane = i % QMR;
    for (std::size_t p = 0; p < cols; ++p) {
      const std::size_t q = p / QKQ, t = p % QKQ;
      out.packed[((block * kq + q) * QMR + lane) * QKQ + t] =
          out.q[i * cols + p];
    }
  }
  return out;
}

bool qgemm_isa_supported(QGemmIsa isa) {
  switch (isa) {
    case QGemmIsa::Auto:
    case QGemmIsa::Scalar:
      return true;
    case QGemmIsa::Avx2:
      return g_use_avx2;
  }
  return false;
}

void qgemm(const QuantizedWeights& w, const std::uint8_t* x, std::size_t n,
           const ActQuant& xq, float* c, std::size_t ldc, QGemmIsa isa) {
  const std::size_t m = w.rows, k = w.cols;
  if (m == 0 || n == 0) return;
  if (isa == QGemmIsa::Auto) {
    isa = g_use_avx2 ? QGemmIsa::Avx2 : QGemmIsa::Scalar;
  } else if (!qgemm_isa_supported(isa)) {
    throw std::invalid_argument("qgemm: requested ISA not supported here");
  }
  detail::record_qgemm(2ull * m * n * k);

  // Tile -> C columns is a pure function of the tile index and integer
  // accumulation is exact, so chunking cannot affect the bitwise contract.
  const auto run_tiles = [&](std::size_t t0, std::size_t t1) {
    for (std::size_t t = t0; t < t1; ++t) {
      const std::size_t j0 = t * QNC;
      const std::size_t nt = std::min(QNC, n - j0);
#ifdef AUTOLEARN_QGEMM_DISPATCH
      if (isa == QGemmIsa::Avx2) {
        const std::size_t panel_bytes =
            ((nt + QNR - 1) / QNR) * quads(k) * QNR * QKQ;
        if (tl_pack_x.size() < panel_bytes) tl_pack_x.resize(panel_bytes);
        pack_x_tile(x, n, k, j0, nt, tl_pack_x.data());
        qgemm_tile_avx2(w, tl_pack_x.data(), nt, xq, c, ldc, j0);
        continue;
      }
#endif
      qgemm_tile_scalar(w, x, n, xq, c, ldc, j0, nt);
    }
  };

  const std::size_t tiles = (n + QNC - 1) / QNC;
  const bool tiny = 2ull * m * n * k < (1ull << 16);
  if (tiny) {
    run_tiles(0, tiles);
  } else {
    util::ThreadPool::shared().parallel_for_chunks(0, tiles, run_tiles);
  }
}

}  // namespace autolearn::ml
