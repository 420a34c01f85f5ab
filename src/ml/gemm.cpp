#include "ml/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "util/thread_pool.hpp"

namespace autolearn::ml {
namespace {

// Register microtile. MR x NR accumulators must fit the baseline SSE2
// register file (16 xmm): 4 rows x 8 columns = 8 vector accumulators plus
// broadcast/load temporaries. The inner loops are written so the compiler
// auto-vectorizes the NR axis.
constexpr std::size_t MR = 4;
constexpr std::size_t NR = 8;

// Cache blocking: KC-deep panels are packed so the microkernel streams
// contiguously; MC/NC are also the parallel tile sizes, so the C
// decomposition is a pure function of the problem shape (never of the
// worker count — see the determinism contract in gemm.hpp).
constexpr std::size_t KC = 256;
constexpr std::size_t MC = 96;   // multiple of MR
constexpr std::size_t NC = 384;  // multiple of NR

static_assert(MC % MR == 0 && NC % NR == 0);

std::atomic<std::uint64_t> g_gemm_calls{0};
std::atomic<std::uint64_t> g_gemm_flops{0};
std::atomic<std::uint64_t> g_im2col_elems{0};
std::atomic<std::uint64_t> g_col2im_elems{0};
std::atomic<std::uint64_t> g_qgemm_calls{0};
std::atomic<std::uint64_t> g_qgemm_ops{0};

// Packing scratch is per worker thread and only ever grows, so steady
// state does no allocation. conv_implicit_gemm packs its weights into the
// calling thread's tl_pack_a and its tap/position offsets into
// tl_conv_offsets, which every worker then reads.
thread_local std::vector<float> tl_pack_a;
thread_local std::vector<float> tl_pack_b;
thread_local std::vector<std::size_t> tl_conv_offsets;

inline const float& at(const float* x, std::size_t ld, bool trans,
                       std::size_t row, std::size_t col) {
  return trans ? x[col * ld + row] : x[row * ld + col];
}

/// Packs op(A)[i0:i0+mt, p0:p0+kc] as MR-wide row panels: panel ir holds
/// kc groups of MR consecutive row values (zero-padded past mt).
void pack_a(const float* a, std::size_t lda, bool trans, std::size_t i0,
            std::size_t mt, std::size_t p0, std::size_t kc, float* pa) {
  for (std::size_t ir = 0; ir < mt; ir += MR) {
    const std::size_t mr = std::min(MR, mt - ir);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t i = 0; i < MR; ++i) {
        *pa++ = i < mr ? at(a, lda, trans, i0 + ir + i, p0 + p) : 0.0f;
      }
    }
  }
}

/// Packs op(B)[p0:p0+kc, j0:j0+nt] as NR-wide column panels: panel jr
/// holds kc groups of NR consecutive column values (zero-padded past nt).
void pack_b(const float* b, std::size_t ldb, bool trans, std::size_t p0,
            std::size_t kc, std::size_t j0, std::size_t nt, float* pb) {
  for (std::size_t jr = 0; jr < nt; jr += NR) {
    const std::size_t nr = std::min(NR, nt - jr);
    if (!trans && nr == NR) {
      // Hot case: contiguous rows of B, full panel — straight copies.
      for (std::size_t p = 0; p < kc; ++p) {
        std::memcpy(pb, b + (p0 + p) * ldb + j0 + jr, NR * sizeof(float));
        pb += NR;
      }
      continue;
    }
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t j = 0; j < NR; ++j) {
        *pb++ = j < nr ? at(b, ldb, trans, p0 + p, j0 + jr + j) : 0.0f;
      }
    }
  }
}

/// acc[MR][NR] += pa-panel @ pb-panel over kc. Both panels are packed and
/// zero-padded, so no bounds checks; the j loop vectorizes. The same
/// source is compiled twice — once for the portable baseline ISA and once
/// for AVX2+FMA — and the best supported variant is chosen at process
/// start, so the default (-march-less) build still uses wide FMAs on
/// modern x86. Selection is a process-wide constant: it cannot vary with
/// the worker count, so the determinism contract holds.
// The accumulators live in a local array whose address never escapes, so
// the compiler keeps all MR*NR of them in vector registers across the k
// loop (passing `out` directly would force a spill per iteration because
// it could alias the panels).
#define AUTOLEARN_MICRO_KERNEL_BODY                                    \
  float acc[MR][NR] = {};                                              \
  for (std::size_t p = 0; p < kc; ++p) {                               \
    const float* bp = pb + p * NR;                                     \
    const float* ap = pa + p * MR;                                     \
    for (std::size_t i = 0; i < MR; ++i) {                             \
      const float av = ap[i];                                          \
      for (std::size_t j = 0; j < NR; ++j) acc[i][j] += av * bp[j];    \
    }                                                                  \
  }                                                                    \
  for (std::size_t i = 0; i < MR; ++i) {                               \
    for (std::size_t j = 0; j < NR; ++j) out[i][j] = acc[i][j];        \
  }

void micro_kernel_base(std::size_t kc, const float* __restrict pa,
                       const float* __restrict pb, float out[MR][NR]) {
  AUTOLEARN_MICRO_KERNEL_BODY
}

// Implicit-GEMM convolution of one sample (conv_implicit_gemm). A CT x CT
// register tile covers CT output channels (the vector lanes) at CT output
// positions (one accumulator each). Every patch element is broadcast
// straight from the input at x + tap[r] + pos[q], so no B panel is packed,
// and each packed weight vector feeds CT multiply-adds. Each element gets
// micro_kernel's arithmetic: a zeroed accumulator, one `acc += w * x` per
// patch row in order, KC blocks summed as gemm_tile sums them. Then come
// `+ bias` and the optional ReLU, and an in-register transpose turns the
// tile into channel rows stored straight to y [OC, P]. The body is plain
// C on GCC vector types, inlined into the two ISA variants below and
// picked by micro_kernel's dispatch, so its multiply-adds fuse exactly
// when micro_kernel's do, at every -O level.
constexpr std::size_t CT = 8;
typedef float v8sf __attribute__((vector_size(CT * sizeof(float))));
typedef int v8si __attribute__((vector_size(CT * sizeof(int))));

/// r[j][i] <-> r[i][j]: unpack, shuffle, then swap 128-bit halves.
[[gnu::always_inline]] inline void transpose8(v8sf* r) {
  const v8si lo = {0, 8, 1, 9, 4, 12, 5, 13}, hi = {2, 10, 3, 11, 6, 14, 7, 15};
  const v8si ev = {0, 1, 8, 9, 4, 5, 12, 13}, od = {2, 3, 10, 11, 6, 7, 14, 15};
  const v8si h0 = {0, 1, 2, 3, 8, 9, 10, 11}, h1 = {4, 5, 6, 7, 12, 13, 14, 15};
  v8sf t[CT], u[CT];
#pragma GCC unroll 4
  for (std::size_t j = 0; j < CT; j += 2) {
    t[j] = __builtin_shuffle(r[j], r[j + 1], lo);
    t[j + 1] = __builtin_shuffle(r[j], r[j + 1], hi);
  }
#pragma GCC unroll 2
  for (std::size_t j = 0; j < CT; j += 4) {
    u[j] = __builtin_shuffle(t[j], t[j + 2], ev);
    u[j + 1] = __builtin_shuffle(t[j], t[j + 2], od);
    u[j + 2] = __builtin_shuffle(t[j + 1], t[j + 3], ev);
    u[j + 3] = __builtin_shuffle(t[j + 1], t[j + 3], od);
  }
#pragma GCC unroll 4
  for (std::size_t j = 0; j < CT / 2; ++j) {
    r[j] = __builtin_shuffle(u[j], u[j + 4], h0);
    r[j + 4] = __builtin_shuffle(u[j], u[j + 4], h1);
  }
}

// x: the sample's input; tap[k], pos[p rounded up to CT]: patch offsets;
// pa: the weights packed as CT-channel panels [k][CT]; y: [oc, p].
[[gnu::always_inline]] inline void conv_sample_body(
    const float* x, const std::size_t* tap, const std::size_t* pos,
    std::size_t k, std::size_t p, std::size_t oc, const float* pa,
    const float* bias, bool relu, float* y) {
  for (std::size_t o0 = 0; o0 < oc; o0 += CT) {
    const float* pao = pa + o0 * k;
    const std::size_t mr = std::min(CT, oc - o0);
    v8sf bv = {};
    for (std::size_t i = 0; i < mr; ++i) bv[i] = bias[o0 + i];
    for (std::size_t q0 = 0; q0 < p; q0 += CT) {
      const float* xq[CT];
#pragma GCC unroll 8
      for (std::size_t j = 0; j < CT; ++j) xq[j] = x + pos[q0 + j];
      v8sf sum[CT];
      for (std::size_t p0 = 0; p0 < k; p0 += KC) {
        const std::size_t p1 = std::min(k, p0 + KC);
        v8sf acc[CT] = {};
        for (std::size_t r = p0; r < p1; ++r) {
          v8sf w;
          std::memcpy(&w, pao + r * CT, sizeof w);
          const std::size_t t = tap[r];
#pragma GCC unroll 8
          for (std::size_t j = 0; j < CT; ++j) acc[j] += w * xq[j][t];
        }
#pragma GCC unroll 8
        for (std::size_t j = 0; j < CT; ++j) {
          sum[j] = p0 == 0 ? acc[j] : sum[j] + acc[j];
        }
      }
#pragma GCC unroll 8
      for (std::size_t j = 0; j < CT; ++j) {
        const v8sf t = sum[j] + bv;
        sum[j] = relu ? (t > 0.0f ? t : v8sf{}) : t;
      }
      transpose8(sum);
      const std::size_t np = std::min(CT, p - q0);
      for (std::size_t i = 0; i < mr; ++i) {
        float* yr = y + (o0 + i) * p + q0;
        if (np == CT) {
          std::memcpy(yr, &sum[i], sizeof sum[i]);
        } else {
          for (std::size_t j = 0; j < np; ++j) yr[j] = sum[i][j];
        }
      }
    }
  }
}

void conv_sample_base(const float* x, const std::size_t* tap,
                      const std::size_t* pos, std::size_t k, std::size_t p,
                      std::size_t oc, const float* pa, const float* bias,
                      bool relu, float* y) {
  conv_sample_body(x, tap, pos, k, p, oc, pa, bias, relu, y);
}

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define AUTOLEARN_GEMM_DISPATCH 1
// Pinned to a cache-line boundary: otherwise the kernel's loop lands
// wherever the size of the code linked before it puts it, and on the
// Xeon used for the host-time benchmark a 32-byte shift cost fleet_serve
// ~10% wall time with no change to the kernel itself.
[[gnu::target("avx2,fma"), gnu::aligned(64)]] void micro_kernel_avx2(
    std::size_t kc, const float* __restrict pa, const float* __restrict pb,
    float out[MR][NR]) {
  AUTOLEARN_MICRO_KERNEL_BODY
}

[[gnu::target("avx2,fma"), gnu::aligned(64)]] void conv_sample_avx2(
    const float* x, const std::size_t* tap, const std::size_t* pos,
    std::size_t k, std::size_t p, std::size_t oc, const float* pa,
    const float* bias, bool relu, float* y) {
  conv_sample_body(x, tap, pos, k, p, oc, pa, bias, relu, y);
}
#endif

using MicroKernelFn = void (*)(std::size_t, const float*, const float*,
                               float[MR][NR]);
using ConvSampleFn = void (*)(const float*, const std::size_t*,
                              const std::size_t*, std::size_t, std::size_t,
                              std::size_t, const float*, const float*, bool,
                              float*);

#ifdef AUTOLEARN_GEMM_DISPATCH
// One ISA choice for both kernels, so they fuse alike.
const bool kAvx2Fma =
    __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
const MicroKernelFn micro_kernel =
    kAvx2Fma ? micro_kernel_avx2 : micro_kernel_base;
const ConvSampleFn conv_sample =
    kAvx2Fma ? conv_sample_avx2 : conv_sample_base;
#else
const MicroKernelFn micro_kernel = micro_kernel_base;
const ConvSampleFn conv_sample = conv_sample_base;
#endif

/// One C tile [i0:i0+mt, j0:j0+nt], full reduction over k in fixed KC
/// order. Runs entirely on the calling thread.
void gemm_tile(bool trans_a, bool trans_b, std::size_t i0, std::size_t mt,
               std::size_t j0, std::size_t nt, std::size_t k, float alpha,
               const float* a, std::size_t lda, const float* b,
               std::size_t ldb, float beta, float* c, std::size_t ldc) {
  const std::size_t mt_pad = (mt + MR - 1) / MR * MR;
  const std::size_t nt_pad = (nt + NR - 1) / NR * NR;
  if (tl_pack_a.size() < mt_pad * KC) tl_pack_a.resize(mt_pad * KC);
  if (tl_pack_b.size() < nt_pad * KC) tl_pack_b.resize(nt_pad * KC);
  float* pa = tl_pack_a.data();
  float* pb = tl_pack_b.data();

  for (std::size_t p0 = 0; p0 < k; p0 += KC) {
    const std::size_t kc = std::min(KC, k - p0);
    const bool first = p0 == 0;
    pack_b(b, ldb, trans_b, p0, kc, j0, nt, pb);
    pack_a(a, lda, trans_a, i0, mt, p0, kc, pa);
    for (std::size_t jr = 0; jr < nt; jr += NR) {
      const std::size_t nr = std::min(NR, nt - jr);
      const float* pbj = pb + (jr / NR) * kc * NR;
      for (std::size_t ir = 0; ir < mt; ir += MR) {
        const std::size_t mr = std::min(MR, mt - ir);
        const float* pai = pa + (ir / MR) * kc * MR;
        float acc[MR][NR] = {};
        micro_kernel(kc, pai, pbj, acc);
        for (std::size_t i = 0; i < mr; ++i) {
          float* cp = c + (i0 + ir + i) * ldc + j0 + jr;
          if (first) {
            if (beta == 0.0f) {
              for (std::size_t j = 0; j < nr; ++j) cp[j] = alpha * acc[i][j];
            } else {
              for (std::size_t j = 0; j < nr; ++j) {
                cp[j] = beta * cp[j] + alpha * acc[i][j];
              }
            }
          } else {
            for (std::size_t j = 0; j < nr; ++j) cp[j] += alpha * acc[i][j];
          }
        }
      }
    }
  }
}

}  // namespace

void tune_interpreted_allocator() {
  // Training's layer-by-layer forward/backward allocates fresh per-batch
  // tensors whose sizes sit just above glibc's default 128 KiB mmap
  // threshold. An mmap'd block is munmap'd on free, so the next batch's identically-
  // sized allocation gets a fresh zero-filled mapping and every pass over
  // it pays demand paging — measured at ~20x the cost of streaming a
  // recycled heap block (glibc's dynamic threshold ratchets to exactly
  // the freed size, so the largest recurring tensor stays mmap'd
  // forever). Raising the threshold keeps these blocks on the heap where
  // freed chunks are reused warm. The compiled-plan path (ml/plan.hpp)
  // needs none of this — it runs out of a preallocated arena — so the
  // tuning is applied lazily from the training entry point (ml::fit)
  // instead of at static init. No effect on numerical results.
  static const bool tuned = [] {
#if defined(__GLIBC__)
    mallopt(M_MMAP_THRESHOLD, 64 << 20);
#endif
    return true;
  }();
  (void)tuned;
}

void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, const float* a, std::size_t lda,
           const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    for (std::size_t i = 0; i < m; ++i) {
      float* cp = c + i * ldc;
      if (beta == 0.0f) {
        std::fill(cp, cp + n, 0.0f);
      } else if (beta != 1.0f) {
        for (std::size_t j = 0; j < n; ++j) cp[j] *= beta;
      }
    }
    return;
  }
  g_gemm_calls.fetch_add(1, std::memory_order_relaxed);
  g_gemm_flops.fetch_add(2ull * m * n * k, std::memory_order_relaxed);

  const std::size_t m_tiles = (m + MC - 1) / MC;
  const std::size_t n_tiles = (n + NC - 1) / NC;
  const std::size_t tiles = m_tiles * n_tiles;
  // Tile -> C region is a pure function of the tile index, so the chunking
  // (and the execution order) cannot affect results.
  const auto run_tiles = [&](std::size_t t0, std::size_t t1) {
    for (std::size_t t = t0; t < t1; ++t) {
      const std::size_t i0 = (t / n_tiles) * MC;
      const std::size_t j0 = (t % n_tiles) * NC;
      gemm_tile(trans_a, trans_b, i0, std::min(MC, m - i0), j0,
                std::min(NC, n - j0), k, alpha, a, lda, b, ldb, beta, c, ldc);
    }
  };
  // Small problems are not worth a pool dispatch regardless of tiling.
  const bool tiny = 2ull * m * n * k < (1ull << 16);
  if (tiny) {
    run_tiles(0, tiles);
  } else {
    util::ThreadPool::shared().parallel_for_chunks(0, tiles, run_tiles);
  }
}

namespace {

// The lowering loop nests, written once. vol2col/col2vol call them with
// run-time sizes for a volume and with the depth sizes as the constant 1
// for a 2-D image, so the depth loops of the hot 2-D case fold away.
[[gnu::always_inline]] inline void vol2col_body(
    const float* x, std::size_t c, std::size_t d, std::size_t h,
    std::size_t w, std::size_t kd, std::size_t kh, std::size_t kw,
    std::size_t sd, std::size_t sh, std::size_t sw, float* col,
    std::size_t col_stride) {
  const std::size_t od = (d - kd) / sd + 1;
  const std::size_t oh = (h - kh) / sh + 1;
  const std::size_t ow = (w - kw) / sw + 1;
  std::size_t r = 0;
  for (std::size_t ic = 0; ic < c; ++ic) {
    for (std::size_t kz = 0; kz < kd; ++kz) {
      for (std::size_t ky = 0; ky < kh; ++ky) {
        for (std::size_t kx = 0; kx < kw; ++kx) {
          const float* src = x + ((ic * d + kz) * h + ky) * w + kx;
          float* dst = col + r * col_stride;
          for (std::size_t oz = 0; oz < od; ++oz) {
            for (std::size_t oy = 0; oy < oh; ++oy) {
              const float* row = src + (oz * sd * h + oy * sh) * w;
              if (sw == 1) {
                std::memcpy(dst, row, ow * sizeof(float));
                dst += ow;
              } else {
                for (std::size_t ox = 0; ox < ow; ++ox) dst[ox] = row[ox * sw];
                dst += ow;
              }
            }
          }
          ++r;
        }
      }
    }
  }
  g_im2col_elems.fetch_add(
      static_cast<std::uint64_t>(r) * od * oh * ow, std::memory_order_relaxed);
}

[[gnu::always_inline]] inline void col2vol_body(
    const float* col, std::size_t col_stride, std::size_t c, std::size_t d,
    std::size_t h, std::size_t w, std::size_t kd, std::size_t kh,
    std::size_t kw, std::size_t sd, std::size_t sh, std::size_t sw,
    float* x) {
  const std::size_t od = (d - kd) / sd + 1;
  const std::size_t oh = (h - kh) / sh + 1;
  const std::size_t ow = (w - kw) / sw + 1;
  std::size_t r = 0;
  for (std::size_t ic = 0; ic < c; ++ic) {
    for (std::size_t kz = 0; kz < kd; ++kz) {
      for (std::size_t ky = 0; ky < kh; ++ky) {
        for (std::size_t kx = 0; kx < kw; ++kx) {
          float* dst = x + ((ic * d + kz) * h + ky) * w + kx;
          const float* src = col + r * col_stride;
          for (std::size_t oz = 0; oz < od; ++oz) {
            for (std::size_t oy = 0; oy < oh; ++oy) {
              float* row = dst + (oz * sd * h + oy * sh) * w;
              for (std::size_t ox = 0; ox < ow; ++ox) {
                row[ox * sw] += src[ox];
              }
              src += ow;
            }
          }
          ++r;
        }
      }
    }
  }
  g_col2im_elems.fetch_add(
      static_cast<std::uint64_t>(r) * od * oh * ow, std::memory_order_relaxed);
}

}  // namespace

void vol2col(const float* x, std::size_t c, std::size_t d, std::size_t h,
             std::size_t w, std::size_t kd, std::size_t kh, std::size_t kw,
             std::size_t sd, std::size_t sh, std::size_t sw, float* col,
             std::size_t col_stride) {
  if (d == 1 && kd == 1) {
    vol2col_body(x, c, 1, h, w, 1, kh, kw, 1, sh, sw, col, col_stride);
  } else {
    vol2col_body(x, c, d, h, w, kd, kh, kw, sd, sh, sw, col, col_stride);
  }
}

void col2vol(const float* col, std::size_t col_stride, std::size_t c,
             std::size_t d, std::size_t h, std::size_t w, std::size_t kd,
             std::size_t kh, std::size_t kw, std::size_t sd, std::size_t sh,
             std::size_t sw, float* x) {
  if (d == 1 && kd == 1) {
    col2vol_body(col, col_stride, c, 1, h, w, 1, kh, kw, 1, sh, sw, x);
  } else {
    col2vol_body(col, col_stride, c, d, h, w, kd, kh, kw, sd, sh, sw, x);
  }
}

void conv_implicit_gemm(const float* x, std::size_t n, std::size_t c,
                        std::size_t d, std::size_t h, std::size_t w,
                        std::size_t kd, std::size_t kh, std::size_t kw,
                        std::size_t sd, std::size_t sh, std::size_t sw,
                        const float* weights, std::size_t oc,
                        const float* bias, bool relu, float* y) {
  if (n == 0) return;
  const std::size_t od = (d - kd) / sd + 1;
  const std::size_t oh = (h - kh) / sh + 1;
  const std::size_t ow = (w - kw) / sw + 1;
  const std::size_t k = c * kd * kh * kw, p = od * oh * ow;
  const std::size_t p_pad = (p + CT - 1) / CT * CT;
  const std::size_t oc_pad = (oc + CT - 1) / CT * CT;
  g_gemm_calls.fetch_add(1, std::memory_order_relaxed);
  g_gemm_flops.fetch_add(2ull * oc * n * p * k, std::memory_order_relaxed);

  // Patch element (r, q) of a sample is x[tap[r] + pos[q]], with r in
  // vol2col's row order. Pad positions read position 0 and are never
  // stored.
  if (tl_conv_offsets.size() < k + p_pad) tl_conv_offsets.resize(k + p_pad);
  std::size_t* tap = tl_conv_offsets.data();
  std::size_t* pos = tap + k;
  for (std::size_t ic = 0; ic < c; ++ic) {
    for (std::size_t kz = 0; kz < kd; ++kz) {
      for (std::size_t ky = 0; ky < kh; ++ky) {
        for (std::size_t kx = 0; kx < kw; ++kx) {
          *tap++ = ((ic * d + kz) * h + ky) * w + kx;
        }
      }
    }
  }
  for (std::size_t oz = 0; oz < od; ++oz) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        *pos++ = (oz * sd * h + oy * sh) * w + ox * sw;
      }
    }
  }
  std::fill(pos, pos + (p_pad - p), std::size_t{0});

  // Packed on every call, as sgemm packs: the weights may be updated in
  // place between calls. Each weight row is read in order; channels past
  // oc are zero.
  if (tl_pack_a.size() < oc_pad * k) tl_pack_a.resize(oc_pad * k);
  for (std::size_t o = 0; o < oc_pad; ++o) {
    float* dst = tl_pack_a.data() + (o / CT) * k * CT + o % CT;
    for (std::size_t r = 0; r < k; ++r) {
      dst[r * CT] = o < oc ? weights[o * k + r] : 0.0f;
    }
  }

  // Workers read the caller's thread-local buffers through these.
  const float* pa = tl_pack_a.data();
  const std::size_t* offsets = tl_conv_offsets.data();
  const std::size_t sample = c * d * h * w;
  // Each sample is one task, so a sample's outputs never depend on the
  // worker count.
  util::ThreadPool::shared().parallel_for_chunks(
      0, n, [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          conv_sample(x + i * sample, offsets, offsets + k, k, p, oc, pa,
                      bias, relu, y + i * oc * p);
        }
      });
}

KernelCounters kernel_counters() {
  KernelCounters k;
  k.gemm_calls = g_gemm_calls.load(std::memory_order_relaxed);
  k.gemm_flops = g_gemm_flops.load(std::memory_order_relaxed);
  k.im2col_elems = g_im2col_elems.load(std::memory_order_relaxed);
  k.col2im_elems = g_col2im_elems.load(std::memory_order_relaxed);
  k.qgemm_calls = g_qgemm_calls.load(std::memory_order_relaxed);
  k.qgemm_ops = g_qgemm_ops.load(std::memory_order_relaxed);
  return k;
}

namespace detail {
void record_qgemm(std::uint64_t ops) {
  g_qgemm_calls.fetch_add(1, std::memory_order_relaxed);
  g_qgemm_ops.fetch_add(ops, std::memory_order_relaxed);
}
}  // namespace detail

}  // namespace autolearn::ml
