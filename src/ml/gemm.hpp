// The matmul backbone of the ml module: a cache-blocked, register-tiled
// single-precision GEMM; the vol2col/col2vol lowering helpers that turn
// convolution into matrix multiplication (the standard cuDNN-style im2col
// lowering, here on CPU, over a depth axis as well), which the conv
// backward and int8 inference use; and the implicit-GEMM convolution, the
// one fp32 conv forward (training and the compiled plan both run it
// through Conv::forward_into), which reads its patch elements straight
// from the input and writes no patch matrix.
//
// All matrices are row-major with explicit leading dimensions, so views
// into larger buffers (e.g. one time-step slice of an [N, T, D] tensor)
// work directly.
//
// Determinism contract: for a given problem shape the reduction over k
// runs in one fixed order (KC-sized blocks ascending, elements ascending
// within a block), and parallel workers own disjoint tiles of C — no two
// threads ever accumulate into the same output element. Results are
// therefore bitwise identical regardless of the worker count, which is
// what keeps ml::fit() reproducible under any AUTOLEARN_THREADS setting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace autolearn::ml {

/// C[m,n] = alpha * op(A)[m,k] @ op(B)[k,n] + beta * C   (row-major).
/// op(X) is X or X^T per the trans flag; lda/ldb are the leading
/// dimensions of the *stored* matrices. When beta == 0 the output is
/// overwritten without being read (uninitialized scratch is fine).
/// C tiles are split over the shared ThreadPool, so do not call from
/// inside a pool region (regions do not nest).
void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, const float* a, std::size_t lda,
           const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc);

/// vol2col for valid (unpadded) convolution, channels-first layout.
/// x: one volume [C, D, H, W]; a 2-D image is the d = kd = 1 case. Writes
/// the patch matrix with one row per kernel tap (row index
/// ((ic*KD + kz)*KH + ky)*KW + kx, matching a flattened [OC, C, KD, KH, KW]
/// weight tensor) and one column per output position
/// ((oz*OH + oy)*OW + ox). Row r of the patch matrix starts at
/// col + r*col_stride, so a whole batch can share one
/// [C*KD*KH*KW, N*OD*OH*OW] matrix with each sample occupying a disjoint
/// column band. Depth-1 calls (d == kd == 1, every 2-D conv) run a copy
/// of the loops with the depth sizes folded to the constant 1.
void vol2col(const float* x, std::size_t c, std::size_t d, std::size_t h,
             std::size_t w, std::size_t kd, std::size_t kh, std::size_t kw,
             std::size_t sd, std::size_t sh, std::size_t sw, float* col,
             std::size_t col_stride);

/// Adjoint of vol2col: accumulates the patch matrix back into the volume
/// (x must be zeroed by the caller first). Overlapping windows sum.
void col2vol(const float* col, std::size_t col_stride, std::size_t c,
             std::size_t d, std::size_t h, std::size_t w, std::size_t kd,
             std::size_t kh, std::size_t kw, std::size_t sd, std::size_t sh,
             std::size_t sw, float* x);

/// Implicit-GEMM convolution forward of n volumes x [N, C, D, H, W] (sizes
/// as for vol2col) with weights [OC, C*KD*KH*KW] into y [N, OC, P], where
/// P = OD*OH*OW: y = W @ patch matrix + bias, then max(0, .) when `relu`.
/// Each output element gets exactly the arithmetic of vol2col, sgemm and
/// a bias-add pass (same k order, the same fused or unfused multiply-adds,
/// KC blocks summed alike), so it is bitwise equal to that lowering, but
/// the patch matrix and the GEMM result are never written: the kernel
/// reads each patch element straight from x, and only the weights are
/// packed, on every call, into the calling thread's grow-only scratch.
/// Samples are split over the shared ThreadPool (do not call from inside
/// a pool region); steady state allocates nothing. Counts as one GEMM call
/// of 2*OC*N*P*K FLOPs and no im2col elements.
void conv_implicit_gemm(const float* x, std::size_t n, std::size_t c,
                        std::size_t d, std::size_t h, std::size_t w,
                        std::size_t kd, std::size_t kh, std::size_t kw,
                        std::size_t sd, std::size_t sh, std::size_t sw,
                        const float* weights, std::size_t oc,
                        const float* bias, bool relu, float* y);

/// Reusable scratch buffers for the layer hot paths: capacity only grows,
/// so after the first batch the vol2col/GEMM pipeline performs no
/// allocation. Slots are caller-defined small integers (one per distinct
/// buffer a layer needs).
class ScratchArena {
 public:
  /// Buffer of at least n floats for `slot`. Contents are unspecified.
  /// The pointer stays valid until the next get() call for the same slot
  /// with a larger n.
  float* get(std::size_t slot, std::size_t n) {
    if (slot >= slots_.size()) slots_.resize(slot + 1);
    if (slots_[slot].size() < n) slots_[slot].resize(n);
    return slots_[slot].data();
  }

 private:
  std::vector<std::vector<float>> slots_;
};

/// Process-wide kernel workload counters (monotonic totals). fit()
/// publishes per-run deltas through obs::MetricsRegistry so traces and
/// the GPU performance model see real workload numbers.
struct KernelCounters {
  std::uint64_t gemm_calls = 0;
  std::uint64_t gemm_flops = 0;     // 2*m*n*k per call
  std::uint64_t im2col_elems = 0;   // patch-matrix elements vol2col wrote
  std::uint64_t col2im_elems = 0;   // patch-matrix elements col2vol summed
  std::uint64_t qgemm_calls = 0;    // int8 GEMM calls (quant.hpp)
  std::uint64_t qgemm_ops = 0;      // 2*m*n*k integer MACs per qgemm call
};

/// Snapshot of the totals accumulated so far in this process.
KernelCounters kernel_counters();

/// Raises glibc's M_MMAP_THRESHOLD so training's layer-by-layer
/// recurring per-batch tensors stay on the heap instead of being
/// mmap'd/munmap'd every batch (~20x demand-paging tax, measured — see
/// docs/performance.md). Idempotent; called lazily from ml::fit. The
/// compiled-plan inference path (ml/plan.hpp) does not need it: plans run
/// out of a preallocated arena.
void tune_interpreted_allocator();

namespace detail {
/// Internal: the int8 kernels (quant.cpp) publish into the shared
/// counters so eval/obs see one workload ledger.
void record_qgemm(std::uint64_t ops);
}  // namespace detail

}  // namespace autolearn::ml
