#include <immintrin.h>

#include <algorithm>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "tensor/op_common.h"
#include "tensor/ops.h"
#include "tensor/plan_hook.h"
#include "tensor/simd_f32.h"

namespace emaf::tensor {

namespace internal {

namespace {

// The f64 GEMM computes, for each C[i][j], the chain
//   for kk in 0..k: C[i][j] = fma(A[i][kk], B[kk][j], C[i][j])
// in ascending kk order from C's initial value, skipping a kk when the A
// values of the row's whole 4-row block are zero (rows past the last full
// block form 1-row blocks). The skip is part of the result, not only a
// shortcut: fma(0, inf, c) is NaN and fma(+0, b, -0.0) is +0, so
// ParallelMatMul's 4-row-aligned chunks skip exactly the kk a serial
// sweep skips and agree with it bitwise.
//
// k is walked in chunks of kKc. Per chunk and row block, the A values of
// the kk that survive the zero-skip are packed (R per kk, contiguous) with
// their B row offsets; every column tile of the block then runs over that
// packed list with its C tile held in registers. C round-trips through
// memory between chunks, which is exact, so each element still sees one
// ascending-kk FMA chain.

constexpr int64_t kKc = 256;

// C[0:R, 0:4*NV] += packed A x B over `count` packed kk, the tile held in
// ymm registers for the whole walk. With kMask the last vector covers only
// the lanes set in `mask` (the n tail); masked lanes are neither read nor
// written.
template <int R, int NV, bool kMask>
inline __attribute__((always_inline)) void GemmTile(
    const Scalar* ap, const int64_t* boff, int64_t count, const Scalar* b,
    Scalar* c, int64_t n, __m256i mask) {
  __m256d acc[R][NV];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      acc[r][v] = (kMask && v == NV - 1)
                      ? _mm256_maskload_pd(c + r * n + 4 * v, mask)
                      : _mm256_loadu_pd(c + r * n + 4 * v);
    }
  }
  for (int64_t t = 0; t < count; ++t) {
    const Scalar* brow = b + boff[t];
    __m256d bv[NV];
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      bv[v] = (kMask && v == NV - 1) ? _mm256_maskload_pd(brow + 4 * v, mask)
                                     : _mm256_loadu_pd(brow + 4 * v);
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256d w = _mm256_broadcast_sd(ap + t * R + r);
#pragma GCC unroll 8
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = _mm256_fmadd_pd(w, bv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      if (kMask && v == NV - 1) {
        _mm256_maskstore_pd(c + r * n + 4 * v, mask, acc[r][v]);
      } else {
        _mm256_storeu_pd(c + r * n + 4 * v, acc[r][v]);
      }
    }
  }
}

// One packed block of R rows across all n columns: 4x8 tiles for a 4-row
// block; 1x32 tiles for a single row (enough independent FMA chains to
// hide latency, e.g. an LSTM gate row [1, 64] x [64, 256]) with 8-column
// tiles after them; then 4- and masked 1-3-column tails.
template <int R>
void GemmRowBlock(const Scalar* ap, const int64_t* boff, int64_t count,
                  const Scalar* b, Scalar* c, int64_t n) {
  constexpr int kMainVectors = R == 4 ? 2 : 8;
  const __m256i all = _mm256_set1_epi64x(-1);
  int64_t j = 0;
  for (; j + 4 * kMainVectors <= n; j += 4 * kMainVectors) {
    GemmTile<R, kMainVectors, false>(ap, boff, count, b + j, c + j, n, all);
  }
  if constexpr (R == 1) {
    for (; j + 8 <= n; j += 8) {
      GemmTile<R, 2, false>(ap, boff, count, b + j, c + j, n, all);
    }
  }
  if (j + 4 <= n) {
    GemmTile<R, 1, false>(ap, boff, count, b + j, c + j, n, all);
    j += 4;
  }
  if (j < n) {
    const int64_t rem = n - j;
    const __m256i mask =
        _mm256_setr_epi64x(-1, rem > 1 ? -1 : 0, rem > 2 ? -1 : 0, 0);
    GemmTile<R, 1, true>(ap, boff, count, b + j, c + j, n, mask);
  }
}

// The kernel body for both entry points. A[i][kk] is a[i * lda + kk], or
// with kTransA (A read from its transpose A^T, [k, lda]) a[kk * lda + i],
// so a 4-row block packs four contiguous doubles per kk. Packing order,
// zero-skip and the per-element FMA chain are the same either way.
template <bool kTransA>
void GemmKernel(const Scalar* __restrict__ a, int64_t lda,
                const Scalar* __restrict__ b, Scalar* __restrict__ c,
                int64_t m, int64_t k, int64_t n) {
  alignas(32) Scalar ap[kKc * 4];
  int64_t boff[kKc];
  for (int64_t k0 = 0; k0 < k; k0 += kKc) {
    const int64_t k1 = std::min(k, k0 + kKc);
    int64_t i = 0;
    for (; i + 4 <= m; i += 4) {
      int64_t count = 0;
      for (int64_t kk = k0; kk < k1; ++kk) {
        Scalar v0, v1, v2, v3;
        if constexpr (kTransA) {
          const Scalar* src = a + kk * lda + i;
          v0 = src[0];
          v1 = src[1];
          v2 = src[2];
          v3 = src[3];
        } else {
          const Scalar* src = a + i * lda + kk;
          v0 = src[0];
          v1 = src[lda];
          v2 = src[2 * lda];
          v3 = src[3 * lda];
        }
        if (v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0) continue;
        Scalar* dst = ap + count * 4;
        dst[0] = v0;
        dst[1] = v1;
        dst[2] = v2;
        dst[3] = v3;
        boff[count++] = kk * n;
      }
      GemmRowBlock<4>(ap, boff, count, b, c + i * n, n);
    }
    for (; i < m; ++i) {
      int64_t count = 0;
      for (int64_t kk = k0; kk < k1; ++kk) {
        const Scalar v = kTransA ? a[kk * lda + i] : a[i * lda + kk];
        if (v == 0.0) continue;
        ap[count] = v;
        boff[count++] = kk * n;
      }
      GemmRowBlock<1>(ap, boff, count, b, c + i * n, n);
    }
  }
}

// GemmKernel split by rows over the pool; see ParallelMatMul in
// op_common.h.
template <bool kTransA>
void ParallelGemm(const Scalar* a, int64_t lda, const Scalar* b, Scalar* c,
                  int64_t m, int64_t k, int64_t n) {
  common::ThreadPool& pool = common::ThreadPool::Global();
  if (pool.num_threads() <= 1 || m < 8 || m * k * n < kMatMulParallelMinFlops) {
    EMAF_METRIC_COUNTER_ADD("matmul.dispatch_serial", 1);
    GemmKernel<kTransA>(a, lda, b, c, m, k, n);
    return;
  }
  EMAF_METRIC_COUNTER_ADD("matmul.dispatch_parallel", 1);
  // Chunk in units of the kernel's 4-row block: a chunk starting at a
  // multiple of 4 replays exactly the serial schedule for its rows (the
  // sub-4 remainder, if any, lands in the final chunk just as it does at
  // the end of a serial sweep), so the output is bitwise identical.
  int64_t num_blocks = (m + 3) / 4;
  int64_t grain = std::max<int64_t>(
      1, num_blocks / (pool.num_threads() * 4));
  pool.ParallelFor(0, num_blocks, grain, [&](int64_t b0, int64_t b1) {
    int64_t r0 = b0 * 4;
    int64_t r1 = std::min(b1 * 4, m);
    const Scalar* a_rows = kTransA ? a + r0 : a + r0 * lda;
    GemmKernel<kTransA>(a_rows, lda, b, c + r0 * n, r1 - r0, k, n);
  });
}

}  // namespace

void MatMulKernel(const Scalar* a, const Scalar* b, Scalar* c, int64_t m,
                  int64_t k, int64_t n) {
  GemmKernel<false>(a, k, b, c, m, k, n);
}

void MatMulKernelTransA(const Scalar* at, int64_t lda, const Scalar* b,
                        Scalar* c, int64_t m, int64_t k, int64_t n) {
  GemmKernel<true>(at, lda, b, c, m, k, n);
}

void ParallelMatMul(const Scalar* a, const Scalar* b, Scalar* c, int64_t m,
                    int64_t k, int64_t n) {
  ParallelGemm<false>(a, k, b, c, m, k, n);
}

void ParallelMatMulTransA(const Scalar* at, int64_t lda, const Scalar* b,
                          Scalar* c, int64_t m, int64_t k, int64_t n) {
  ParallelGemm<true>(at, lda, b, c, m, k, n);
}

void ParallelMatMul(const float* a, const float* b, float* c, int64_t m,
                    int64_t k, int64_t n) {
  common::ThreadPool& pool = common::ThreadPool::Global();
  if (pool.num_threads() <= 1 || m < 8 || m * k * n < kMatMulParallelMinFlops) {
    EMAF_METRIC_COUNTER_ADD("matmul.dispatch_serial", 1);
    simd::MatMulF32(a, b, c, m, k, n);
    return;
  }
  EMAF_METRIC_COUNTER_ADD("matmul.dispatch_parallel", 1);
  // Rows of the f32 kernel are fully independent (simd_f32.h: no
  // zero-skip, no cross-row state), so any row partition is bitwise-safe;
  // chunk at the kernel's 4-row block so full blocks stay intact.
  int64_t num_blocks = (m + 3) / 4;
  int64_t grain = std::max<int64_t>(
      1, num_blocks / (pool.num_threads() * 4));
  pool.ParallelFor(0, num_blocks, grain, [&](int64_t b0, int64_t b1) {
    int64_t r0 = b0 * 4;
    int64_t r1 = std::min(b1 * 4, m);
    simd::MatMulF32(a + r0 * k, b, c + r0 * n, r1 - r0, k, n);
  });
}

}  // namespace internal

namespace {

// Shape of the leading (batch) axes, i.e. everything but the last two.
Shape BatchShape(const Shape& s) {
  std::vector<int64_t> dims(s.dims().begin(), s.dims().end() - 2);
  return Shape(dims);
}

// The serial per-batch kernel for each element type: f64 runs the
// zero-skipping MatMulKernel (golden bytes), f32 the simd kernel, which
// dispatches on simd::Enabled().
inline void SerialKernel(const Scalar* a, const Scalar* b, Scalar* c,
                         int64_t m, int64_t k, int64_t n) {
  internal::MatMulKernel(a, b, c, m, k, n);
}
inline void SerialKernel(const float* a, const float* b, float* c, int64_t m,
                         int64_t k, int64_t n) {
  simd::MatMulF32(a, b, c, m, k, n);
}

// The dtype-generic compute body of MatMul: out must be zero-initialized
// with the broadcast-batched output shape.
template <typename T>
void MatMulCompute(const Tensor& a, const Tensor& b, Tensor* out, int64_t m,
                   int64_t k, int64_t n, const Shape& a_batch,
                   const Shape& b_batch, const Shape& batch) {
  const T* ad = a.data<T>();
  const T* bd = b.data<T>();
  T* od = out->data<T>();

  if (b.rank() == 2) {
    // Shared right matrix: collapse all leading axes of `a` into rows and
    // run one large matmul — the hot path for linear layers and graph
    // propagation.
    int64_t rows = a.NumElements() / k;
    internal::ParallelMatMul(ad, bd, od, rows, k, n);
    return;
  }
  // General broadcast-batched case, batch offsets via odometer. The
  // odometer walk is cheap and stays serial; the per-batch kernels run
  // in parallel over pre-computed offsets when the total work is large
  // enough (each batch writes a disjoint output slab, and each batch's
  // kernel is the same call as in the serial loop, so the result is
  // bitwise identical).
  std::vector<int64_t> a_strides = BroadcastStrides(a_batch, batch);
  std::vector<int64_t> b_strides = BroadcastStrides(b_batch, batch);
  const std::vector<int64_t>& batch_dims = batch.dims();
  int64_t batch_rank = batch.rank();
  int64_t num_batches = batch.NumElements();
  std::vector<int64_t> index(static_cast<size_t>(batch_rank), 0);
  std::vector<int64_t> a_offsets(static_cast<size_t>(num_batches));
  std::vector<int64_t> b_offsets(static_cast<size_t>(num_batches));
  int64_t a_off = 0;
  int64_t b_off = 0;
  for (int64_t batch_idx = 0; batch_idx < num_batches; ++batch_idx) {
    a_offsets[static_cast<size_t>(batch_idx)] = a_off * m * k;
    b_offsets[static_cast<size_t>(batch_idx)] = b_off * k * n;
    for (int64_t axis = batch_rank - 1; axis >= 0; --axis) {
      a_off += a_strides[axis];
      b_off += b_strides[axis];
      if (++index[axis] < batch_dims[axis]) break;
      a_off -= a_strides[axis] * batch_dims[axis];
      b_off -= b_strides[axis] * batch_dims[axis];
      index[axis] = 0;
    }
  }
  common::ThreadPool& pool = common::ThreadPool::Global();
  bool parallel = pool.num_threads() > 1 && num_batches > 1 &&
                  num_batches * m * k * n >= internal::kMatMulParallelMinFlops;
  auto run_batches = [&](int64_t lo, int64_t hi) {
    for (int64_t batch_idx = lo; batch_idx < hi; ++batch_idx) {
      SerialKernel(ad + a_offsets[static_cast<size_t>(batch_idx)],
                   bd + b_offsets[static_cast<size_t>(batch_idx)],
                   od + batch_idx * m * n, m, k, n);
    }
  };
  if (parallel) {
    EMAF_METRIC_COUNTER_ADD("matmul.batched_dispatch_parallel", 1);
    pool.ParallelFor(0, num_batches, 1, run_batches);
  } else {
    EMAF_METRIC_COUNTER_ADD("matmul.batched_dispatch_serial", 1);
    run_batches(0, num_batches);
  }
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  EMAF_CHECK_GE(a.rank(), 2) << "MatMul input must have rank >= 2";
  EMAF_CHECK_GE(b.rank(), 2) << "MatMul input must have rank >= 2";
  int64_t m = a.dim(-2);
  int64_t k = a.dim(-1);
  int64_t k2 = b.dim(-2);
  int64_t n = b.dim(-1);
  EMAF_CHECK_EQ(k, k2) << "MatMul inner dimension mismatch: "
                       << a.shape().ToString() << " x " << b.shape().ToString();

  EMAF_CHECK(a.dtype() == b.dtype())
      << "MatMul on " << DTypeName(a.dtype()) << " and "
      << DTypeName(b.dtype());
  Shape a_batch = BatchShape(a.shape());
  Shape b_batch = BatchShape(b.shape());
  Shape batch = BroadcastShapes(a_batch, b_batch);
  std::vector<int64_t> out_dims = batch.dims();
  out_dims.push_back(m);
  out_dims.push_back(n);
  Tensor out = Tensor::Zeros(Shape(out_dims), a.dtype());

  if (a.dtype() == DType::kF32) {
    MatMulCompute<float>(a, b, &out, m, k, n, a_batch, b_batch, batch);
  } else {
    MatMulCompute<Scalar>(a, b, &out, m, k, n, a_batch, b_batch, batch);
  }

  if (plan_hook::Active()) {
    plan_hook::Record({plan_hook::OpKind::kMatMul, {a, b}, out});
  }
  if (ShouldRecord({a, b})) {
    Tensor ad_saved = a.Detach();
    Tensor bd_saved = b.Detach();
    // Which inputs take a gradient is fixed at record time; the others get
    // an undefined Tensor and no GEMM.
    bool need_a = a.TracksGrad();
    bool need_b = b.TracksGrad();
    SetGradFn(&out, "MatMul", {a, b},
              [ad_saved, bd_saved, need_a, need_b](const Tensor& g) {
      NoGradGuard guard;
      // dA = g B^T, reduced over broadcast batch dims; likewise dB.
      Tensor ga;
      if (need_a) {
        ga = internal::ReduceGrad(MatMul(g, TransposeLast2(bd_saved)),
                                  ad_saved.shape());
      }
      Tensor gb;
      if (need_b && bd_saved.rank() == 2) {
        // dB = sum_batch A^T g = (collapsed A)^T (collapsed g): one kernel
        // call that reads A^T in place, instead of a batched matmul plus
        // reduction.
        int64_t k = bd_saved.dim(0);
        int64_t n = bd_saved.dim(1);
        int64_t rows = ad_saved.NumElements() / k;
        gb = Tensor::Zeros(bd_saved.shape());
        internal::ParallelMatMulTransA(ad_saved.data(), k, g.data(),
                                       gb.data(), k, rows, n);
      } else if (need_b) {
        gb = internal::ReduceGrad(MatMul(TransposeLast2(ad_saved), g),
                                  bd_saved.shape());
      }
      return std::vector<Tensor>{ga, gb};
    });
  }
  return out;
}

}  // namespace emaf::tensor
