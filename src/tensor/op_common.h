// Internal helpers shared by op implementations. Not part of the public API.

#ifndef EMAF_TENSOR_OP_COMMON_H_
#define EMAF_TENSOR_OP_COMMON_H_

#include <vector>

#include "common/check.h"
#include "tensor/autograd.h"
#include "tensor/dtype.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace emaf::tensor::internal {

// C += A B on raw row-major buffers; C must be zero-initialized (or hold a
// partial sum to accumulate into). Each C[i][j] is one fma chain over
// ascending kk from its initial value; a kk is skipped when all four A
// values of the row's 4-row block are zero (single rows past the last full
// block: when A[i][kk] is zero). Register-tiled AVX2/FMA (DESIGN.md,
// "Dtype layer & SIMD dispatch"). Defined in ops_matmul.cc.
void MatMulKernel(const Scalar* a, const Scalar* b, Scalar* c, int64_t m,
                  int64_t k, int64_t n);

// MatMulKernel with A read in place from its transpose: `at` is A^T, a
// [k, lda] row-major buffer with lda >= m, so A[i][kk] = at[kk * lda + i].
// Bitwise equal to MatMulKernel on an explicitly transposed copy of A (the
// same packed values, zero-skip and FMA chains); it saves that copy when
// the caller holds A^T, e.g. dB = A^T g. Defined in ops_matmul.cc.
void MatMulKernelTransA(const Scalar* at, int64_t lda, const Scalar* b,
                        Scalar* c, int64_t m, int64_t k, int64_t n);

// MatMulKernel parallelized over rows of C on the global ThreadPool.
// Partitions only at multiples of the kernel's 4-row block, so every row
// runs the exact serial instruction sequence and the result is bitwise
// identical to one MatMulKernel call at any thread count. Stays serial
// below a flop threshold (kMatMulParallelMinFlops) where fork/join
// overhead would dominate. Defined in ops_matmul.cc.
void ParallelMatMul(const Scalar* a, const Scalar* b, Scalar* c, int64_t m,
                    int64_t k, int64_t n);

// MatMulKernelTransA parallelized like ParallelMatMul: the same 4-row
// chunks (column offsets into A^T), so bitwise equal to one serial call.
void ParallelMatMulTransA(const Scalar* at, int64_t lda, const Scalar* b,
                          Scalar* c, int64_t m, int64_t k, int64_t n);

// f32 overload: rows of C are fully independent in the f32 kernel
// (simd_f32.h), so any row partition is bitwise-safe at any thread count.
// Dispatches to the AVX2/FMA microkernel or its scalar-fmaf fallback per
// simd::Enabled(); both arms produce identical bytes.
void ParallelMatMul(const float* a, const float* b, float* c, int64_t m,
                    int64_t k, int64_t n);

// m * k * n below which ParallelMatMul runs serially.
inline constexpr int64_t kMatMulParallelMinFlops = 1 << 17;

// Applies `f(x_i)` elementwise into a fresh tensor of x's dtype (no
// autograd recording; callers attach their own GradFn). `f` must be
// generic (or Scalar-typed for f64-only callers such as backward passes);
// at float instantiation every literal inside `f` must be T-pure or the
// arithmetic silently promotes to double.
template <typename T, typename F>
Tensor MapUnaryT(const Tensor& x, F f) {
  Tensor out = MakeUninitialized(x.shape(), x.dtype());
  const T* xd = x.template data<T>();
  T* od = out.template data<T>();
  int64_t n = x.NumElements();
  for (int64_t i = 0; i < n; ++i) od[i] = f(xd[i]);
  return out;
}

template <typename F>
Tensor MapUnary(const Tensor& x, F f) {
  if (x.dtype() == DType::kF32) return MapUnaryT<float>(x, f);
  return MapUnaryT<double>(x, f);
}

// Rewrites an odometer walk over `dims`, with one stride vector per
// operand, into the fewest axes that visit the same offsets in the same
// order: size-1 axes are dropped, and an axis is merged into its inner
// neighbour when every operand steps contiguously across the pair
// (outer stride == inner stride * inner extent; stride 0 on both counts).
// Leaves at least one axis. After it, in any broadcast of two operands the
// innermost strides are 1/1, 1/0 or 0/1 unless the innermost extent is 1.
inline void CoalesceAxes(std::vector<int64_t>* dims,
                         const std::vector<std::vector<int64_t>*>& strides) {
  std::vector<int64_t> out_dims;
  std::vector<std::vector<int64_t>> out_strides(strides.size());
  for (size_t axis = 0; axis < dims->size(); ++axis) {
    const int64_t d = (*dims)[axis];
    if (d == 1) continue;
    bool merge = !out_dims.empty();
    for (size_t s = 0; merge && s < strides.size(); ++s) {
      merge = out_strides[s].back() == (*strides[s])[axis] * d;
    }
    if (merge) {
      out_dims.back() *= d;
      for (size_t s = 0; s < strides.size(); ++s) {
        out_strides[s].back() = (*strides[s])[axis];
      }
      continue;
    }
    out_dims.push_back(d);
    for (size_t s = 0; s < strides.size(); ++s) {
      out_strides[s].push_back((*strides[s])[axis]);
    }
  }
  if (out_dims.empty()) {
    out_dims.push_back(1);
    for (auto& st : out_strides) st.push_back(0);
  }
  *dims = std::move(out_dims);
  for (size_t s = 0; s < strides.size(); ++s) {
    *strides[s] = std::move(out_strides[s]);
  }
}

// Applies `f(a_i, b_i)` with broadcasting into a fresh tensor (no autograd).
// The broadcast walk runs over coalesced axes one innermost run at a time,
// so each element is still computed as f of the same two values.
template <typename T, typename F>
Tensor MapBinaryT(const Tensor& a, const Tensor& b, F f) {
  if (a.shape() == b.shape()) {
    Tensor out = MakeUninitialized(a.shape(), a.dtype());
    const T* ad = a.template data<T>();
    const T* bd = b.template data<T>();
    T* od = out.template data<T>();
    int64_t n = a.NumElements();
    for (int64_t i = 0; i < n; ++i) od[i] = f(ad[i], bd[i]);
    return out;
  }
  Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  Tensor out = MakeUninitialized(out_shape, a.dtype());
  const int64_t n = out_shape.NumElements();
  if (n == 0) return out;
  std::vector<int64_t> a_strides = BroadcastStrides(a.shape(), out_shape);
  std::vector<int64_t> b_strides = BroadcastStrides(b.shape(), out_shape);
  std::vector<int64_t> dims = out_shape.dims();
  CoalesceAxes(&dims, {&a_strides, &b_strides});
  const int64_t rank = static_cast<int64_t>(dims.size());
  std::vector<int64_t> index(dims.size(), 0);
  const int64_t inner = dims.back();
  const int64_t sa = a_strides.back();
  const int64_t sb = b_strides.back();
  const T* ad = a.template data<T>();
  const T* bd = b.template data<T>();
  T* od = out.template data<T>();
  int64_t a_off = 0;
  int64_t b_off = 0;
  for (int64_t i = 0; i < n; i += inner) {
    const T* ap = ad + a_off;
    const T* bp = bd + b_off;
    T* op = od + i;
    if (sa == 1 && sb == 1) {
      for (int64_t j = 0; j < inner; ++j) op[j] = f(ap[j], bp[j]);
    } else if (sa == 1 && sb == 0) {
      const T bv = *bp;
      for (int64_t j = 0; j < inner; ++j) op[j] = f(ap[j], bv);
    } else if (sa == 0 && sb == 1) {
      const T av = *ap;
      for (int64_t j = 0; j < inner; ++j) op[j] = f(av, bp[j]);
    } else {
      for (int64_t j = 0; j < inner; ++j) op[j] = f(ap[j * sa], bp[j * sb]);
    }
    // Odometer increment over the outer axes, updating offsets in place.
    for (int64_t axis = rank - 2; axis >= 0; --axis) {
      a_off += a_strides[axis];
      b_off += b_strides[axis];
      if (++index[axis] < dims[axis]) break;
      // Carry: rewind this axis.
      a_off -= a_strides[axis] * dims[axis];
      b_off -= b_strides[axis] * dims[axis];
      index[axis] = 0;
    }
  }
  return out;
}

template <typename F>
Tensor MapBinary(const Tensor& a, const Tensor& b, F f) {
  EMAF_CHECK(a.dtype() == b.dtype())
      << "binary op on " << DTypeName(a.dtype()) << " and "
      << DTypeName(b.dtype());
  if (a.dtype() == DType::kF32) return MapBinaryT<float>(a, b, f);
  return MapBinaryT<double>(a, b, f);
}

// Reduces a backward closure's incoming gradient `g` to an input's shape:
// `g` itself, uncopied, when the shapes already match, else SumTo. The
// engine adopts or clones what a closure returns (AccumulateGrad in
// autograd.cc), so handing back `g` is safe; a closure must not write into
// the result in place. SumTo keeps its deep-copy contract for other callers.
inline Tensor ReduceGrad(const Tensor& g, const Shape& target) {
  return g.shape() == target ? g : SumTo(g, target);
}

}  // namespace emaf::tensor::internal

#endif  // EMAF_TENSOR_OP_COMMON_H_
