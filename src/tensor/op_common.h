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

// MatMulKernel parallelized over rows of C on the global ThreadPool.
// Partitions only at multiples of the kernel's 4-row block, so every row
// runs the exact serial instruction sequence and the result is bitwise
// identical to one MatMulKernel call at any thread count. Stays serial
// below a flop threshold (kMatMulParallelMinFlops) where fork/join
// overhead would dominate. Defined in ops_matmul.cc.
void ParallelMatMul(const Scalar* a, const Scalar* b, Scalar* c, int64_t m,
                    int64_t k, int64_t n);

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

// Applies `f(a_i, b_i)` with broadcasting into a fresh tensor (no autograd).
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
  std::vector<int64_t> a_strides = BroadcastStrides(a.shape(), out_shape);
  std::vector<int64_t> b_strides = BroadcastStrides(b.shape(), out_shape);
  const std::vector<int64_t>& dims = out_shape.dims();
  int64_t rank = out_shape.rank();
  std::vector<int64_t> index(rank, 0);
  const T* ad = a.template data<T>();
  const T* bd = b.template data<T>();
  T* od = out.template data<T>();
  int64_t n = out_shape.NumElements();
  int64_t a_off = 0;
  int64_t b_off = 0;
  for (int64_t i = 0; i < n; ++i) {
    od[i] = f(ad[a_off], bd[b_off]);
    // Odometer increment over the multi-index, updating offsets in place.
    for (int64_t axis = rank - 1; axis >= 0; --axis) {
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

}  // namespace emaf::tensor::internal

#endif  // EMAF_TENSOR_OP_COMMON_H_
