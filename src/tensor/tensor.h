// Tensor: contiguous row-major N-d array with a runtime element type
// (DType: f64 for training and the default serving path, f32 for the
// opt-in inference path) and tape-based reverse-mode autodiff.
//
// A Tensor is a cheap handle (shared_ptr) onto a TensorImpl. Math lives in
// free functions (tensor/ops.h); each differentiable op records a GradFn
// node so `loss.Backward()` can later accumulate gradients into every leaf
// created with requires_grad — see tensor/autograd.h.
//
// Storage is a raw byte buffer tagged with a DType. A fresh buffer is
// uninitialized: neither the heap path nor the InferenceArena zeroes it,
// and a recycled arena buffer holds the stale bytes of its last user. Ops
// write every output element before it is read; Tensor::Zeros is the one
// factory that zeroes its buffer. The checked non-template data()
// accessors are the f64 fast path every pre-dtype call site uses (they
// CHECK the tensor is f64); dtype-generic code reads through data<T>() or
// raw_data(). Gradients are always f64 — autograd never runs on f32
// tensors.
//
// Tensors are always contiguous; Reshape shares storage, every other shape
// op copies. No in-place differentiable ops exist: optimizers mutate
// parameter storage directly through data(), outside the tape.

#ifndef EMAF_TENSOR_TENSOR_H_
#define EMAF_TENSOR_TENSOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "tensor/dtype.h"
#include "tensor/shape.h"

namespace emaf::tensor {

using Scalar = double;

struct GradFn;  // defined in tensor/autograd.h

// std::allocator whose argument-less construct() default-initializes, so
// std::vector<T, DefaultInitAllocator<T>>(n) leaves trivial elements
// unwritten instead of value-initializing (zeroing) them.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  using std::allocator<T>::allocator;

  // Constructions with arguments (copies) fall back to std::construct_at.
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

// A tensor's payload bytes; Storage(n) is n uninitialized bytes.
using Storage = std::vector<std::byte, DefaultInitAllocator<std::byte>>;

// Internal representation. Treat as private to the tensor subsystem.
struct TensorImpl {
  Shape shape;
  DType dtype = DType::kF64;
  std::shared_ptr<Storage> storage;
  bool requires_grad = false;
  // Non-null for op outputs that participate in the autodiff graph.
  std::shared_ptr<GradFn> grad_fn;
  // Gradient accumulated by Backward() for leaves with requires_grad.
  std::shared_ptr<TensorImpl> grad;
};

class Tensor {
 public:
  // An undefined tensor; defined() is false, most other calls CHECK-fail.
  Tensor() = default;

  // --- Factories -----------------------------------------------------------
  // The only factory that zeroes its buffer (MakeUninitialized does not).
  static Tensor Zeros(const Shape& shape, DType dtype = DType::kF64);
  static Tensor Ones(const Shape& shape, DType dtype = DType::kF64);
  static Tensor Full(const Shape& shape, Scalar value,
                     DType dtype = DType::kF64);
  static Tensor FromVector(const Shape& shape, std::vector<Scalar> values);
  static Tensor FromScalar(Scalar value);  // rank-0
  static Tensor Eye(int64_t n);
  static Tensor Arange(int64_t n);  // [0, 1, ..., n-1], shape [n]
  static Tensor Uniform(const Shape& shape, Scalar low, Scalar high, Rng* rng);
  static Tensor Normal(const Shape& shape, Scalar mean, Scalar stddev,
                       Rng* rng);
  static Tensor Bernoulli(const Shape& shape, Scalar p, Rng* rng);

  // --- Introspection -------------------------------------------------------
  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const;
  DType dtype() const;
  int64_t rank() const { return shape().rank(); }
  int64_t dim(int64_t axis) const { return shape().DimChecked(axis); }
  int64_t NumElements() const { return shape().NumElements(); }
  // NumElements() * DTypeSize(dtype()): the in-memory payload size.
  int64_t byte_size() const;
  std::string ToString() const;  // shape + values (small tensors only)

  // --- Data access ---------------------------------------------------------
  // f64 accessors (CHECK dtype() == kF64): the path every pre-dtype call
  // site compiles against unchanged.
  Scalar* data();
  const Scalar* data() const;
  // Typed accessors; CHECK that T matches dtype().
  template <typename T>
  T* data() {
    return static_cast<T*>(CheckedRawData(DTypeOf<T>::value));
  }
  template <typename T>
  const T* data() const {
    return static_cast<const T*>(CheckedRawData(DTypeOf<T>::value));
  }
  // Untyped storage pointer (any dtype); size is byte_size().
  void* raw_data();
  const void* raw_data() const;
  // Element by multi-index (converted through Scalar for any dtype).
  Scalar At(const std::vector<int64_t>& index) const;
  void Set(const std::vector<int64_t>& index, Scalar value);
  // Value of a single-element tensor.
  Scalar item() const;
  std::vector<Scalar> ToVector() const;
  void Fill(Scalar value);

  // Deep copy of values; result is a leaf outside the autodiff graph.
  Tensor Clone() const;
  // Same storage, detached from the graph (no grad_fn, requires_grad off).
  Tensor Detach() const;
  // Converting copy to `dtype` (a leaf outside the graph); returns *this
  // unchanged when the dtype already matches.
  Tensor CastTo(DType dtype) const;

  // --- Autograd ------------------------------------------------------------
  Tensor& SetRequiresGrad(bool requires_grad);
  bool requires_grad() const;
  // True if gradients flow through this tensor (leaf flag or recorded op).
  bool TracksGrad() const;
  // Gradient accumulated by Backward(); undefined Tensor if none.
  Tensor grad() const;
  void ZeroGrad();
  // Reverse-mode sweep from this (single-element) tensor.
  void Backward() const;

  // Internal: wraps an impl. Used by ops and the autograd engine.
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}
  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }

 private:
  void* CheckedRawData(DType expected) const;

  std::shared_ptr<TensorImpl> impl_;
};

// Creates a defined tensor with uninitialized storage (ops use this): a
// fresh heap buffer or, under an ArenaScope, a recycled one holding stale
// values. The caller must write every element before reading it.
Tensor MakeUninitialized(const Shape& shape, DType dtype = DType::kF64);

// Test hook: while on, every buffer MakeUninitialized hands out (heap or
// arena, fresh or recycled) is first filled with 0xFF bytes, a NaN in f64
// and in f32, so any read of an element no op wrote poisons the result.
// Returns the previous setting.
bool SetPoisonStorageForTest(bool poison);

}  // namespace emaf::tensor

#endif  // EMAF_TENSOR_TENSOR_H_
