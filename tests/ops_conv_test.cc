#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/grad_check.h"
#include "tensor/ops.h"

namespace emaf::tensor {
namespace {

// Direct 7-loop reference convolution the im2col implementation must match.
Tensor ReferenceConv2d(const Tensor& input, const Tensor& weight,
                       const Tensor& bias, const Conv2dOptions& o) {
  int64_t batch = input.dim(0);
  int64_t cin = input.dim(1);
  int64_t in_h = input.dim(2);
  int64_t in_w = input.dim(3);
  int64_t cout = weight.dim(0);
  int64_t kh = weight.dim(2);
  int64_t kw = weight.dim(3);
  int64_t out_h = (in_h + 2 * o.pad_h - o.dilation_h * (kh - 1) - 1) / o.stride_h + 1;
  int64_t out_w = (in_w + 2 * o.pad_w - o.dilation_w * (kw - 1) - 1) / o.stride_w + 1;
  Tensor out = Tensor::Zeros(Shape{batch, cout, out_h, out_w});
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t oc = 0; oc < cout; ++oc) {
      for (int64_t oh = 0; oh < out_h; ++oh) {
        for (int64_t ow = 0; ow < out_w; ++ow) {
          double acc = bias.defined() ? bias.At({oc}) : 0.0;
          for (int64_t c = 0; c < cin; ++c) {
            for (int64_t i = 0; i < kh; ++i) {
              for (int64_t j = 0; j < kw; ++j) {
                int64_t ih = oh * o.stride_h - o.pad_h + i * o.dilation_h;
                int64_t iw = ow * o.stride_w - o.pad_w + j * o.dilation_w;
                if (ih < 0 || ih >= in_h || iw < 0 || iw >= in_w) continue;
                acc += input.At({n, c, ih, iw}) * weight.At({oc, c, i, j});
              }
            }
          }
          out.Set({n, oc, oh, ow}, acc);
        }
      }
    }
  }
  return out;
}

struct ConvCase {
  std::string name;
  int64_t batch, cin, h, w, cout, kh, kw;
  Conv2dOptions options;
};

class ConvForwardTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvForwardTest, MatchesReference) {
  const ConvCase& c = GetParam();
  Rng rng(13);
  Tensor input = Tensor::Uniform(Shape{c.batch, c.cin, c.h, c.w}, -1, 1, &rng);
  Tensor weight =
      Tensor::Uniform(Shape{c.cout, c.cin, c.kh, c.kw}, -1, 1, &rng);
  Tensor bias = Tensor::Uniform(Shape{c.cout}, -1, 1, &rng);
  Tensor fast = Conv2d(input, weight, bias, c.options);
  Tensor ref = ReferenceConv2d(input, weight, bias, c.options);
  ASSERT_EQ(fast.shape(), ref.shape());
  for (int64_t i = 0; i < fast.NumElements(); ++i) {
    ASSERT_NEAR(fast.data()[i], ref.data()[i], 1e-10) << c.name << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvForwardTest,
    ::testing::Values(
        ConvCase{"one_by_one", 2, 3, 4, 5, 6, 1, 1, {}},
        ConvCase{"time_kernel", 2, 4, 5, 7, 3, 1, 3, {}},
        ConvCase{"padded", 2, 2, 4, 6, 3, 1, 3, {1, 1, 0, 1, 1, 1}},
        ConvCase{"square_kernel", 1, 2, 5, 5, 2, 3, 3, {1, 1, 1, 1, 1, 1}},
        ConvCase{"strided", 1, 2, 6, 8, 2, 2, 2, {2, 2, 0, 0, 1, 1}},
        ConvCase{"dilated", 1, 2, 7, 9, 2, 2, 3, {1, 1, 0, 0, 2, 2}},
        ConvCase{"dilated_padded", 1, 1, 5, 9, 1, 1, 3, {1, 1, 0, 2, 1, 2}},
        ConvCase{"mtgnn_inception", 3, 8, 5, 6, 4, 1, 2, {}},
        ConvCase{"collapse_time", 2, 4, 5, 5, 1, 1, 5, {}}),
    [](const ::testing::TestParamInfo<ConvCase>& info) {
      return info.param.name;
    });

TEST(ConvTest, NoBias) {
  Rng rng(14);
  Tensor input = Tensor::Uniform(Shape{1, 2, 3, 4}, -1, 1, &rng);
  Tensor weight = Tensor::Uniform(Shape{2, 2, 1, 1}, -1, 1, &rng);
  Conv2dOptions o;
  Tensor fast = Conv2d(input, weight, Tensor(), o);
  Tensor ref = ReferenceConv2d(input, weight, Tensor(), o);
  for (int64_t i = 0; i < fast.NumElements(); ++i) {
    EXPECT_NEAR(fast.data()[i], ref.data()[i], 1e-10);
  }
}

TEST(ConvTest, IdentityKernel) {
  Rng rng(15);
  Tensor input = Tensor::Uniform(Shape{1, 1, 3, 3}, -1, 1, &rng);
  Tensor weight = Tensor::Ones(Shape{1, 1, 1, 1});
  Tensor out = Conv2d(input, weight, Tensor(), {});
  EXPECT_EQ(out.ToVector(), input.ToVector());
}

// Im2Col writes its matrix into uninitialized storage, with explicit zeros
// at padded taps. Under the storage poison switch every fresh buffer starts
// as NaN bytes, so a tap Im2Col (or the backward pass) failed to write
// would show in the forward output or in a gradient.
TEST(ConvTest, PaddedStridedDilatedUnderPoison) {
  Rng rng(17);
  const Conv2dOptions o{2, 2, 1, 2, 2, 2};  // stride 2, pad 1x2, dilation 2
  Tensor input = Tensor::Uniform(Shape{2, 2, 6, 9}, -1, 1, &rng);
  Tensor weight = Tensor::Uniform(Shape{3, 2, 2, 3}, -1, 1, &rng);
  Tensor bias = Tensor::Uniform(Shape{3}, -1, 1, &rng);
  Tensor upstream = Tensor::Uniform(Shape{2, 3, 3, 5}, -1, 1, &rng);

  // Forward output, then the input, weight and bias gradients.
  auto run = [&] {
    Tensor x = input.Clone().SetRequiresGrad(true);
    Tensor w = weight.Clone().SetRequiresGrad(true);
    Tensor b = bias.Clone().SetRequiresGrad(true);
    Tensor out = Conv2d(x, w, b, o);
    Sum(Mul(out, upstream)).Backward();
    return std::vector<Tensor>{out.Detach(), x.grad(), w.grad(), b.grad()};
  };
  const std::vector<Tensor> plain = run();
  const bool was_poisoned = SetPoisonStorageForTest(true);
  const std::vector<Tensor> poisoned = run();
  Tensor poisoned_f32 = Conv2d(input.CastTo(DType::kF32),
                               weight.CastTo(DType::kF32),
                               bias.CastTo(DType::kF32), o);
  GradCheckResult check = CheckGradients(
      [&](const std::vector<Tensor>& in) {
        return Sum(Mul(Conv2d(in[0], in[1], in[2], o), upstream));
      },
      {input, weight, bias}, 1e-6, 1e-5);
  SetPoisonStorageForTest(was_poisoned);

  Tensor ref = ReferenceConv2d(input, weight, bias, o);
  ASSERT_EQ(poisoned[0].shape(), ref.shape());
  for (int64_t i = 0; i < ref.NumElements(); ++i) {
    EXPECT_NEAR(poisoned[0].data()[i], ref.data()[i], 1e-10) << "i=" << i;
    EXPECT_NEAR(poisoned_f32.data<float>()[i], ref.data()[i], 1e-5)
        << "f32 i=" << i;
  }
  for (size_t t = 0; t < plain.size(); ++t) {
    ASSERT_TRUE(poisoned[t].defined()) << "tensor " << t;
    for (double v : poisoned[t].ToVector()) {
      ASSERT_TRUE(std::isfinite(v)) << "tensor " << t;
    }
    EXPECT_EQ(std::memcmp(plain[t].data(), poisoned[t].data(),
                          static_cast<size_t>(plain[t].byte_size())),
              0)
        << "tensor " << t;
  }
  EXPECT_TRUE(check.ok) << "err " << check.max_error;
}

TEST(ConvDeathTest, BadShapes) {
  EXPECT_DEATH(Conv2d(Tensor::Zeros(Shape{2, 3}), Tensor::Zeros(Shape{1, 3, 1, 1}),
                      Tensor(), {}),
               "");
  EXPECT_DEATH(Conv2d(Tensor::Zeros(Shape{1, 3, 4, 4}),
                      Tensor::Zeros(Shape{1, 2, 1, 1}), Tensor(), {}),
               "channel mismatch");
}

TEST(ConvDeathTest, EmptyOutput) {
  EXPECT_DEATH(Conv2d(Tensor::Zeros(Shape{1, 1, 2, 2}),
                      Tensor::Zeros(Shape{1, 1, 3, 3}), Tensor(), {}),
               "empty output");
}

class ConvGradTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradTest, MatchesFiniteDifferences) {
  const ConvCase& c = GetParam();
  Rng rng(16);
  Tensor input = Tensor::Uniform(Shape{c.batch, c.cin, c.h, c.w}, -1, 1, &rng);
  Tensor weight =
      Tensor::Uniform(Shape{c.cout, c.cin, c.kh, c.kw}, -1, 1, &rng);
  Tensor bias = Tensor::Uniform(Shape{c.cout}, -1, 1, &rng);
  GradCheckResult r = CheckGradients(
      [&](const std::vector<Tensor>& in) {
        Tensor out = Conv2d(in[0], in[1], in[2], c.options);
        return Sum(Mul(out, out));
      },
      {input, weight, bias}, 1e-6, 1e-5);
  EXPECT_TRUE(r.ok) << c.name << " err " << r.max_error;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvGradTest,
    ::testing::Values(
        ConvCase{"one_by_one", 2, 2, 3, 3, 2, 1, 1, {}},
        ConvCase{"time_kernel", 1, 2, 3, 5, 2, 1, 3, {}},
        ConvCase{"padded", 1, 2, 3, 4, 2, 1, 3, {1, 1, 0, 1, 1, 1}},
        ConvCase{"strided", 1, 1, 5, 6, 1, 2, 2, {2, 2, 0, 0, 1, 1}},
        ConvCase{"dilated", 1, 1, 5, 6, 1, 2, 2, {1, 1, 0, 0, 2, 2}}),
    [](const ::testing::TestParamInfo<ConvCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace emaf::tensor
