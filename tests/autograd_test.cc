#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/autograd.h"
#include "tensor/grad_check.h"
#include "tensor/ops.h"

namespace emaf::tensor {
namespace {

TEST(AutogradTest, SimpleChainRule) {
  // y = (2x)^2 -> dy/dx = 8x.
  Tensor x = Tensor::FromVector(Shape{2}, {1.0, 3.0}).SetRequiresGrad(true);
  Tensor y = Mul(MulScalar(x, 2.0), MulScalar(x, 2.0));
  Sum(y).Backward();
  EXPECT_EQ(x.grad().ToVector(), (std::vector<double>{8, 24}));
}

TEST(AutogradTest, DiamondGraphAccumulates) {
  // z = x*x + x*x uses x through two paths.
  Tensor x = Tensor::FromVector(Shape{1}, {3.0}).SetRequiresGrad(true);
  Tensor a = Mul(x, x);
  Tensor b = Mul(x, x);
  Sum(Add(a, b)).Backward();
  EXPECT_EQ(x.grad().item(), 12.0);  // 2 * 2x
}

TEST(AutogradTest, SharedSubexpression) {
  Tensor x = Tensor::FromVector(Shape{1}, {2.0}).SetRequiresGrad(true);
  Tensor shared = Mul(x, x);           // x^2
  Tensor y = Mul(shared, shared);      // x^4 -> dy/dx = 4 x^3 = 32
  Sum(y).Backward();
  EXPECT_EQ(x.grad().item(), 32.0);
}

TEST(AutogradTest, BackwardAccumulatesAcrossCalls) {
  Tensor x = Tensor::FromVector(Shape{1}, {5.0}).SetRequiresGrad(true);
  Sum(Mul(x, x)).Backward();
  EXPECT_EQ(x.grad().item(), 10.0);
  Sum(Mul(x, x)).Backward();
  EXPECT_EQ(x.grad().item(), 20.0);  // += semantics
  x.ZeroGrad();
  EXPECT_FALSE(x.grad().defined());
}

TEST(AutogradTest, NoGradGuardDisablesRecording) {
  Tensor x = Tensor::Ones(Shape{2}).SetRequiresGrad(true);
  NoGradGuard guard;
  Tensor y = Mul(x, x);
  EXPECT_FALSE(y.TracksGrad());
}

TEST(AutogradTest, NoGradGuardNests) {
  Tensor x = Tensor::Ones(Shape{2}).SetRequiresGrad(true);
  {
    NoGradGuard outer;
    {
      NoGradGuard inner;
      EXPECT_FALSE(GradModeEnabled());
    }
    EXPECT_FALSE(GradModeEnabled());
  }
  EXPECT_TRUE(GradModeEnabled());
  EXPECT_TRUE(Mul(x, x).TracksGrad());
}

TEST(AutogradTest, DetachBlocksGradient) {
  Tensor x = Tensor::FromVector(Shape{1}, {3.0}).SetRequiresGrad(true);
  Tensor y = Mul(x.Detach(), x);  // only one path tracked
  Sum(y).Backward();
  EXPECT_EQ(x.grad().item(), 3.0);  // d/dx (c * x) = c = 3
}

TEST(AutogradTest, ConstantsGetNoGradient) {
  Tensor x = Tensor::Ones(Shape{2}).SetRequiresGrad(true);
  Tensor c = Tensor::Full(Shape{2}, 2.0);
  Sum(Mul(x, c)).Backward();
  EXPECT_TRUE(x.grad().defined());
  EXPECT_FALSE(c.grad().defined());
}

TEST(AutogradTest, LongChainDepth) {
  Tensor x = Tensor::FromVector(Shape{1}, {1.0}).SetRequiresGrad(true);
  Tensor y = x;
  for (int i = 0; i < 100; ++i) y = MulScalar(y, 1.01);
  Sum(y).Backward();
  EXPECT_NEAR(x.grad().item(), std::pow(1.01, 100), 1e-9);
}

TEST(AutogradTest, WideFanOut) {
  Tensor x = Tensor::FromVector(Shape{1}, {2.0}).SetRequiresGrad(true);
  std::vector<Tensor> branches;
  for (int i = 0; i < 50; ++i) branches.push_back(Mul(x, x));
  Sum(Cat(branches, 0)).Backward();
  EXPECT_NEAR(x.grad().item(), 50 * 4.0, 1e-9);
}

TEST(AutogradDeathTest, BackwardNeedsSingleElement) {
  Tensor x = Tensor::Ones(Shape{3}).SetRequiresGrad(true);
  Tensor y = Mul(x, x);
  EXPECT_DEATH(y.Backward(), "single-element");
}

TEST(AutogradTest, BackwardOnGraphlessLeafIsNoOp) {
  Tensor x = Tensor::FromScalar(2.0).SetRequiresGrad(true);
  x.Backward();
  ASSERT_TRUE(x.grad().defined());
  EXPECT_EQ(x.grad().item(), 1.0);
}

TEST(AutogradTest, MixedTrackedUntrackedBranch) {
  Tensor x = Tensor::FromVector(Shape{1}, {2.0}).SetRequiresGrad(true);
  Tensor frozen = Tensor::FromVector(Shape{1}, {4.0});
  Tensor y = Add(Mul(x, frozen), Mul(frozen, frozen));
  Sum(y).Backward();
  EXPECT_EQ(x.grad().item(), 4.0);
}

TEST(GradCheckTest, AcceptsCorrectGradient) {
  Rng rng(1);
  Tensor x = Tensor::Uniform(Shape{3}, -1, 1, &rng);
  GradCheckResult r = CheckGradients(
      [](const std::vector<Tensor>& in) { return Sum(Mul(in[0], in[0])); },
      {x});
  EXPECT_TRUE(r.ok);
  EXPECT_LT(r.max_error, 1e-7);
}

TEST(GradCheckTest, CatchesWrongGradient) {
  // Relu at exactly 0: analytic subgradient is 0 but the central finite
  // difference is 0.5, so the checker must flag the discrepancy.
  Tensor x = Tensor::FromVector(Shape{1}, {0.0});
  GradCheckResult r = CheckGradients(
      [](const std::vector<Tensor>& in) { return Sum(Relu(in[0])); }, {x},
      1e-4, 1e-3);
  EXPECT_FALSE(r.ok);
  EXPECT_NEAR(r.max_error, 0.5, 1e-6);
}

// --- Gradient buffer ownership -------------------------------------------
// The engine hands a closure's returned tensor over as the accumulator when
// nothing else holds it, and clones it otherwise (DESIGN.md, "Tensor
// storage"). These tests pin the observable contract: every .grad() owns its
// buffer, so writing into one grad changes nothing else.

const void* StorageOf(const Tensor& t) { return t.impl()->storage.get(); }

// No grad shares storage with another grad or with any tensor in `live`;
// writing into each grad in turn leaves every other grad and every live
// tensor bitwise unchanged.
void ExpectGradsOwnTheirBuffers(const std::vector<Tensor>& grads,
                                const std::vector<Tensor>& live) {
  for (const Tensor& g : grads) ASSERT_TRUE(g.defined());
  for (size_t i = 0; i < grads.size(); ++i) {
    for (size_t j = i + 1; j < grads.size(); ++j) {
      EXPECT_NE(StorageOf(grads[i]), StorageOf(grads[j]))
          << "grads " << i << " and " << j << " share storage";
    }
    for (size_t j = 0; j < live.size(); ++j) {
      EXPECT_NE(StorageOf(grads[i]), StorageOf(live[j]))
          << "grad " << i << " shares storage with live tensor " << j;
    }
  }
  std::vector<Tensor> all = grads;
  all.insert(all.end(), live.begin(), live.end());
  std::vector<std::vector<Scalar>> before;
  for (const Tensor& t : all) before.push_back(t.ToVector());
  for (size_t i = 0; i < grads.size(); ++i) {
    Tensor g = grads[i];
    for (int64_t e = 0; e < g.NumElements(); ++e) g.data()[e] += 100.0;
    for (size_t j = 0; j < all.size(); ++j) {
      if (j == i) continue;
      EXPECT_EQ(all[j].ToVector(), before[j])
          << "writing grad " << i << " changed tensor " << j;
    }
    for (int64_t e = 0; e < g.NumElements(); ++e) g.data()[e] -= 100.0;
  }
}

TEST(AutogradOwnershipTest, SelfAddGetsItsOwnBuffer) {
  // y = x + x: Add hands the same incoming g back for both inputs.
  Tensor x = Tensor::FromVector(Shape{1}, {1.5}).SetRequiresGrad(true);
  Tensor y = Add(x, x);
  y.Backward();
  EXPECT_EQ(x.grad().ToVector(), (std::vector<Scalar>{2.0}));
  ExpectGradsOwnTheirBuffers({x.grad()}, {x, y});

  Tensor v = Tensor::FromVector(Shape{3}, {1, 2, 3}).SetRequiresGrad(true);
  Tensor w = Add(v, v);
  Sum(w).Backward();
  EXPECT_EQ(v.grad().ToVector(), (std::vector<Scalar>{2, 2, 2}));
  ExpectGradsOwnTheirBuffers({v.grad()}, {v, w});
}

TEST(AutogradOwnershipTest, TensorConsumedTwice) {
  // h feeds two ops; x and c are leaves, c also through a broadcast.
  Tensor x = Tensor::FromVector(Shape{2, 2}, {1, 2, 3, 4})
                 .SetRequiresGrad(true);
  Tensor c = Tensor::FromVector(Shape{2}, {0.5, -1}).SetRequiresGrad(true);
  Tensor h = MulScalar(x, 3.0);
  Tensor y = Add(MulScalar(h, 2.0), Sub(h, c));
  Tensor loss = Sum(Mul(y, y));
  loss.Backward();
  // dy/dx = 9, dloss/dy = 2y, dy/dc = -1 (summed over the broadcast rows).
  std::vector<Scalar> yv = y.ToVector();
  std::vector<Scalar> want_x;
  for (Scalar v : yv) want_x.push_back(2.0 * v * 9.0);
  EXPECT_EQ(x.grad().ToVector(), want_x);
  EXPECT_EQ(c.grad().ToVector(),
            (std::vector<Scalar>{-2.0 * (yv[0] + yv[2]),
                                 -2.0 * (yv[1] + yv[3])}));
  ExpectGradsOwnTheirBuffers({x.grad(), c.grad()}, {x, c, h, y, loss});
}

TEST(AutogradOwnershipTest, ChainsOfReshapeViews) {
  // Each Reshape's backward returns a view of its incoming g; the views of
  // two leaves meet in one Add, which returns the same g for both.
  Tensor x = Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6})
                 .SetRequiresGrad(true);
  Tensor w = Tensor::FromVector(Shape{3, 2}, {6, 5, 4, 3, 2, 1})
                 .SetRequiresGrad(true);
  Tensor xr = Reshape(Reshape(Reshape(x, Shape{3, 2}), Shape{6}),
                      Shape{1, 6});
  Tensor wr = Reshape(Reshape(w, Shape{6}), Shape{1, 6});
  Tensor s = Add(xr, wr);
  Tensor k = Tensor::FromVector(Shape{1, 6}, {1, -1, 2, -2, 3, -3});
  Sum(Mul(s, k)).Backward();
  EXPECT_EQ(x.grad().ToVector(), k.ToVector());
  EXPECT_EQ(w.grad().ToVector(), k.ToVector());
  EXPECT_EQ(x.grad().shape(), x.shape());
  EXPECT_EQ(w.grad().shape(), w.shape());
  ExpectGradsOwnTheirBuffers({x.grad(), w.grad()}, {x, w, xr, wr, s, k});
}

TEST(AutogradOwnershipTest, ClosureReturningItsIncomingGradient) {
  // AddScalar and a custom node return g itself; another custom node
  // returns a tensor it keeps, which must be cloned, not adopted.
  Tensor x = Tensor::FromVector(Shape{3}, {1, 2, 3}).SetRequiresGrad(true);
  Tensor z = Tensor::FromVector(Shape{3}, {4, 5, 6}).SetRequiresGrad(true);
  Tensor kept = Tensor::FromVector(Shape{3}, {7, 8, 9});
  Tensor pass = AddScalar(AddScalar(x, 2.0), 3.0);
  Tensor ident = MakeUninitialized(Shape{3});
  std::copy_n(pass.data(), 3, ident.data());
  SetGradFn(&ident, "Identity", {pass},
            [](const Tensor& g) { return std::vector<Tensor>{g}; });
  Tensor held = Tensor::Zeros(Shape{3});
  SetGradFn(&held, "ReturnsKept", {z},
            [kept](const Tensor&) { return std::vector<Tensor>{kept}; });
  Tensor k = Tensor::FromVector(Shape{3}, {1, 10, 100});
  Sum(Add(Mul(ident, k), held)).Backward();
  EXPECT_EQ(x.grad().ToVector(), k.ToVector());
  EXPECT_EQ(z.grad().ToVector(), kept.ToVector());
  ExpectGradsOwnTheirBuffers({x.grad(), z.grad()},
                             {x, z, kept, pass, ident, held, k});
}

TEST(AutogradOwnershipTest, LeafGradsAccumulateOverTwoBackwardCalls) {
  Tensor x = Tensor::FromVector(Shape{2}, {1, 2}).SetRequiresGrad(true);
  Tensor w = Tensor::FromVector(Shape{2}, {3, 5}).SetRequiresGrad(true);
  Sum(Add(x, w)).Backward();  // w adopts the incoming g, x gets a clone
  Tensor x_grad = x.grad();
  Tensor w_grad = w.grad();
  EXPECT_EQ(x_grad.ToVector(), (std::vector<Scalar>{1, 1}));
  EXPECT_EQ(w_grad.ToVector(), (std::vector<Scalar>{1, 1}));
  ExpectGradsOwnTheirBuffers({x_grad, w_grad}, {x, w});

  Tensor p = Mul(x, w);
  Sum(p).Backward();  // += into the same buffers
  EXPECT_EQ(x.grad().ToVector(), (std::vector<Scalar>{4, 6}));
  EXPECT_EQ(w.grad().ToVector(), (std::vector<Scalar>{2, 3}));
  EXPECT_EQ(StorageOf(x.grad()), StorageOf(x_grad));
  EXPECT_EQ(StorageOf(w.grad()), StorageOf(w_grad));
  ExpectGradsOwnTheirBuffers({x.grad(), w.grad()}, {x, w, p});
}

}  // namespace
}  // namespace emaf::tensor
