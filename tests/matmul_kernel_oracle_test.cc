// Oracle test for the f64 GEMM kernel (internal::MatMulKernel): the
// kernel, and ParallelMatMul at 1/2/8 threads, must reproduce BITWISE the
// scalar kernel that produced the committed golden bytes,
// kept verbatim below as OracleKernel. The transposed-A entry points
// (MatMulKernelTransA, ParallelMatMulTransA) are held to the same oracle,
// run on an explicitly transposed copy. Comparing the kernel against
// itself (as the property suites do for the parallel paths) cannot catch
// a change in the per-element FMA chain or in the zero-skip.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/op_common.h"

namespace emaf::tensor {
namespace {

// The row-blocked i-k-j kernel as it stood before the register-tiled
// rewrite, verbatim. Compiled with the project's flags (GCC, -O2 or -O3,
// -march=x86-64-v3), each `c[j] += v * b` is contracted into one FMA —
// the chain the golden files were generated with.
void OracleKernel(const Scalar* __restrict__ a, const Scalar* __restrict__ b,
                  Scalar* __restrict__ c, int64_t m, int64_t k, int64_t n) {
  // Row-blocked i-k-j: four A rows share each loaded B row, the j loop is
  // contiguous in B and C and auto-vectorizes. C must be zero-initialized
  // (or hold a partial sum).
  int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const Scalar* a0 = a + i * k;
    const Scalar* a1 = a0 + k;
    const Scalar* a2 = a1 + k;
    const Scalar* a3 = a2 + k;
    Scalar* c0 = c + i * n;
    Scalar* c1 = c0 + n;
    Scalar* c2 = c1 + n;
    Scalar* c3 = c2 + n;
    for (int64_t kk = 0; kk < k; ++kk) {
      Scalar v0 = a0[kk];
      Scalar v1 = a1[kk];
      Scalar v2 = a2[kk];
      Scalar v3 = a3[kk];
      if (v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0) continue;
      const Scalar* brow = b + kk * n;
      for (int64_t j = 0; j < n; ++j) {
        Scalar bj = brow[j];
        c0[j] += v0 * bj;
        c1[j] += v1 * bj;
        c2[j] += v2 * bj;
        c3[j] += v3 * bj;
      }
    }
  }
  for (; i < m; ++i) {
    const Scalar* arow = a + i * k;
    Scalar* crow = c + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      Scalar aik = arow[kk];
      if (aik == 0.0) continue;
      const Scalar* brow = b + kk * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct Problem {
  int64_t m, k, n;
  std::vector<Scalar> a, b, c;  // c: the initial partial sum
};

// A seeded problem that exercises every rule of the kernel contract:
//  - A has scattered exact zeros (+0 and -0), whole zero columns, and
//    columns where only one row of a 4-row block is non-zero;
//  - B carries NaN in the rows whose A column is entirely zero (skipped
//    everywhere, so no NaN may appear), and +-Inf in the partially-zero
//    columns (0 * Inf is NaN in the rows that a block does not skip);
//  - C starts non-zero, with some -0.0 (a non-skipped 0 * b turns -0.0
//    into +0.0, a skipped one leaves it).
Problem MakeProblem(int64_t m, int64_t k, int64_t n, uint64_t seed,
                    bool specials) {
  Rng rng(seed);
  Problem p{m, k, n, {}, {}, {}};
  p.a.resize(static_cast<size_t>(m * k));
  p.b.resize(static_cast<size_t>(k * n));
  p.c.resize(static_cast<size_t>(m * n));
  for (Scalar& v : p.a) {
    int64_t pick = rng.UniformInt(0, 5);
    v = pick == 0 ? 0.0 : pick == 1 ? -0.0 : rng.Uniform(-2.0, 2.0);
  }
  for (Scalar& v : p.b) v = rng.Uniform(-2.0, 2.0);
  for (Scalar& v : p.c) {
    v = rng.UniformInt(0, 7) == 0 ? -0.0 : rng.Uniform(-1.0, 1.0);
  }
  auto a_at = [&](int64_t i, int64_t kk) -> Scalar& {
    return p.a[static_cast<size_t>(i * k + kk)];
  };
  for (int64_t kk = 0; kk < k; ++kk) {
    int64_t kind = rng.UniformInt(0, 9);
    if (kind == 0) {
      // Whole column zero: every block skips this kk.
      for (int64_t i = 0; i < m; ++i) a_at(i, kk) = 0.0;
      if (specials) {
        for (int64_t j = 0; j < n; ++j) {
          p.b[static_cast<size_t>(kk * n + j)] =
              j % 3 == 0 ? kNaN : (j % 3 == 1 ? kInf : -kInf);
        }
      }
    } else if (kind == 1) {
      // One live row per 4-row block (and zero in the remainder rows):
      // the block does not skip, the remainder rows do.
      for (int64_t i = 0; i < m; ++i) {
        bool live = i + (m % 4) < m && i % 4 == kk % 4;
        a_at(i, kk) = live ? rng.Uniform(0.5, 1.5) : 0.0;
      }
      if (specials) {
        int64_t j = rng.UniformInt(0, n - 1);
        p.b[static_cast<size_t>(kk * n + j)] = kk % 2 == 0 ? kInf : -kInf;
      }
    } else if (kind == 2 && m >= 4) {
      // One all-zero 4-row block at this kk; the others stay random.
      int64_t block = rng.UniformInt(0, m / 4 - 1);
      for (int64_t r = 0; r < 4; ++r) a_at(block * 4 + r, kk) = 0.0;
    }
  }
  return p;
}

std::vector<Scalar> RunOracle(const Problem& p) {
  std::vector<Scalar> c = p.c;
  OracleKernel(p.a.data(), p.b.data(), c.data(), p.m, p.k, p.n);
  return c;
}

std::vector<Scalar> RunKernel(const Problem& p) {
  std::vector<Scalar> c = p.c;
  internal::MatMulKernel(p.a.data(), p.b.data(), c.data(), p.m, p.k, p.n);
  return c;
}

std::vector<Scalar> RunParallel(const Problem& p) {
  std::vector<Scalar> c = p.c;
  internal::ParallelMatMul(p.a.data(), p.b.data(), c.data(), p.m, p.k, p.n);
  return c;
}

// A^T of the problem's A as a [k, lda] buffer, lda >= m. The lda - m
// padding columns hold NaN, so a read past column m - 1 poisons the result.
std::vector<Scalar> TransposedA(const Problem& p, int64_t lda) {
  std::vector<Scalar> at(static_cast<size_t>(p.k * lda), kNaN);
  for (int64_t i = 0; i < p.m; ++i) {
    for (int64_t kk = 0; kk < p.k; ++kk) {
      at[static_cast<size_t>(kk * lda + i)] =
          p.a[static_cast<size_t>(i * p.k + kk)];
    }
  }
  return at;
}

std::vector<Scalar> RunKernelTransA(const Problem& p, int64_t lda) {
  std::vector<Scalar> at = TransposedA(p, lda);
  std::vector<Scalar> c = p.c;
  internal::MatMulKernelTransA(at.data(), lda, p.b.data(), c.data(), p.m,
                               p.k, p.n);
  return c;
}

std::vector<Scalar> RunParallelTransA(const Problem& p, int64_t lda) {
  std::vector<Scalar> at = TransposedA(p, lda);
  std::vector<Scalar> c = p.c;
  internal::ParallelMatMulTransA(at.data(), lda, p.b.data(), c.data(), p.m,
                                 p.k, p.n);
  return c;
}

// Bitwise equality of two result buffers; reports the first differing
// element with the shape.
::testing::AssertionResult SameBytes(const std::vector<Scalar>& want,
                                     const std::vector<Scalar>& got,
                                     const Problem& p) {
  for (size_t e = 0; e < want.size(); ++e) {
    if (std::memcmp(&want[e], &got[e], sizeof(Scalar)) != 0) {
      return ::testing::AssertionFailure()
             << "m=" << p.m << " k=" << p.k << " n=" << p.n << " element "
             << e << ": want " << want[e] << " got " << got[e];
    }
  }
  return ::testing::AssertionSuccess();
}

// OracleKernel stands for the golden bytes only where the compiler fuses
// its `c += v * b` into one FMA, which GCC does at -O2 and above. Below
// that (Debug, -O1) the reference rounds twice per step, so a mismatch
// would say nothing about the kernel; fail on the build instead.
class MatMulKernelOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // a * b = 1 - 2^-60 rounds to 1 unfused, so a*b + c is 0 with two
    // roundings and -2^-60 with one. The volatile keeps the product out
    // of constant folding, which would round it before any contraction.
    volatile Scalar eps = std::ldexp(1.0, -30);
    std::vector<Scalar> a = {1.0 + eps};
    std::vector<Scalar> b = {1.0 - eps};
    std::vector<Scalar> c = {-1.0};
    OracleKernel(a.data(), b.data(), c.data(), 1, 1, 1);
    ASSERT_EQ(c[0], -std::ldexp(1.0, -60))
        << "the reference kernel's c += v * b was not contracted into an "
           "FMA: this optimisation level (below -O2, e.g. a Debug build) "
           "does not reproduce the golden bytes and is not supported by "
           "this test";
  }
};

TEST_F(MatMulKernelOracleTest, EveryRowAndColumnRemainder) {
  // Every m % 4 (with and without full blocks ahead of the remainder),
  // every n % 8 up to 40 and the wide tiles' edges up to 160.
  std::vector<int64_t> ns;
  for (int64_t n = 1; n <= 40; ++n) ns.push_back(n);
  for (int64_t n :
       {63, 64, 65, 95, 96, 97, 127, 128, 129, 157, 158, 159, 160}) {
    ns.push_back(n);
  }
  uint64_t seed = 1;
  for (int64_t m = 1; m <= 11; ++m) {
    for (int64_t n : ns) {
      for (int64_t k : {1, 2, 5, 31, 257}) {
        Problem p = MakeProblem(m, k, n, seed++, /*specials=*/true);
        ASSERT_TRUE(SameBytes(RunOracle(p), RunKernel(p), p));
      }
    }
  }
}

TEST_F(MatMulKernelOracleTest, LongInnerDimension) {
  // k crosses the kernel's k-chunking at and around its boundaries, up to
  // the ~12k rows a training batch's weight gradient reduces over.
  uint64_t seed = 100;
  for (int64_t k : {255, 256, 257, 511, 513, 4099, 12289}) {
    for (auto [m, n] : std::vector<std::pair<int64_t, int64_t>>{
             {5, 7}, {8, 37}, {3, 160}}) {
      Problem p = MakeProblem(m, k, n, seed++, /*specials=*/true);
      ASSERT_TRUE(SameBytes(RunOracle(p), RunKernel(p), p));
    }
  }
}

TEST_F(MatMulKernelOracleTest, PlainRandomMatricesWithoutSpecials) {
  // Finite inputs, where every element of the result must be finite and
  // equal — guards against the special values masking a difference.
  uint64_t seed = 200;
  for (auto [m, k, n] : std::vector<std::tuple<int64_t, int64_t, int64_t>>{
           {1, 64, 256}, {73, 64, 256}, {26, 26, 130}, {130, 26, 26},
           {9, 224, 8}, {8, 900, 224}, {67, 8, 224}}) {
    Problem p = MakeProblem(m, k, n, seed++, /*specials=*/false);
    std::vector<Scalar> want = RunOracle(p);
    for (Scalar v : want) ASSERT_TRUE(std::isfinite(v));
    ASSERT_TRUE(SameBytes(want, RunKernel(p), p));
  }
}

TEST_F(MatMulKernelOracleTest, ParallelMatMulAtOneTwoEightThreads) {
  // Shapes above kMatMulParallelMinFlops so the pool partitions rows at
  // 4-row multiples; m % 4 != 0 puts a remainder in the last chunk.
  std::vector<std::tuple<int64_t, int64_t, int64_t>> shapes = {
      {203, 67, 37}, {130, 300, 9}, {64, 33, 129}, {1001, 26, 26}};
  for (auto [m, k, n] : shapes) {
    ASSERT_GE(m * k * n, internal::kMatMulParallelMinFlops);
  }
  uint64_t seed = 300;
  for (auto [m, k, n] : shapes) {
    Problem p = MakeProblem(m, k, n, seed++, /*specials=*/true);
    std::vector<Scalar> want = RunOracle(p);
    for (int64_t threads : {1, 2, 8}) {
      common::ThreadPool::SetGlobalNumThreads(threads);
      SCOPED_TRACE("threads=" + std::to_string(threads));
      EXPECT_TRUE(SameBytes(want, RunParallel(p), p));
    }
    common::ThreadPool::SetGlobalNumThreads(1);
  }
}

TEST_F(MatMulKernelOracleTest, TransAEveryRowAndColumnRemainder) {
  // Every m % 4 and n % 8 (plus the wide tiles' edges), read from A^T with
  // lda == m and with padding columns (lda > m).
  std::vector<int64_t> ns;
  for (int64_t n = 1; n <= 17; ++n) ns.push_back(n);
  for (int64_t n : {31, 32, 33, 63, 64, 65, 127, 128, 129}) ns.push_back(n);
  uint64_t seed = 400;
  for (int64_t m = 1; m <= 11; ++m) {
    for (int64_t n : ns) {
      for (int64_t k : {1, 2, 5, 31, 257}) {
        Problem p = MakeProblem(m, k, n, seed++, /*specials=*/true);
        std::vector<Scalar> want = RunOracle(p);
        for (int64_t lda : {m, m + 1, m + 5}) {
          SCOPED_TRACE("lda=" + std::to_string(lda));
          ASSERT_TRUE(SameBytes(want, RunKernelTransA(p, lda), p));
        }
      }
    }
  }
}

TEST_F(MatMulKernelOracleTest, TransALongInnerDimension) {
  // k across the k-chunk boundaries, up to a conv weight gradient's
  // reduction over ~9.5k im2col rows (m = out_channels, lda = m).
  uint64_t seed = 500;
  for (int64_t k : {255, 256, 257, 513, 4099, 9490}) {
    for (auto [m, n, lda] : std::vector<std::tuple<int64_t, int64_t, int64_t>>{
             {4, 96, 4}, {8, 37, 8}, {12, 32, 12}, {3, 26, 7}}) {
      Problem p = MakeProblem(m, k, n, seed++, /*specials=*/true);
      ASSERT_TRUE(SameBytes(RunOracle(p), RunKernelTransA(p, lda), p));
    }
  }
}

TEST_F(MatMulKernelOracleTest, TransAPlainRandomMatricesWithoutSpecials) {
  uint64_t seed = 600;
  for (auto [m, k, n] : std::vector<std::tuple<int64_t, int64_t, int64_t>>{
           {96, 300, 32}, {26, 130, 26}, {9, 224, 8}, {32, 9, 96}}) {
    Problem p = MakeProblem(m, k, n, seed++, /*specials=*/false);
    std::vector<Scalar> want = RunOracle(p);
    for (Scalar v : want) ASSERT_TRUE(std::isfinite(v));
    ASSERT_TRUE(SameBytes(want, RunKernelTransA(p, m), p));
    ASSERT_TRUE(SameBytes(want, RunKernelTransA(p, m + 3), p));
  }
}

TEST_F(MatMulKernelOracleTest, ParallelMatMulTransAAtOneTwoEightThreads) {
  // Above kMatMulParallelMinFlops, so the pool splits rows into 4-row
  // chunks that start at column offsets of A^T.
  std::vector<std::tuple<int64_t, int64_t, int64_t, int64_t>> shapes = {
      {203, 67, 37, 203}, {130, 300, 9, 133}, {64, 33, 129, 70},
      {8, 9490, 96, 8}, {97, 1001, 26, 101}};
  for (auto [m, k, n, lda] : shapes) {
    ASSERT_GE(m * k * n, internal::kMatMulParallelMinFlops);
  }
  uint64_t seed = 700;
  for (auto [m, k, n, lda] : shapes) {
    Problem p = MakeProblem(m, k, n, seed++, /*specials=*/true);
    std::vector<Scalar> want = RunOracle(p);
    for (int64_t threads : {1, 2, 8}) {
      common::ThreadPool::SetGlobalNumThreads(threads);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " lda=" + std::to_string(lda));
      EXPECT_TRUE(SameBytes(want, RunParallelTransA(p, lda), p));
    }
    common::ThreadPool::SetGlobalNumThreads(1);
  }
}

}  // namespace
}  // namespace emaf::tensor
