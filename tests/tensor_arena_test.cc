// InferenceArena contract tests (DESIGN.md, "Serving layer"): buffer
// recycling by byte size, scope nesting/suspension, stale-buffer safety of
// the factory functions, lifetime of buffers that outlive the arena handle,
// and thread safety of the shared pool.

#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "models/lstm_forecaster.h"
#include "tensor/arena.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace emaf::tensor {
namespace {

TEST(InferenceArenaTest, FirstAcquireMissesThenRecycledBufferHits) {
  InferenceArena arena;
  ArenaScope scope(&arena);

  const double* first_data = nullptr;
  {
    Tensor t = MakeUninitialized(Shape{2, 3});
    first_data = t.data();
    InferenceArena::Stats stats = arena.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.outstanding, 1u);
    EXPECT_EQ(stats.pooled, 0u);
  }
  // The tensor died, so its buffer is back in the pool.
  {
    InferenceArena::Stats stats = arena.stats();
    EXPECT_EQ(stats.outstanding, 0u);
    EXPECT_EQ(stats.pooled, 1u);
  }
  // Same numel (even a different shape) reuses the exact buffer.
  Tensor again = MakeUninitialized(Shape{6});
  EXPECT_EQ(again.data(), first_data);
  InferenceArena::Stats stats = arena.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(InferenceArenaTest, DistinctNumelsUseDistinctFreeLists) {
  InferenceArena arena;
  ArenaScope scope(&arena);
  { Tensor t = MakeUninitialized(Shape{4}); }
  Tensor bigger = MakeUninitialized(Shape{8});
  InferenceArena::Stats stats = arena.stats();
  // The pooled 4-element buffer must not satisfy an 8-element request.
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.pooled, 1u);
}

TEST(InferenceArenaTest, ZerosClearsRecycledBuffer) {
  InferenceArena arena;
  ArenaScope scope(&arena);
  { Tensor garbage = Tensor::Full(Shape{5}, 13.25); }
  // Zeros must not expose the recycled buffer's stale 13.25s.
  Tensor z = Tensor::Zeros(Shape{5});
  for (double v : z.ToVector()) EXPECT_EQ(v, 0.0);
  EXPECT_EQ(arena.stats().hits, 1u);
}

TEST(InferenceArenaTest, CloneDrawsFromArena) {
  Tensor source = Tensor::Full(Shape{3}, 2.5);  // heap, outside any scope
  InferenceArena arena;
  ArenaScope scope(&arena);
  const double* recycled = nullptr;
  {
    Tensor first = source.Clone();
    recycled = first.data();
  }
  Tensor second = source.Clone();
  EXPECT_EQ(second.data(), recycled);
  EXPECT_EQ(second.ToVector(), source.ToVector());
  EXPECT_EQ(arena.stats().hits, 1u);
}

TEST(InferenceArenaTest, ScopesNestAndNullptrSuspends) {
  EXPECT_EQ(CurrentArena(), nullptr);
  InferenceArena outer_arena;
  InferenceArena inner_arena;
  {
    ArenaScope outer(&outer_arena);
    EXPECT_EQ(CurrentArena(), &outer_arena);
    {
      ArenaScope inner(&inner_arena);
      EXPECT_EQ(CurrentArena(), &inner_arena);
      {
        ArenaScope suspend(nullptr);
        EXPECT_EQ(CurrentArena(), nullptr);
        // Allocations under a suspended scope are plain heap: no arena
        // sees a miss.
        Tensor t = MakeUninitialized(Shape{2});
      }
      EXPECT_EQ(CurrentArena(), &inner_arena);
    }
    EXPECT_EQ(CurrentArena(), &outer_arena);
  }
  EXPECT_EQ(CurrentArena(), nullptr);
  EXPECT_EQ(outer_arena.stats().misses, 0u);
  EXPECT_EQ(inner_arena.stats().misses, 0u);
}

TEST(InferenceArenaTest, ArenaIsThreadLocal) {
  InferenceArena arena;
  ArenaScope scope(&arena);
  InferenceArena* seen_on_worker = &arena;  // sentinel: must be overwritten
  std::thread worker([&] { seen_on_worker = CurrentArena(); });
  worker.join();
  // The scope routes only this thread; a fresh thread starts unrouted.
  EXPECT_EQ(seen_on_worker, nullptr);
  EXPECT_EQ(CurrentArena(), &arena);
}

TEST(InferenceArenaTest, BuffersOutliveTheArenaHandle) {
  std::shared_ptr<Storage> buffer;
  {
    InferenceArena arena;
    buffer = arena.Acquire(7);
    ASSERT_EQ(buffer->size(), 7u);
  }
  // The pool state is shared_ptr-owned: releasing the buffer after the
  // handle died parks it into the (still-alive) state instead of crashing.
  buffer.reset();
}

TEST(InferenceArenaTest, ClearDropsPooledBuffersOnly) {
  InferenceArena arena;
  std::shared_ptr<Storage> held = arena.Acquire(4);
  { auto released = arena.Acquire(4); }
  EXPECT_EQ(arena.stats().pooled, 1u);
  arena.Clear();
  InferenceArena::Stats stats = arena.stats();
  EXPECT_EQ(stats.pooled, 0u);
  EXPECT_EQ(stats.outstanding, 1u);
  // A cleared pool means the next acquire heap-allocates again.
  auto fresh = arena.Acquire(4);
  EXPECT_EQ(arena.stats().misses, 3u);
}

TEST(InferenceArenaTest, ResetStatsKeepsLiveCounts) {
  InferenceArena arena;
  auto a = arena.Acquire(2);
  { auto b = arena.Acquire(2); }
  arena.ResetStats();
  InferenceArena::Stats stats = arena.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.outstanding, 1u);
  EXPECT_EQ(stats.pooled, 1u);
}

TEST(InferenceArenaTest, SharedPoolIsThreadSafe) {
  InferenceArena arena;
  constexpr int kThreads = 8;
  constexpr int kIterations = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&arena, t] {
      for (int i = 0; i < kIterations; ++i) {
        // Mix two sizes so free lists are contended from both sides.
        auto buffer = arena.Acquire((t + i) % 2 == 0 ? 16 : 32);
        (*buffer)[0] = static_cast<std::byte>(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  InferenceArena::Stats stats = arena.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(stats.outstanding, 0u);
  EXPECT_EQ(stats.pooled, stats.misses);
}

TEST(InferenceArenaTest, ArenaDoesNotChangeForwardBytes) {
  // Same model, same window: forwarding under an arena must be bitwise
  // identical to the plain heap — the arena only moves where bytes live.
  Rng rng(21);
  models::LstmConfig config;
  config.hidden_units = 8;
  models::LstmForecaster model(4, 3, config, &rng);
  model.SetTraining(false);
  Rng data_rng(22);
  Tensor window = Tensor::Uniform(Shape{2, 3, 4}, -1, 1, &data_rng);

  NoGradGuard guard;
  std::vector<Scalar> heap_bytes = model.Forward(window).ToVector();
  InferenceArena arena;
  std::vector<Scalar> warm_bytes;
  std::vector<Scalar> steady_bytes;
  {
    ArenaScope scope(&arena);
    warm_bytes = model.Forward(window).ToVector();
    steady_bytes = model.Forward(window).ToVector();
  }
  EXPECT_EQ(warm_bytes, heap_bytes);
  EXPECT_EQ(steady_bytes, heap_bytes);
}

TEST(InferenceArenaTest, SteadyStateForwardAllocatesNothing) {
  Rng rng(23);
  models::LstmConfig config;
  config.hidden_units = 8;
  models::LstmForecaster model(4, 3, config, &rng);
  model.SetTraining(false);
  Rng data_rng(24);
  Tensor window = Tensor::Uniform(Shape{2, 3, 4}, -1, 1, &data_rng);

  NoGradGuard guard;
  InferenceArena arena;
  {
    ArenaScope scope(&arena);
    model.Forward(window);  // warm-up populates the pool
  }
  uint64_t misses_after_warmup = arena.stats().misses;
  uint64_t heap_allocs_before =
      obs::Registry::Global().GetCounter("tensor.storage_allocs")->value();
  {
    ArenaScope scope(&arena);
    model.Forward(window);
  }
  // Every buffer of the second pass came from the pool: no arena miss, and
  // (when metrics are compiled in) no heap storage allocation either.
  EXPECT_EQ(arena.stats().misses, misses_after_warmup);
  EXPECT_GT(arena.stats().hits, 0u);
  uint64_t heap_allocs_after =
      obs::Registry::Global().GetCounter("tensor.storage_allocs")->value();
  EXPECT_EQ(heap_allocs_after, heap_allocs_before);
}

}  // namespace
}  // namespace emaf::tensor
