#include "tensor/arena.h"

#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"

namespace emaf::tensor {

namespace {

thread_local InferenceArena* current_arena = nullptr;

}  // namespace

// Shared pool state. Outstanding buffers keep it alive through the deleter
// they capture, so the pool never dies before its last buffer returns.
struct InferenceArena::State {
  std::mutex mu;
  // byte count -> resting buffers of exactly that size.
  std::unordered_map<int64_t, std::vector<std::unique_ptr<Storage>>>
      free_lists;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t outstanding = 0;
  uint64_t pooled = 0;
};

InferenceArena::InferenceArena() : state_(std::make_shared<State>()) {}

InferenceArena::Stats InferenceArena::stats() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  Stats stats;
  stats.hits = state_->hits;
  stats.misses = state_->misses;
  stats.outstanding = state_->outstanding;
  stats.pooled = state_->pooled;
  return stats;
}

void InferenceArena::ResetStats() {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->hits = 0;
  state_->misses = 0;
}

void InferenceArena::Clear() {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->free_lists.clear();
  state_->pooled = 0;
}

std::shared_ptr<Storage> InferenceArena::Acquire(int64_t bytes) {
  EMAF_CHECK_GE(bytes, 0);
  std::unique_ptr<Storage> buffer;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    auto it = state_->free_lists.find(bytes);
    if (it != state_->free_lists.end() && !it->second.empty()) {
      buffer = std::move(it->second.back());
      it->second.pop_back();
      ++state_->hits;
      --state_->pooled;
    } else {
      ++state_->misses;
    }
    ++state_->outstanding;
  }
  if (buffer == nullptr) {
    EMAF_METRIC_COUNTER_ADD("tensor.arena_misses", 1);
    EMAF_METRIC_COUNTER_ADD("tensor.storage_allocs", 1);
    buffer = std::make_unique<Storage>(static_cast<size_t>(bytes));
  } else {
    EMAF_METRIC_COUNTER_ADD("tensor.arena_hits", 1);
  }
  // The deleter owns a strong reference to the pool state, so a buffer
  // released after the arena handle is gone still parks safely.
  std::shared_ptr<State> state = state_;
  return std::shared_ptr<Storage>(
      buffer.release(), [state](Storage* v) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->free_lists[static_cast<int64_t>(v->size())].emplace_back(v);
        --state->outstanding;
        ++state->pooled;
      });
}

ArenaScope::ArenaScope(InferenceArena* arena) : previous_(current_arena) {
  current_arena = arena;
}

ArenaScope::~ArenaScope() { current_arena = previous_; }

InferenceArena* CurrentArena() { return current_arena; }

}  // namespace emaf::tensor
