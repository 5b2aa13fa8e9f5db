#include "fft/plan_cache.h"

#include <atomic>
#include <unordered_map>

#include "obs/context.h"

namespace ls3df {

namespace {

// Grid extents are far below 2^21, so a shape packs into one key.
long long shape_key(Vec3i s) {
  return (static_cast<long long>(s.x) << 42) |
         (static_cast<long long>(s.y) << 21) | static_cast<long long>(s.z);
}

std::uint64_t next_cache_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// One thread's plans within one cache instance. Only the owning thread
// touches a shard after registration, so lookups are lock-free.
struct FftPlanCache::Shard {
  std::unordered_map<long long, std::unique_ptr<Fft3D>> plans3d;
  std::unordered_map<long long, std::unique_ptr<Fft3DF>> plans3d_f32;
  std::unordered_map<int, std::unique_ptr<Fft1D>> plans1d;
};

FftPlanCache::FftPlanCache() : id_(next_cache_id()) {}
FftPlanCache::~FftPlanCache() = default;

FftPlanCache::Shard* FftPlanCache::shard_for_this_thread() {
  // Keyed by the cache's process-unique id, not its address: a cache
  // constructed at a reused address gets a fresh id, so this thread can
  // never be handed a dead cache's shard.
  thread_local std::unordered_map<std::uint64_t, Shard*> cache;
  auto it = cache.find(id_);
  if (it != cache.end()) return it->second;
  std::lock_guard<std::mutex> lock(mu_);
  shards_.push_back(std::make_unique<Shard>());
  Shard* shard = shards_.back().get();
  cache.emplace(id_, shard);
  return shard;
}

const Fft3D& FftPlanCache::plan(Vec3i shape) {
  auto& slot = shard_for_this_thread()->plans3d[shape_key(shape)];
  if (!slot) slot = std::make_unique<Fft3D>(shape);
  return *slot;
}

const Fft3DF& FftPlanCache::plan_f32(Vec3i shape) {
  auto& slot = shard_for_this_thread()->plans3d_f32[shape_key(shape)];
  if (!slot) slot = std::make_unique<Fft3DF>(shape);
  return *slot;
}

const Fft1D& FftPlanCache::plan_1d(int n) {
  auto& slot = shard_for_this_thread()->plans1d[n];
  if (!slot) slot = std::make_unique<Fft1D>(n);
  return *slot;
}

int FftPlanCache::thread_plan_count() {
  return static_cast<int>(shard_for_this_thread()->plans3d.size());
}

FftPlanCache& FftPlanCache::process_default() {
  static FftPlanCache cache;
  return cache;
}

namespace {

FftPlanCache& active_cache() {
  FftPlanCache* plans = obs_context().plans;
  return plans ? *plans : FftPlanCache::process_default();
}

}  // namespace

const Fft3D& fft_plan(Vec3i shape) { return active_cache().plan(shape); }

const Fft3DF& fft_plan_f32(Vec3i shape) {
  return active_cache().plan_f32(shape);
}

const Fft1D& fft1d_plan(int n) { return active_cache().plan_1d(n); }

int fft_plan_cache_size() { return active_cache().thread_plan_count(); }

}  // namespace ls3df
