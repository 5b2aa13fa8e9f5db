#include "parallel/scheduler.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <queue>

namespace ls3df {

void LaneBudget::reset(int total_lanes, int n_holders) {
  total_ = std::max(1, total_lanes);
  n_holders_ = std::max(0, n_holders);
  if (n_holders_ > capacity_) {  // grow-only: resets in the SCF loop reuse
    retired_ = std::make_unique<std::atomic<bool>[]>(n_holders_);
    capacity_ = n_holders_;
  }
  for (int h = 0; h < n_holders_; ++h)
    retired_[h].store(false, std::memory_order_relaxed);
  live_.store(n_holders_, std::memory_order_relaxed);
}

int LaneBudget::allowance() const {
  int l = live_.load(std::memory_order_relaxed);
  l = std::max(1, std::min(l, total_));
  return std::max(1, total_ / l);
}

void LaneBudget::retire(int holder) {
  if (holder < 0 || holder >= n_holders_) return;
  if (retired_[holder].exchange(true, std::memory_order_acq_rel)) return;
  leave();
}

void LaneBudget::leave() {
  const int after = live_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  if (after > 0) donations_.fetch_add(1, std::memory_order_relaxed);
}

GroupAssignment assign_fragments(const std::vector<double>& costs,
                                 int n_groups) {
  assert(n_groups >= 1);
  const int n = static_cast<int>(costs.size());
  GroupAssignment out;
  out.group_of.assign(n, 0);
  out.group_cost.assign(n_groups, 0.0);

  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return costs[a] > costs[b]; });

  // Min-heap of (load, group).
  using Entry = std::pair<double, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (int g = 0; g < n_groups; ++g) heap.push({0.0, g});

  for (int f : order) {
    auto [load, g] = heap.top();
    heap.pop();
    out.group_of[f] = g;
    load += costs[f];
    out.group_cost[g] = load;
    heap.push({load, g});
  }

  out.total_cost = std::accumulate(costs.begin(), costs.end(), 0.0);
  out.max_cost =
      *std::max_element(out.group_cost.begin(), out.group_cost.end());
  out.efficiency = (out.max_cost > 0 && n_groups > 0)
                       ? out.total_cost / (n_groups * out.max_cost)
                       : 1.0;
  return out;
}

std::vector<FragmentBatch> make_batches(const std::vector<int>& class_of,
                                        int width) {
  assert(width >= 1);
  const int n = static_cast<int>(class_of.size());

  // Fragments per class, in ascending fragment order.
  int n_classes = 0;
  for (int f = 0; f < n; ++f) n_classes = std::max(n_classes, class_of[f] + 1);
  std::vector<std::vector<int>> by_class(n_classes);
  for (int f = 0; f < n; ++f) by_class[class_of[f]].push_back(f);

  std::vector<FragmentBatch> batches;
  for (int c = 0; c < n_classes; ++c) {
    const std::vector<int>& members = by_class[c];
    for (std::size_t start = 0; start < members.size();
         start += static_cast<std::size_t>(width)) {
      FragmentBatch b;
      b.size_class = c;
      const std::size_t end =
          std::min(members.size(), start + static_cast<std::size_t>(width));
      b.members.assign(members.begin() + start, members.begin() + end);
      batches.push_back(std::move(b));
    }
  }
  std::sort(batches.begin(), batches.end(),
            [](const FragmentBatch& a, const FragmentBatch& b) {
              return a.members.front() < b.members.front();
            });
  return batches;
}

}  // namespace ls3df
