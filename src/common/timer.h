// Wall-clock timing. Per-phase solver times (the paper's Sec. IV study)
// are phase.*_s histograms in the solver's MetricsRegistry.
#pragma once

#include <chrono>

namespace ls3df {

class Timer {
 public:
  Timer() : start_(Clock::now()) {}
  void reset() { start_ = Clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ls3df
