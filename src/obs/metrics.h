// Solver metrics: counters, gauges, histograms, per-iteration series.
//
// A MetricsRegistry is the one place a solver instance (or a
// SolverService) records what it measured: attributed phase times
// (phase.*_s, see fragment/ls3df.h), transport bytes and phase-wait
// histograms, deadline margins, respawn/recover counts, checkpoint bytes
// and durations, fp32→fp64 promotions, lane-donation totals, per-outer-
// iteration residual/energy/wall series, service job counters. Call
// rates are dominated by collectives and outer iterations (hundreds per
// solve, not millions), so the implementation favors simplicity: one
// mutex around name-keyed maps.
// Only the *tracing* path (obs/trace.h) needs the lock-free/alloc-free
// treatment; metrics deliberately do not.
//
// Deep call sites (ShardComm, checkpoint writer) reach the registry
// through the thread-local ObsContext (obs/context.h); with none
// installed every record call is a null check.
//
// snapshot() produces a plain-value MetricsSnapshot, carried in
// Ls3dfResult and serialized by write_json() to the stable
// "ls3df-metrics-v1" schema:
//
//   {"schema":"ls3df-metrics-v1",
//    "counters":{"transport.alltoallv_bytes":123, ...},
//    "gauges":{"solver.overlap_fraction":0.62, ...},
//    "histograms":{"transport.phase_wait_s":
//        {"count":8,"sum":0.5,"min":...,"max":...,
//         "bins":[[k,count],...]}, ...},
//    "series":{"iter.residual":[...], ...}}
//
// Histogram bins are powers of two of nanoseconds-scale magnitude:
// bin k holds samples with 2^k <= v * 1e9 < 2^(k+1) (k clamped to
// [0, 63]); only non-empty bins are serialized. tools/snapshot_inspect
// --json shares these conventions (schema tag + flat name maps).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ls3df {

struct MetricsHistogram {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  // 64 log2 bins of v*1e9 (see header block); bins[k] = sample count.
  std::vector<std::uint64_t> bins;  // empty until first observe
};

// Plain-value snapshot of a registry; copyable, carried in Ls3dfResult.
struct MetricsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, MetricsHistogram> histograms;
  std::map<std::string, std::vector<double>> series;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty() &&
           series.empty();
  }

  // "ls3df-metrics-v1" JSON (see header block).
  void write_json(std::ostream& os) const;
  bool write_json_file(const std::string& path) const;
};

class MetricsRegistry {
 public:
  // Monotonic accumulator: value += v (created at 0).
  void add(const std::string& name, double v = 1.0);
  // Last-write-wins value.
  void set(const std::string& name, double v);
  // Histogram sample (count/sum/min/max + log2 bins).
  void observe(const std::string& name, double v);
  // Append to a per-iteration series.
  void push(const std::string& name, double v);

  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  MetricsSnapshot data_;
};

// log2 bin index for histogram sample v (exposed for tests).
int metrics_histogram_bin(double v);

}  // namespace ls3df
