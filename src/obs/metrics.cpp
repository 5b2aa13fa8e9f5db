#include "obs/metrics.h"

#include <cmath>
#include <fstream>
#include <ostream>

#include "obs/json_util.h"

namespace ls3df {

int metrics_histogram_bin(double v) {
  const double scaled = v * 1e9;
  if (!(scaled >= 1.0)) return 0;  // also catches NaN / negatives
  const int k = static_cast<int>(std::floor(std::log2(scaled)));
  return k < 0 ? 0 : (k > 63 ? 63 : k);
}

void MetricsRegistry::add(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  data_.counters[name] += v;
}

void MetricsRegistry::set(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  data_.gauges[name] = v;
}

void MetricsRegistry::observe(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsHistogram& h = data_.histograms[name];
  if (h.count == 0) {
    h.min = v;
    h.max = v;
    h.bins.assign(64, 0);
  } else {
    if (v < h.min) h.min = v;
    if (v > h.max) h.max = v;
  }
  ++h.count;
  h.sum += v;
  ++h.bins[metrics_histogram_bin(v)];
}

void MetricsRegistry::push(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  data_.series[name].push_back(v);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return data_;
}

void MetricsSnapshot::write_json(std::ostream& os) const {
  os << "{\"schema\":\"ls3df-metrics-v1\",\n\"counters\":{";
  bool first = true;
  for (const auto& kv : counters) {
    os << (first ? "" : ",") << "\n  " << json_string(kv.first) << ":"
       << json_double(kv.second);
    first = false;
  }
  os << "},\n\"gauges\":{";
  first = true;
  for (const auto& kv : gauges) {
    os << (first ? "" : ",") << "\n  " << json_string(kv.first) << ":"
       << json_double(kv.second);
    first = false;
  }
  os << "},\n\"histograms\":{";
  first = true;
  for (const auto& kv : histograms) {
    const MetricsHistogram& h = kv.second;
    os << (first ? "" : ",") << "\n  " << json_string(kv.first)
       << ":{\"count\":" << h.count << ",\"sum\":" << json_double(h.sum)
       << ",\"min\":" << json_double(h.min)
       << ",\"max\":" << json_double(h.max) << ",\"bins\":[";
    bool fb = true;
    for (std::size_t k = 0; k < h.bins.size(); ++k) {
      if (h.bins[k] == 0) continue;
      os << (fb ? "" : ",") << "[" << k << "," << h.bins[k] << "]";
      fb = false;
    }
    os << "]}";
    first = false;
  }
  os << "},\n\"series\":{";
  first = true;
  for (const auto& kv : series) {
    os << (first ? "" : ",") << "\n  " << json_string(kv.first) << ":[";
    bool fv = true;
    for (double v : kv.second) {
      os << (fv ? "" : ",") << json_double(v);
      fv = false;
    }
    os << "]";
    first = false;
  }
  os << "}}\n";
}

bool MetricsSnapshot::write_json_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  write_json(os);
  return static_cast<bool>(os);
}

}  // namespace ls3df
