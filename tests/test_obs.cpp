// Observability-layer tests: TraceRecorder span well-formedness and
// RAII nesting, ring-buffer wraparound accounting, the zero
// steady-state allocation contract of the emit path, the near-zero
// cost of the disabled path, metrics JSON/histogram behavior, and the
// transport byte counters against collectives of known size.
#include <gtest/gtest.h>

#include <atomic>
#include <complex>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "common/timer.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/shard_comm.h"

// Global allocation counter for the steady-state probe: every
// new/delete in this test binary is counted. The emit path must not
// touch it after a lane is warm.
namespace {
std::atomic<long> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ls3df {
namespace {

using cplx = std::complex<double>;

TEST(Obs, SpanWellFormednessAndNesting) {
  TraceRecorder rec;
  ObsContext ctx;
  ctx.trace = &rec;
  ctx.rank = 3;
  ObsContextScope scope(ctx);
  {
    TraceSpan outer("outer", TraceCat::kSolver, 7);
    EXPECT_TRUE(outer.active());
    {
      TraceSpan inner("inner", TraceCat::kPhase);
      inner.set_arg(11);
      inner.set_arg2(13);
    }
  }
  ASSERT_EQ(rec.total_events(), 2u);
  ASSERT_EQ(rec.lane_count(), 1);
  const std::vector<TraceEvent> evs = rec.lane_events(0);
  ASSERT_EQ(evs.size(), 2u);
  // RAII order: the inner span closes (and is emitted) first.
  EXPECT_STREQ(evs[0].name, "inner");
  EXPECT_STREQ(evs[1].name, "outer");
  EXPECT_EQ(evs[0].arg, 11u);
  EXPECT_EQ(evs[0].arg2, 13u);
  EXPECT_EQ(evs[1].arg, 7u);
  EXPECT_EQ(evs[0].rank, 3);
  // Proper nesting: outer starts at or before inner and ends at or
  // after it; both are well-formed (t1 >= t0).
  EXPECT_LE(evs[0].t0_us, evs[0].t1_us);
  EXPECT_LE(evs[1].t0_us, evs[1].t1_us);
  EXPECT_LE(evs[1].t0_us, evs[0].t0_us);
  EXPECT_GE(evs[1].t1_us, evs[0].t1_us);

  // Export is one complete "X" event per line with pid = rank.
  std::ostringstream os;
  rec.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  std::istringstream is(json);
  std::string line;
  int events = 0;
  while (std::getline(is, line)) {
    if (line.find("\"name\":") == std::string::npos) continue;
    ++events;
    EXPECT_NE(line.find("\"ph\":\"X\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"pid\":3"), std::string::npos) << line;
    EXPECT_NE(line.find("\"ts\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"dur\":"), std::string::npos) << line;
  }
  EXPECT_EQ(events, 2);
}

TEST(Obs, ChromeJsonEscapesHostileSpanNames) {
  // Regression: span names used to be streamed raw into the Chrome
  // trace export, so a name carrying a quote, backslash, or control
  // byte corrupted the whole JSON document. Names are escaped through
  // the shared obs/json_util.h encoder now.
  TraceRecorder rec;
  ObsContext ctx;
  ctx.trace = &rec;
  ObsContextScope scope(ctx);
  static const char kHostile[] = "evil\"name\\ with\nnewline and \x01 ctl";
  rec.emit(kHostile, TraceCat::kMark, 0, 1);
  rec.emit("clean", TraceCat::kMark, 1, 2);

  std::ostringstream os;
  rec.write_chrome_json(os);
  const std::string json = os.str();

  // The raw bytes never reach the stream...
  EXPECT_EQ(json.find("evil\"name"), std::string::npos);
  EXPECT_EQ(json.find('\x01'), std::string::npos);
  EXPECT_EQ(json.find("with\nnewline"), std::string::npos);
  // ...their RFC 8259 escapes do (\n and the control byte as \u00xx).
  EXPECT_NE(json.find("\"evil\\\"name\\\\ with\\u000anewline and "
                      "\\u0001 ctl\""),
            std::string::npos)
      << json;

  // Structural validity: outside escape pairs, quotes must balance, and
  // no literal control characters may remain anywhere in the document.
  int quotes = 0;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '\\') {
      ++i;  // skip the escaped character
      continue;
    }
    if (c == '"') ++quotes;
    EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n')
        << "raw control byte at offset " << i;
  }
  EXPECT_EQ(quotes % 2, 0);
}

TEST(Obs, RingWraparoundKeepsNewestAndCountsDrops) {
  const std::size_t cap = 8;
  TraceRecorder rec(cap);
  ObsContext ctx;
  ctx.trace = &rec;
  ObsContextScope scope(ctx);
  for (int i = 0; i < 20; ++i)
    rec.emit("e", TraceCat::kMark, i, i + 1, static_cast<std::uint64_t>(i));
  EXPECT_EQ(rec.total_events(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);
  const std::vector<TraceEvent> evs = rec.lane_events(0);
  ASSERT_EQ(evs.size(), cap);
  // Oldest-first among the retained (newest) events: args 12..19.
  for (std::size_t k = 0; k < cap; ++k)
    EXPECT_EQ(evs[k].arg, 12 + k);
}

TEST(Obs, EmitPathAllocatesNothingSteadyState) {
  TraceRecorder rec(1 << 10);
  ObsContext ctx;
  ctx.trace = &rec;
  ObsContextScope scope(ctx);
  // Warm-up registers this thread's lane (one allocation burst).
  { TraceSpan warm("warm", TraceCat::kMark); }
  rec.emit("warm2", TraceCat::kMark, 0, 1);
  const long before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 5000; ++i) {
    TraceSpan s("steady", TraceCat::kMark, static_cast<std::uint64_t>(i));
  }
  const long after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "emit path allocated";
  EXPECT_EQ(rec.total_events(), 5002u);
}

TEST(Obs, DisabledPathIsNearZeroCost) {
  // No recorder installed: a TraceSpan is one thread-local load and a
  // null check at construction and destruction. 1M spans must cost
  // well under the (deliberately generous, CI-safe) bound.
  ASSERT_EQ(obs_context().trace, nullptr);
  const int n = 1000000;
  Timer t;
  for (int i = 0; i < n; ++i) {
    TraceSpan s("off", TraceCat::kMark);
    EXPECT_TRUE(!s.active() || i < 0);  // never active when disabled
  }
  EXPECT_LT(t.seconds(), 1.0);
}

TEST(Obs, MetricsRegistryJsonAndHistogram) {
  MetricsRegistry m;
  m.add("c.count");
  m.add("c.count", 2.0);
  m.set("g.value", 42.5);
  m.observe("h.lat", 1e-6);
  m.observe("h.lat", 2e-6);
  m.push("s.residual", 0.5);
  m.push("s.residual", 0.25);
  const MetricsSnapshot snap = m.snapshot();
  EXPECT_DOUBLE_EQ(snap.counters.at("c.count"), 3.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g.value"), 42.5);
  const MetricsHistogram& h = snap.histograms.at("h.lat");
  EXPECT_EQ(h.count, 2u);
  EXPECT_DOUBLE_EQ(h.sum, 3e-6);
  EXPECT_DOUBLE_EQ(h.min, 1e-6);
  EXPECT_DOUBLE_EQ(h.max, 2e-6);
  ASSERT_EQ(snap.series.at("s.residual").size(), 2u);

  // log2 ns-scale binning: 1us -> bin 9 (2^9 = 512 <= 1000 < 1024).
  EXPECT_EQ(metrics_histogram_bin(1e-6), 9);
  EXPECT_EQ(metrics_histogram_bin(0.0), 0);
  EXPECT_EQ(metrics_histogram_bin(-5.0), 0);
  EXPECT_EQ(metrics_histogram_bin(1e30), 63);

  std::ostringstream os;
  snap.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\":\"ls3df-metrics-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"c.count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"s.residual\""), std::string::npos);
}

TEST(Obs, TransportByteCountersMatchKnownCollectiveSizes) {
  MetricsRegistry metrics;
  ObsContext ctx;
  ctx.metrics = &metrics;
  ObsContextScope scope(ctx);

  const int n = 4;
  ShardComm comm(n, 2);
  // alltoallv: block (src -> dst) carries src + 1 complex doubles.
  comm.all_to_all(
      [&](int src) {
        for (int dst = 0; dst < n; ++dst) {
          cplx* box = comm.send_box(src, dst, src + 1);
          for (int k = 0; k <= src; ++k) box[k] = cplx(src, k);
        }
      },
      [&](int dst) {
        for (int src = 0; src < n; ++src)
          EXPECT_EQ(comm.box_size(src, dst),
                    static_cast<std::size_t>(src + 1));
      });
  // allgather: rank r contributes r + 1 doubles.
  std::vector<int> counts = {1, 2, 3, 4};
  comm.all_gather(counts, [&](int r, double* block) {
    for (int k = 0; k <= r; ++k) block[k] = r;
  });

  const MetricsSnapshot snap = metrics.snapshot();
  // (1+2+3+4) blocks x 4 destinations x sizeof(complex<double>).
  EXPECT_DOUBLE_EQ(snap.counters.at("transport.alltoallv_bytes"),
                   (1 + 2 + 3 + 4) * 4 * 16.0);
  // (1+2+3+4) doubles assembled into the shared table.
  EXPECT_DOUBLE_EQ(snap.counters.at("transport.allgather_bytes"),
                   (1 + 2 + 3 + 4) * 8.0);
  // One wait observation per collective (alltoallv, allgatherv).
  EXPECT_EQ(snap.histograms.at("transport.phase_wait_s").count, 2u);
}

}  // namespace
}  // namespace ls3df
