// The benchmark's own statistics and tracing: order-statistic latency
// summaries with the "at least ten samples beyond" rule, an in-memory span
// recorder the benchmark wraps around each public call it makes into a
// layer, and the derived per-layer numbers (self time, tracing overhead).
// Everything here is header-only so tests/stats_test.cc can cover it
// without linking the simulator.
#ifndef MGPU_E2EBENCH_STATS_H_
#define MGPU_E2EBENCH_STATS_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace mgpu::e2ebench {

// Nearest-rank q-quantile (0 < q <= 1): the smallest sample x such that at
// least ceil(q * N) samples are <= x. Requires a non-empty input.
inline double NearestRank(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t k = std::clamp<std::size_t>(
      static_cast<std::size_t>(rank), 1, v.size());
  return v[k - 1];
}

// The q-quantile of `v`, reported only when at least `min_beyond` samples
// lie strictly above it — a tail percentile backed by fewer samples than
// that is noise, so the caller must run longer instead of printing it.
inline std::optional<double> TailQuantile(const std::vector<double>& v,
                                          double q,
                                          std::size_t min_beyond = 10) {
  if (v.empty()) return std::nullopt;
  const double x = NearestRank(v, q);
  const auto beyond = static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [x](double s) { return s > x; }));
  if (beyond < min_beyond) return std::nullopt;
  return x;
}

// Share of the untraced rate that tracing costs: (untraced - traced) /
// untraced. Negative when the traced run happened to be faster (noise).
inline double TracingOverhead(double untraced_per_s, double traced_per_s) {
  return untraced_per_s > 0.0
             ? (untraced_per_s - traced_per_s) / untraced_per_s
             : 0.0;
}

// Order in which to take measured passes: fastest first, run order among
// equals. Every pass runs the same fixed job list, so on a shared host the
// slow passes are the ones other guests disturbed (that interference comes
// in bursts and can halve a pass's speed); metrics are computed over the
// fastest passes instead of all of them.
inline std::vector<std::size_t> FastestFirst(
    const std::vector<double>& pass_seconds) {
  std::vector<std::size_t> order(pass_seconds.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return pass_seconds[a] < pass_seconds[b];
                   });
  return order;
}

// Boundaries the benchmark records spans at. kJob is the root span of one
// unit of user work; every other span is a call into one layer's public
// API and has a job as its parent.
enum class Layer : int {
  kJob,
  kComputeOps,            // compute::ops::* (kept as one span)
  kComputeAlloc,          // PackedBuffer construction
  kComputeUpload,         // PackedBuffer::Upload
  kComputeBuild,          // Kernel construction (compile + link)
  kComputeFirstDispatch,  // first Kernel::Run after a build
  kComputeDispatch,       // later Kernel::Run calls
  kComputeDownload,       // PackedBuffer::Download
  kGlRecord,              // non-syncing gles2::Context calls
  kGlSyncWait,            // Finish / ReadPixels / GetError
  kCount
};

struct SpanRecord {
  Layer layer = Layer::kJob;
  int parent = -1;  // index into the same span vector, -1 for roots
  double start = 0.0;
  double end = 0.0;
};

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// In-memory span store; spans are aggregated when the run ends.
class Tracer {
 public:
  int Begin(Layer layer, int parent) {
    spans_.push_back({layer, parent, NowSeconds(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[static_cast<std::size_t>(id)].end = NowSeconds(); }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
};

// Where a call's span goes: the tracer (null when tracing is off) and the
// job span that caused the call.
struct JobTrace {
  Tracer* tracer = nullptr;
  int job = -1;
};

// RAII span; a no-op without a tracer, so the untraced loop runs the same
// code minus the clock reads.
class Span {
 public:
  Span(JobTrace jt, Layer layer)
      : tracer_(jt.tracer),
        id_(tracer_ != nullptr ? tracer_->Begin(layer, jt.job) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

template <class F>
void Traced(JobTrace jt, Layer layer, F&& call) {
  Span s(jt, layer);
  call();
}

// Self time of every span: its duration minus the part of its interval
// that its direct children cover (children are clipped to the parent and
// overlapping children count once).
inline std::vector<double> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent < 0) continue;
    const SpanRecord& p = spans[static_cast<std::size_t>(s.parent)];
    const double a = std::max(s.start, p.start);
    const double b = std::min(s.end, p.end);
    if (b > a) kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double open = 0.0;
    double close = 0.0;
    bool have = false;
    for (const auto& [a, b] : iv) {
      if (have && a <= close) {
        close = std::max(close, b);
        continue;
      }
      if (have) covered += close - open;
      open = a;
      close = b;
      have = true;
    }
    if (have) covered += close - open;
    self[i] = (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

// Summed span duration per layer.
inline std::array<double, static_cast<std::size_t>(Layer::kCount)>
LayerSeconds(const std::vector<SpanRecord>& spans) {
  std::array<double, static_cast<std::size_t>(Layer::kCount)> sum{};
  for (const SpanRecord& s : spans) {
    sum[static_cast<std::size_t>(s.layer)] += s.end - s.start;
  }
  return sum;
}

}  // namespace mgpu::e2ebench

#endif  // MGPU_E2EBENCH_STATS_H_
