#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace flowbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One timed call into a layer, recorded by the benchmark around a public
/// API call (the program itself is not instrumented).
struct Span {
  std::string name;         ///< layer.stage, e.g. "lock.split", "sim.sample"
  std::string detail;       ///< free-form qualifier, e.g. "restored/statevector"
  std::uint64_t flow = 0;   ///< the flow (or request) the span belongs to
  int parent = -1;          ///< index of the parent within its flow; -1 = root
  double start = 0.0;       ///< seconds since the run's epoch
  double end = 0.0;
};

/// The spans of one flow, recorded by a single thread. A null FlowSpans*
/// turns every ScopedSpan into a no-op, so the same replay code runs traced
/// and untraced.
class FlowSpans {
 public:
  FlowSpans(Clock::time_point epoch, std::uint64_t flow)
      : epoch_(epoch), flow_(flow) {}

  int open(std::string name, int parent, std::string detail = {});
  void close(int id);
  /// Records an already-timed interval (e.g. an HTTP round trip).
  int add(std::string name, int parent, Clock::time_point start,
          Clock::time_point end, std::string detail = {});
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::uint64_t flow_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(FlowSpans* spans, std::string name, int parent = -1,
             std::string detail = {})
      : spans_(spans),
        id_(spans ? spans->open(std::move(name), parent, std::move(detail))
                  : -1) {}
  ~ScopedSpan() {
    if (spans_) spans_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  FlowSpans* spans_;
  int id_;
};

/// Every span of a run, kept in memory until the run ends: one block per
/// committed FlowSpans, in open() order, so parent indices stay valid.
class SpanLog {
 public:
  void commit(const FlowSpans& flow);  ///< thread-safe
  std::vector<std::vector<Span>> blocks() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::vector<Span>> blocks_;
};

/// Self time per span name: a span's duration minus the part of it that its
/// children cover.
struct SelfTimes {
  std::map<std::string, double> self_s;      ///< total self seconds
  std::map<std::string, double> wall_s;      ///< total duration
  std::map<std::string, std::size_t> calls;  ///< spans of that name
};
SelfTimes self_times(const std::vector<std::vector<Span>>& blocks);

}  // namespace flowbench
