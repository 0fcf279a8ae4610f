#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace tetris::json {
class Writer;
}

namespace tetris::obs {

/// Label set attached to an instrument: ordered (name, value) pairs. Order is
/// preserved into the exposition output, so register labels in the order you
/// want them printed.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic event counter. `inc` is a single relaxed fetch_add; safe to call
/// from any thread, including the reactor loop and pool workers.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value gauge. `set` is a relaxed store; `add` is a CAS loop (C++17 has
/// no atomic fetch_add for doubles). Readers may observe any previously
/// stored value — never a torn one.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with explicit upper bounds (strictly increasing,
/// +Inf implicit). Buckets are chosen at registration, never derived from the
/// data, so the exposition is deterministic given the same sequence of
/// events. `observe` touches one bucket counter, the total count, and a
/// CAS-summed total — no locks on the hot path.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts (non-cumulative), same length as `bounds()` plus one
  /// trailing overflow bucket (+Inf).
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size()+1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Instrument kind, mirrored into `# TYPE` lines.
enum class Kind { kCounter, kGauge, kHistogram };

/// One numeric sample of a counter or gauge family.
struct Sample {
  Labels labels;
  double value = 0.0;
};

/// Snapshot of one histogram series: cumulative bucket counts aligned with
/// `bounds` (the +Inf bucket is implied by `count`).
struct HistogramSample {
  Labels labels;
  std::vector<double> bounds;
  std::vector<std::uint64_t> cumulative;  // same length as bounds
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Snapshot of a metric family: every series sharing one name/help/kind.
struct Family {
  std::string name;
  std::string help;
  Kind kind = Kind::kCounter;
  std::vector<Sample> samples;           // counter / gauge kinds
  std::vector<HistogramSample> histograms;  // histogram kind
};

/// Named instrument registry — the one store of every counter and gauge the
/// Service, artifact store, Reactor, Server and Dispatcher report.
///
/// Registration (`counter`/`gauge`/`histogram`) takes a mutex and returns a
/// reference that stays valid for the registry's lifetime — look instruments
/// up once at construction time and hit the returned reference on the hot
/// path. Repeated registration of the same (name, labels) returns the same
/// instrument. `collect()` snapshots every instrument without stopping
/// writers (relaxed atomic reads), then appends the families produced by any
/// `add_collector` callbacks — reserved for values another object owns live
/// (the job pool's ThreadPool::Stats, the artifact store's directory count).
class Registry {
 public:
  Registry();
  ~Registry();  // out-of-line: FamilySlot is incomplete here
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name, const std::string& help,
                   Labels labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               Labels labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds, Labels labels = {});

  /// Registers a snapshot-time callback that appends families to the
  /// collection. The callback must remain valid for the registry's lifetime.
  void add_collector(std::function<void(std::vector<Family>&)> fn);

  /// Snapshot of every family, in registration order, collector output last.
  std::vector<Family> collect() const;

 private:
  struct Series;
  struct FamilySlot;
  FamilySlot& slot(const std::string& name, const std::string& help, Kind kind);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<FamilySlot>> families_;
  std::vector<std::function<void(std::vector<Family>&)>> collectors_;
};

/// Default latency buckets (seconds): 100us .. 10s, roughly ×3 per step.
std::vector<double> latency_buckets();

/// Escapes a label value per format 0.0.4: backslash, double-quote, newline.
std::string escape_label_value(const std::string& raw);

/// Renders families as Prometheus text exposition format 0.0.4. Families with
/// the same name are merged (first help/kind wins) so the Server can
/// concatenate its own registry with the Service's. Label values are escaped
/// per the format (backslash, double-quote, newline); histogram series emit
/// cumulative `_bucket{le=...}` lines ending in `le="+Inf"` equal to
/// `_count`, plus `_sum` and `_count`.
std::string render_prometheus(const std::vector<Family>& families);

/// The JSON twin of `render_prometheus` (same merge), the `metrics` block of
/// the status documents: each family name maps to `{kind, samples: [{labels,
/// value}]}`; histogram samples carry `count` and `sum` instead of `value`.
void write_json(json::Writer& w, const std::vector<Family>& families);

/// Sum of the counter/gauge samples of family `name` whose labels include
/// every pair of `match` (all of its samples when `match` is empty); 0 when
/// the family is absent.
double sum_samples(const std::vector<Family>& families,
                   const std::string& name, const Labels& match = {});

}  // namespace tetris::obs
