#include "obs/registry.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>

#include "common/error.h"
#include "common/json.h"

namespace tetris::obs {

namespace {

/// Integral and exactly representable: printed without a fractional part by
/// both renderers (all counters, bucket counts).
bool is_exact_integer(double v) {
  return std::isfinite(v) && v == std::floor(v) &&
         std::abs(v) < 9.007199254740992e15;
}

/// Prometheus sample value: integers print as such; everything else uses the
/// JSON writer's shortest-round-trip formatting so scrapes are deterministic.
std::string format_value(double v) {
  if (is_exact_integer(v)) return std::to_string(static_cast<long long>(v));
  return json::format_double(v);
}

/// HELP text escapes backslash and newline only.
std::string escape_help(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// `{k1="v1",k2="v2"}`, or empty when there are no labels. `extra` appends a
/// pre-rendered pair (the histogram `le` label).
std::string label_block(const Labels& labels, const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    out += escape_label_value(value);
    out += '"';
  }
  if (!extra.empty()) {
    if (!first) out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kCounter: return "counter";
    case Kind::kGauge: return "gauge";
    case Kind::kHistogram: return "histogram";
  }
  return "untyped";
}

/// Merges same-name families (Server + Service registries are
/// concatenated): first help/kind wins, samples append in input order. Both
/// renderers start here.
std::vector<Family> merge_families(const std::vector<Family>& families) {
  std::vector<Family> merged;
  std::map<std::string, std::size_t> index;
  for (const Family& family : families) {
    auto [it, inserted] = index.emplace(family.name, merged.size());
    if (inserted) {
      merged.push_back(family);
      continue;
    }
    Family& target = merged[it->second];
    target.samples.insert(target.samples.end(), family.samples.begin(),
                          family.samples.end());
    target.histograms.insert(target.histograms.end(),
                             family.histograms.begin(),
                             family.histograms.end());
  }
  return merged;
}

}  // namespace

std::string escape_label_value(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

// --------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  TETRIS_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                     std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                         bounds_.end(),
                 "Histogram: bucket bounds must be strictly increasing");
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v) {
  // Prometheus buckets are `le` (less-than-or-equal) upper bounds: the value
  // lands in the first bucket whose bound is >= v, else the +Inf overflow.
  const std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

// ----------------------------------------------------------------- Registry

struct Registry::Series {
  Labels labels;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

struct Registry::FamilySlot {
  std::string name;
  std::string help;
  Kind kind = Kind::kCounter;
  std::deque<Series> series;  // deque: references stay stable on growth
};

Registry::Registry() = default;
Registry::~Registry() = default;

Registry::FamilySlot& Registry::slot(const std::string& name,
                                     const std::string& help, Kind kind) {
  for (auto& family : families_) {
    if (family->name == name) {
      TETRIS_REQUIRE(family->kind == kind,
                     "Registry: metric '" + name +
                         "' re-registered with a different kind");
      return *family;
    }
  }
  auto family = std::make_unique<FamilySlot>();
  family->name = name;
  family->help = help;
  family->kind = kind;
  families_.push_back(std::move(family));
  return *families_.back();
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           Labels labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  FamilySlot& family = slot(name, help, Kind::kCounter);
  for (auto& series : family.series) {
    if (series.labels == labels) return *series.counter;
  }
  family.series.push_back(
      Series{std::move(labels), std::make_unique<Counter>(), nullptr, nullptr});
  return *family.series.back().counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       Labels labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  FamilySlot& family = slot(name, help, Kind::kGauge);
  for (auto& series : family.series) {
    if (series.labels == labels) return *series.gauge;
  }
  family.series.push_back(
      Series{std::move(labels), nullptr, std::make_unique<Gauge>(), nullptr});
  return *family.series.back().gauge;
}

Histogram& Registry::histogram(const std::string& name, const std::string& help,
                               std::vector<double> bounds, Labels labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  FamilySlot& family = slot(name, help, Kind::kHistogram);
  for (auto& series : family.series) {
    if (series.labels == labels) return *series.histogram;
  }
  family.series.push_back(Series{std::move(labels), nullptr, nullptr,
                                 std::make_unique<Histogram>(std::move(bounds))});
  return *family.series.back().histogram;
}

void Registry::add_collector(std::function<void(std::vector<Family>&)> fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  collectors_.push_back(std::move(fn));
}

std::vector<Family> Registry::collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Family> out;
  out.reserve(families_.size());
  for (const auto& family : families_) {
    Family snapshot;
    snapshot.name = family->name;
    snapshot.help = family->help;
    snapshot.kind = family->kind;
    for (const auto& series : family->series) {
      if (family->kind == Kind::kHistogram) {
        HistogramSample sample;
        sample.labels = series.labels;
        sample.bounds = series.histogram->bounds();
        // Snapshot order matters for the `+Inf == _count` invariant: read the
        // per-bucket counts first, then the total, and clamp the total up to
        // the bucket sum so a scrape racing `observe` never reports a +Inf
        // bucket above _count.
        const auto raw = series.histogram->bucket_counts();
        std::uint64_t cumulative = 0;
        sample.cumulative.reserve(sample.bounds.size());
        for (std::size_t i = 0; i < sample.bounds.size(); ++i) {
          cumulative += raw[i];
          sample.cumulative.push_back(cumulative);
        }
        cumulative += raw.back();
        sample.count = std::max(series.histogram->count(), cumulative);
        sample.sum = series.histogram->sum();
        snapshot.histograms.push_back(std::move(sample));
      } else {
        Sample sample;
        sample.labels = series.labels;
        sample.value = series.counter
                           ? static_cast<double>(series.counter->value())
                           : series.gauge->value();
        snapshot.samples.push_back(std::move(sample));
      }
    }
    out.push_back(std::move(snapshot));
  }
  for (const auto& collector : collectors_) collector(out);
  return out;
}

std::vector<double> latency_buckets() {
  return {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0};
}

std::string render_prometheus(const std::vector<Family>& families) {
  const std::vector<Family> merged = merge_families(families);
  std::string out;
  for (const Family& family : merged) {
    out += "# HELP " + family.name + ' ' + escape_help(family.help) + '\n';
    out += "# TYPE " + family.name + ' ' + kind_name(family.kind) + '\n';
    if (family.kind == Kind::kHistogram) {
      for (const HistogramSample& h : family.histograms) {
        for (std::size_t i = 0; i < h.bounds.size(); ++i) {
          out += family.name + "_bucket" +
                 label_block(h.labels,
                             "le=\"" + format_value(h.bounds[i]) +
                                 "\"") +
                 ' ' + std::to_string(h.cumulative[i]) + '\n';
        }
        out += family.name + "_bucket" +
               label_block(h.labels, "le=\"+Inf\"") + ' ' +
               std::to_string(h.count) + '\n';
        out += family.name + "_sum" + label_block(h.labels) + ' ' +
               format_value(h.sum) + '\n';
        out += family.name + "_count" + label_block(h.labels) + ' ' +
               std::to_string(h.count) + '\n';
      }
    } else {
      for (const Sample& s : family.samples) {
        out += family.name + label_block(s.labels) + ' ' +
               format_value(s.value) + '\n';
      }
    }
  }
  return out;
}

void write_json(json::Writer& w, const std::vector<Family>& families) {
  auto labels_object = [&w](const Labels& labels) {
    w.key("labels").begin_object();
    for (const auto& [key, value] : labels) w.key(key).value(value);
    w.end_object();
  };
  w.begin_object();
  for (const Family& family : merge_families(families)) {
    w.key(family.name).begin_object();
    w.key("kind").value(kind_name(family.kind));
    w.key("samples").begin_array();
    for (const Sample& s : family.samples) {
      w.begin_object();
      labels_object(s.labels);
      if (is_exact_integer(s.value)) {
        w.key("value").value(static_cast<long long>(s.value));
      } else {
        w.key("value").value(s.value);
      }
      w.end_object();
    }
    for (const HistogramSample& h : family.histograms) {
      w.begin_object();
      labels_object(h.labels);
      w.key("count").value(static_cast<unsigned long long>(h.count));
      w.key("sum").value(h.sum);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
}

double sum_samples(const std::vector<Family>& families,
                   const std::string& name, const Labels& match) {
  double total = 0.0;
  for (const Family& family : families) {
    if (family.name != name) continue;
    for (const Sample& s : family.samples) {
      const bool matches = std::all_of(
          match.begin(), match.end(), [&s](const auto& pair) {
            return std::find(s.labels.begin(), s.labels.end(), pair) !=
                   s.labels.end();
          });
      if (matches) total += s.value;
    }
  }
  return total;
}

}  // namespace tetris::obs
