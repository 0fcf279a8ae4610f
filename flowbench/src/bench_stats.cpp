#include "bench_stats.h"

#include <algorithm>

namespace flowbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double windowed_median(const std::vector<double>& times,
                       const std::vector<double>& values, double window_s,
                       std::size_t windows) {
  windows = std::max<std::size_t>(windows, 1);
  std::vector<std::vector<double>> by_window(windows);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double w = std::max(0.0, times[i] / window_s);
    by_window[std::min(windows - 1, static_cast<std::size_t>(w))].push_back(values[i]);
  }
  std::vector<double> medians;
  for (auto& v : by_window) {
    if (!v.empty()) medians.push_back(median(std::move(v)));
  }
  return median(std::move(medians));
}

Tail tail(std::vector<double> samples) {
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  constexpr std::size_t kBeyond = 10;
  const std::size_t n = samples.size();
  if (n <= kBeyond) {
    t.value = samples.back();
    t.percentile = 100.0;
    return t;
  }
  const std::size_t rank = n - kBeyond;  // 1-based nearest rank
  t.value = samples[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return t;
}

const char* fail_kind_name(FailKind kind) {
  switch (kind) {
    case FailKind::kError: return "error";
    case FailKind::kRefused: return "refused";
    case FailKind::kTimeout: return "timeout";
    case FailKind::kCheck: return "check";
  }
  return "unknown";
}

void Tally::fail(FailKind kind, const std::string& why) {
  ++by_kind_[static_cast<std::size_t>(kind)];
  if (messages_.size() < kMaxMessages) {
    messages_.push_back(std::string(fail_kind_name(kind)) + ": " + why);
  }
}

std::size_t Tally::failed() const {
  std::size_t total = 0;
  for (std::size_t n : by_kind_) total += n;
  return total;
}

double Tally::failed_ratio() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed()) /
                               static_cast<double>(attempted_);
}

}  // namespace flowbench
