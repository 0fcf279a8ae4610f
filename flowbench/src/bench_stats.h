#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace flowbench {

/// Median of `samples` (mean of the middle pair for even counts); 0 when
/// empty.
double median(std::vector<double> samples);

/// Median of per-window medians: sample i, taken at `times[i]` seconds into
/// the run, falls into window floor(times[i] / window_s) of `windows`, the
/// last window also taking every later sample; empty windows are skipped.
/// A stretch in which the host is slow moves this only once it covers half
/// the windows, where it moves the plain median as soon as it covers the
/// samples between the median and the next mode. 0 when empty.
double windowed_median(const std::vector<double>& times,
                       const std::vector<double>& values, double window_s,
                       std::size_t windows);

/// A tail latency together with the percentile it sits at and the sample
/// count it was taken from, so a reader can judge how much to trust it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< nearest-rank percentile, in (0, 100]
  std::size_t samples = 0;
};

/// The highest nearest-rank percentile that still has at least ten samples
/// beyond it: rank n-10 of n sorted samples, i.e. the 11th-largest value, at
/// percentile 100*(n-10)/n. Taking a fixed number of samples beyond (rather
/// than a fixed percentile) keeps the statistic continuous in n, so runs
/// with slightly different flow counts stay comparable. With 10 samples or
/// fewer no such percentile exists; the maximum is returned with
/// percentile 100. Empty input gives an all-zero Tail.
Tail tail(std::vector<double> samples);

/// Why a flow counts as failed.
enum class FailKind {
  kError,    ///< the flow errored (non-done job state, transport error)
  kRefused,  ///< the system answered the submission with an error status
  kTimeout,  ///< no result before the benchmark's deadline
  kCheck,    ///< finished, but an output or determinism check rejected it
};
inline constexpr std::size_t kFailKinds = 4;
const char* fail_kind_name(FailKind kind);

/// Failure accounting: every flow the benchmark attempts is counted once,
/// and each failure is counted once under one kind. A refused or timed-out
/// flow is a failure like an errored one. Not thread-safe.
class Tally {
 public:
  void attempt(std::size_t n = 1) { attempted_ += n; }
  /// Records one failed flow; the first few messages are kept for the
  /// report.
  void fail(FailKind kind, const std::string& why);

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const;
  std::size_t failed(FailKind kind) const {
    return by_kind_[static_cast<std::size_t>(kind)];
  }
  /// failed / attempted; 0 when nothing was attempted.
  double failed_ratio() const;
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  static constexpr std::size_t kMaxMessages = 8;
  std::size_t attempted_ = 0;
  std::array<std::size_t, kFailKinds> by_kind_{};
  std::vector<std::string> messages_;
};

}  // namespace flowbench
