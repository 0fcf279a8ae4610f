#include "spans.h"

#include <algorithm>
#include <utility>

namespace flowbench {

int FlowSpans::open(std::string name, int parent, std::string detail) {
  Span s;
  s.name = std::move(name);
  s.detail = std::move(detail);
  s.flow = flow_;
  s.parent = parent;
  s.start = seconds_between(epoch_, Clock::now());
  s.end = s.start;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void FlowSpans::close(int id) {
  spans_[static_cast<std::size_t>(id)].end =
      seconds_between(epoch_, Clock::now());
}

int FlowSpans::add(std::string name, int parent, Clock::time_point start,
                   Clock::time_point end, std::string detail) {
  Span s;
  s.name = std::move(name);
  s.detail = std::move(detail);
  s.flow = flow_;
  s.parent = parent;
  s.start = seconds_between(epoch_, start);
  s.end = seconds_between(epoch_, end);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::commit(const FlowSpans& flow) {
  std::lock_guard<std::mutex> lk(mutex_);
  blocks_.push_back(flow.spans());
}

std::vector<std::vector<Span>> SpanLog::blocks() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return blocks_;
}

namespace {

/// Self time of every span in one committed block.
void block_self_times(const std::vector<Span>& spans, SelfTimes& out) {
  const std::size_t n = spans.size();
  std::vector<std::vector<std::pair<double, double>>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < n) {
      children[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0.0;
    double cursor = s.start;
    for (const auto& [a, b] : kids) {
      const double lo = std::max(a, cursor);
      const double hi = std::min(b, s.end);
      if (hi > lo) covered += hi - lo;
      cursor = std::max(cursor, hi);
    }
    const double self = std::max(0.0, (s.end - s.start) - covered);
    out.self_s[s.name] += self;
    out.wall_s[s.name] += s.end - s.start;
    ++out.calls[s.name];
  }
}

}  // namespace

SelfTimes self_times(const std::vector<std::vector<Span>>& blocks) {
  SelfTimes out;
  for (const auto& block : blocks) block_self_times(block, out);
  return out;
}

}  // namespace flowbench
