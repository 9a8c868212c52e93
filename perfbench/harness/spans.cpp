#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder(std::string run_id)
    : run_id_(std::move(run_id)), origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::at(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration<double>(t - origin_).count();
}

SpanId SpanRecorder::begin(std::string_view name, SpanId parent, bool async) {
  return add(name, parent, now(), -1.0, async);
}

void SpanRecorder::end(SpanId id) {
  if (id == 0 || id > spans_.size()) throw std::out_of_range("span id");
  spans_[id - 1].end = now();
}

SpanId SpanRecorder::add(std::string_view name, SpanId parent, double start,
                         double end, bool async) {
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.name = std::string(name);
  span.start = start;
  span.end = end;
  span.async = async;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_)
    std::fprintf(f,
                 "{\"run\":\"%s\",\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                 "\"start_s\":%.9f,\"end_s\":%.9f,\"async\":%s}\n",
                 run_id_.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name.c_str(),
                 s.start, s.end, s.async ? "true" : "false");
  return std::fclose(f) == 0;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.async || s.parent == kNoParent || s.parent > spans.size()) continue;
    const Span& p = spans[s.parent - 1];
    const double lo = std::max(s.start, p.start);
    const double hi = std::min(s.end, p.end);
    if (hi > lo) children[s.parent - 1].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

}  // namespace perfbench
