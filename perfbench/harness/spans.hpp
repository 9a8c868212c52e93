#pragma once
// Bench-side spans for the traced run: host-clock intervals recorded
// around calls into the simulator's public seams (the JobRunner call, its
// backend factory, every CheckpointBackend method, the job observer).
// Spans are kept in memory and written out once, after the run.
//
// Two shapes:
//  * synchronous spans nest inside their parent's call and count towards
//    the parent's child time (self time = duration minus the union of the
//    synchronous children's intervals);
//  * asynchronous spans (an epoch from checkpoint() to its EpochDone, a
//    recovery from handle_failure() to RecoveryDone) cover event-loop time
//    spent on unrelated work as well, so they are reported but never
//    subtracted from a parent.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using SpanId = std::uint64_t;
constexpr SpanId kNoParent = 0;

struct Span {
  SpanId id = 0;
  SpanId parent = kNoParent;
  std::string name;
  double start = 0.0;  // host seconds since the recorder was created
  double end = -1.0;   // < start while open
  bool async = false;
  double duration() const { return end - start; }
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::string run_id);

  SpanId begin(std::string_view name, SpanId parent, bool async = false);
  void end(SpanId id);
  /// Add a span whose start and end are already known.
  SpanId add(std::string_view name, SpanId parent, double start, double end,
             bool async = false);

  double now() const { return at(std::chrono::steady_clock::now()); }
  /// Host seconds from the recorder's origin to `t`.
  double at(std::chrono::steady_clock::time_point t) const;
  const std::string& run_id() const { return run_id_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line; returns false if the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::string run_id_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;  // spans_[id - 1]
};

/// Self time of every span (indexed like `spans`): its duration minus the
/// part of its interval covered by the union of its synchronous children.
std::vector<double> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
