// trace.hpp — in-memory spans recorded around the benchmark's calls into
// each layer, and the arithmetic derived from them.
//
// A span is (name, start, end, parent, op id).  Spans live in a vector
// while the run goes and are written out once it ends; nothing is recorded
// inside the program under test.  A span's self time is its duration minus
// the part of its interval covered by its children (their union, clipped
// to the parent), so overlapping pipelined children are not counted twice.
#pragma once
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration<double>(t - epoch).count();
}

struct Span {
  std::string name;
  double start = 0;          // seconds since the tracer's epoch
  double end = 0;
  std::int64_t parent = -1;  // index into the span vector; -1 = root
  std::uint64_t op = 0;      // spans of one op share this id
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}
  double now() const { return seconds_since(epoch_, Clock::now()); }

  // Open a span; returns its index (or -1 when tracing is off).
  std::int64_t begin(const char* name, std::uint64_t op,
                     std::int64_t parent = -1) {
    if (!on_) return -1;
    spans_.push_back({name, now(), 0.0, parent, op});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void end(std::int64_t idx) {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].end = now();
  }
  // Record a finished span from explicit times (seconds since the epoch).
  std::int64_t add(const char* name, std::uint64_t op, double start,
                   double end, std::int64_t parent = -1) {
    if (!on_) return -1;
    spans_.push_back({name, start, end, parent, op});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  double to_epoch(Clock::time_point t) const { return seconds_since(epoch_, t); }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// Length of the union of [start, end) intervals.
inline double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0, cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (e <= s) continue;
    if (!open || s > cur_e) {
      if (open) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) total += cur_e - cur_s;
  return total;
}

// Self time of every span: duration minus the union of its children's
// intervals clipped to its own.
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0) {
      const Span& p = spans[static_cast<std::size_t>(s.parent)];
      const double a = std::max(s.start, p.start);
      const double b = std::min(s.end, p.end);
      if (b > a) kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
    }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = std::max(0.0, (spans[i].end - spans[i].start) -
                                union_length(std::move(kids[i])));
  return self;
}

// Total self time per span name.
inline std::map<std::string, double> self_time_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

// --- open-loop schedule arithmetic ---------------------------------------
// Request i of an open loop at `rate` per second is due at start + i / rate.
// Its latency counts from the due time, not from when it was actually
// sent, so a sender stall charges every request it delayed; lateness is
// how far behind the schedule the send happened (never negative).
inline double due_time(double start, std::uint64_t i, double rate) {
  return start + static_cast<double>(i) / rate;
}
inline double latency_from_due(double due, double done) { return done - due; }
inline double sender_lateness(double due, double sent) {
  return std::max(0.0, sent - due);
}

}  // namespace perfbench
