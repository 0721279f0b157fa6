#pragma once
// In-memory span recorder for the traced run, written once at the end as
// Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// Each recording thread owns one Lane; lanes are created before the
// threads start and never shared, so recording takes no lock. Span names
// and categories are string literals named after the program's layers
// (net, serve, nn, tensor, data, optim), so spans recorded inside the
// program later can land in the same file.
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct Span {
  const char* cat = "";
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  /// Request / conversation / step identifier shared by related spans.
  std::uint64_t id = 0;
  /// One optional numeric argument (e.g. sequences advanced by a step).
  const char* arg_name = nullptr;
  double arg = 0.0;
};

class Lane {
 public:
  Lane(int tid, std::string name) : tid_(tid), name_(std::move(name)) {}
  void add(const char* cat, const char* name, Clock::time_point start,
           Clock::time_point end, std::uint64_t id = 0,
           const char* arg_name = nullptr, double arg = 0.0) {
    spans_.push_back({cat, name, start, end, id, arg_name, arg});
  }
  /// Move the end of the latest span (merges back-to-back idle waits).
  void extend_last(Clock::time_point end) {
    if (!spans_.empty()) spans_.back().end = end;
  }
  const std::vector<Span>& spans() const { return spans_; }
  int tid() const { return tid_; }
  const std::string& name() const { return name_; }

 private:
  int tid_;
  std::string name_;
  std::vector<Span> spans_;
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}
  /// Lanes live as long as the tracer; the reference stays valid.
  Lane& lane(std::string name) {
    lanes_.emplace_back(static_cast<int>(lanes_.size()) + 1, std::move(name));
    return lanes_.back();
  }
  /// Every span of every lane named `name`, in recording order per lane.
  std::vector<const Span*> find(const char* name) const;
  std::size_t span_count() const;
  /// Write {"traceEvents": [...]} with one complete ("X") event per span.
  void write_chrome(const std::string& path, const std::string& process) const;

 private:
  Clock::time_point epoch_;
  std::deque<Lane> lanes_;
};

inline double span_ms(const Span& s) {
  return std::chrono::duration<double, std::milli>(s.end - s.start).count();
}

}  // namespace perfbench
