#pragma once
/// \file trace.hpp
/// \brief In-memory span recorder written once as Chrome trace-event JSON.
///
/// The benchmark records a span around each call it makes into a layer
/// (set-up, every step, every probe).  Each span has a name, a category
/// (the layer), start and end times, the id of the span that caused it and
/// the run id shared by every span of one benchmark run.  Spans are kept in
/// memory and written once at the end as "X" (complete) events, which
/// Perfetto and chrome://tracing open offline.
///
/// A disabled Tracer records nothing, so the untraced run pays only a
/// branch per would-be span.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string cat;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 = root
  double start_us = 0.0;     ///< microseconds since the tracer's epoch
  double end_us = 0.0;
  std::uint64_t tid = 0;
};

class Tracer {
public:
  using Clock = std::chrono::steady_clock;

  Tracer(bool enabled, std::string run_id);

  bool enabled() const { return enabled_; }

  /// Open a span; its parent is `parent`, or when that is -1 the
  /// innermost span this thread has open.  Returns the span id (-1 when
  /// disabled).
  std::int64_t begin(std::string name, std::string cat,
                     std::int64_t parent = -1);
  /// Close a span.  Closing on another thread than the one that opened it
  /// (a step that threw) only stamps its end time.
  void end(std::int64_t id);

  std::vector<Span> spans() const;

  /// Chrome trace-event JSON: {"traceEvents": [...], "otherData": {...}}.
  void write_json(std::ostream& os) const;

private:
  double now_us() const;

  bool enabled_;
  std::string run_id_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::int64_t next_id_ = 0;  // guarded by mu_
};

/// RAII span: begin() on construction, end() on destruction.
class Scope {
public:
  Scope(Tracer& t, std::string name, std::string cat,
        std::int64_t parent = -1)
      : t_(t), id_(t.enabled() ? t.begin(std::move(name), std::move(cat),
                                          parent)
                               : -1) {}
  ~Scope() {
    if (id_ >= 0) t_.end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::int64_t id() const { return id_; }

private:
  Tracer& t_;
  std::int64_t id_;
};

/// JSON string literal with RFC 8259 escaping.
std::string json_string(const std::string& s);

}  // namespace perfbench
