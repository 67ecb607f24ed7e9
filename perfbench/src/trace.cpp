#include "trace.hpp"

#include <cstdio>
#include <functional>
#include <thread>
#include <utility>

namespace perfbench {

namespace {

/// Spans this thread has open, innermost last (parent tracking).
thread_local std::vector<std::int64_t> t_open;

std::uint64_t this_tid() {
  return static_cast<std::uint64_t>(
             std::hash<std::thread::id>{}(std::this_thread::get_id())) %
         1000000u;
}

}  // namespace

Tracer::Tracer(bool enabled, std::string run_id)
    : enabled_(enabled), run_id_(std::move(run_id)), epoch_(Clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

std::int64_t Tracer::begin(std::string name, std::string cat,
                           std::int64_t parent) {
  if (!enabled_) return -1;
  if (parent < 0 && !t_open.empty()) parent = t_open.back();
  Span s;
  s.name = std::move(name);
  s.cat = std::move(cat);
  s.parent = parent;
  s.tid = this_tid();
  s.start_us = now_us();
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    id = next_id_++;
    s.id = id;
    spans_.push_back(std::move(s));
  }
  t_open.push_back(id);
  return id;
}

void Tracer::end(std::int64_t id) {
  if (!enabled_ || id < 0) return;
  const double t = now_us();
  for (auto it = t_open.end(); it != t_open.begin();) {
    if (*--it == id) {
      t_open.erase(it);
      break;
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].end_us = t;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void Tracer::write_json(std::ostream& os) const {
  const std::vector<Span> all = spans();
  char num[64];
  auto fmt = [&num](double v) {
    std::snprintf(num, sizeof num, "%.3f", v);
    return std::string(num);
  };
  os << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    const double end = s.end_us >= s.start_us ? s.end_us : s.start_us;
    os << (i ? ",\n" : "\n") << "{\"name\": " << json_string(s.name)
       << ", \"cat\": " << json_string(s.cat) << ", \"ph\": \"X\""
       << ", \"ts\": " << fmt(s.start_us) << ", \"dur\": "
       << fmt(end - s.start_us) << ", \"pid\": 1, \"tid\": " << s.tid
       << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"run_id\": " << json_string(run_id_) << "}}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"run_id\": "
     << json_string(run_id_) << "}}\n";
}

}  // namespace perfbench
