// Unit tests of the benchmark's own machinery: percentile math, failure
// accounting, the farm-mix generator and the trace writer.
//
//   python3 perfbench/run.py --self-test

#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "farm/job_file.hpp"
#include "farm_mix.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRankReturnsSamples) {
  EXPECT_EQ(percentile(one_to(100), 0.5), 50.0);
  EXPECT_EQ(percentile(one_to(100), 0.9), 90.0);
  EXPECT_EQ(percentile(one_to(101), 0.9), 91.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_EQ(percentile({7.0}, 0.9), 7.0);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
}

TEST(Percentile, ReportableOnlyWithTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_TRUE(percentile_reportable(100, 0.9));
  EXPECT_FALSE(percentile_reportable(99, 0.9));
  EXPECT_FALSE(percentile_reportable(10, 0.9));
  EXPECT_TRUE(percentile_reportable(20, 0.5));
  EXPECT_FALSE(percentile_reportable(19, 0.5));
  EXPECT_FALSE(percentile_reportable(0, 0.5));
}

TEST(Tally, FailedFractionCountsFailuresAgainstAttempts) {
  Tally t;
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.failed_frac(), 1.0);  // nothing attempted is not a success
  t.record(true);
  t.record(true);
  t.record(true);
  EXPECT_TRUE(t.ok());
  EXPECT_EQ(t.failed_frac(), 0.0);
  t.record(false);
  EXPECT_EQ(t.attempted, 4u);
  EXPECT_EQ(t.failed, 1u);
  EXPECT_EQ(t.failed_frac(), 0.25);
  EXPECT_FALSE(t.ok());
}

TEST(Tally, FailedCheckMarksTheLastOperationWithoutANewAttempt) {
  Tally t;
  t.record(true);
  t.record(true);
  t.fail_last();
  EXPECT_EQ(t.attempted, 2u);
  EXPECT_EQ(t.failed, 1u);
  t.fail_last();
  t.fail_last();  // never more failures than attempts
  EXPECT_EQ(t.failed, 2u);
  Tally empty;
  empty.fail_last();
  EXPECT_EQ(empty.attempted, 1u);
  EXPECT_EQ(empty.failed_frac(), 1.0);
}

bool same(const MixJob& a, const MixJob& b) {
  return a.name == b.name && a.problem == b.problem &&
         a.vector_bits == b.vector_bits && a.steps == b.steps &&
         a.checkpoint_every == b.checkpoint_every;
}

TEST(FarmMix, SameSeedSameList) {
  for (std::uint64_t seed : {0ull, 1ull, 7ull, 123456789ull}) {
    const auto a = generate_farm_mix(seed);
    const auto b = generate_farm_mix(seed);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(same(a[i], b[i]));
  }
}

TEST(FarmMix, SeedsChangeTheAssignment) {
  const auto a = generate_farm_mix(1);
  int differing_seeds = 0;
  for (std::uint64_t seed = 2; seed < 12; ++seed) {
    const auto b = generate_farm_mix(seed);
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i) differs |= !same(a[i], b[i]);
    differing_seeds += differs;
  }
  EXPECT_EQ(differing_seeds, 10);
}

TEST(FarmMix, ProportionsAreFixed) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const auto jobs = generate_farm_mix(seed);
    ASSERT_EQ(jobs.size(), static_cast<std::size_t>(kMixJobs));
    int pulse = 0, vl128 = 0, vl2048 = 0, checkpoints = 0;
    std::set<std::string> names;
    std::multiset<std::string> others;
    for (const auto& j : jobs) {
      names.insert(j.name);
      EXPECT_EQ(j.steps, kMixSteps);
      checkpoints += j.checkpoint_every > 0;
      if (j.problem == "gaussian-pulse") {
        ++pulse;
        EXPECT_EQ(j.vector_bits, 512u);
        continue;
      }
      others.insert(j.problem);
      vl128 += j.vector_bits == 128;
      vl2048 += j.vector_bits == 2048;
    }
    EXPECT_EQ(pulse, kMixPulseJobs);
    EXPECT_EQ(vl128, 2);
    EXPECT_EQ(vl2048, 2);
    EXPECT_EQ(others, (std::multiset<std::string>{
                          "sedov-radhydro", "sedov-radhydro",
                          "hotspot-absorber", "two-species-relax"}));
    EXPECT_EQ(checkpoints, kMixCheckpointJobs);
    EXPECT_EQ(names.size(), jobs.size());
  }
}

TEST(FarmMix, PrintedLinesReplayTheSameConfig) {
  for (const auto& j : generate_farm_mix(5)) {
    const auto parsed = v2d::farm::parse_job_line(job_line(j, "ck"), "x");
    EXPECT_EQ(parsed.name, j.name);
    EXPECT_EQ(parsed.cfg.problem, j.problem);
    EXPECT_EQ(parsed.cfg.steps, j.steps);
    EXPECT_EQ(parsed.cfg.vector_bits, j.vector_bits);
    EXPECT_EQ(parsed.cfg.nx1, kMixNx1);
    EXPECT_EQ(parsed.cfg.nx2, kMixNx2);
    EXPECT_EQ(parsed.cfg.nranks(), 1);
    EXPECT_EQ(parsed.cfg.compilers, paper_compilers());
    EXPECT_EQ(parsed.cfg.checkpoint_every, j.checkpoint_every);
    const auto cfg = job_config(j, "ck", "wrapped");
    EXPECT_EQ(cfg.problem, "wrapped");
    EXPECT_EQ(cfg.checkpoint_path, parsed.cfg.checkpoint_path);
  }
}

/// Strict RFC 8259 syntax check (no semantic checks).
class JsonChecker {
public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool valid() {
    ws();
    if (!value()) return false;
    ws();
    return i_ == s_.size();
  }

private:
  bool value() {
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) return number();
    for (const char* lit : {"true", "false", "null"}) {
      const std::string l(lit);
      if (s_.compare(i_, l.size(), l) == 0) {
        i_ += l.size();
        return true;
      }
    }
    return false;
  }
  bool object() {
    ++i_;
    ws();
    if (peek('}')) return ++i_, true;
    for (;;) {
      ws();
      if (!string()) return false;
      ws();
      if (!peek(':')) return false;
      ++i_;
      ws();
      if (!value()) return false;
      ws();
      if (peek('}')) return ++i_, true;
      if (!peek(',')) return false;
      ++i_;
    }
  }
  bool array() {
    ++i_;
    ws();
    if (peek(']')) return ++i_, true;
    for (;;) {
      ws();
      if (!value()) return false;
      ws();
      if (peek(']')) return ++i_, true;
      if (!peek(',')) return false;
      ++i_;
    }
  }
  bool string() {
    if (!peek('"')) return false;
    for (++i_; i_ < s_.size(); ++i_) {
      const auto c = static_cast<unsigned char>(s_[i_]);
      if (c == '"') return ++i_, true;
      if (c < 0x20) return false;
      if (c == '\\') {
        if (++i_ >= s_.size()) return false;
        const char e = s_[i_];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k)
            if (++i_ >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(s_[i_])))
              return false;
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = i_;
    if (peek('-')) ++i_;
    if (!digits()) return false;
    if (peek('.')) {
      ++i_;
      if (!digits()) return false;
    }
    if (peek('e') || peek('E')) {
      ++i_;
      if (peek('+') || peek('-')) ++i_;
      if (!digits()) return false;
    }
    return i_ > start;
  }
  bool digits() {
    const std::size_t start = i_;
    while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_])))
      ++i_;
    return i_ > start;
  }
  bool peek(char c) const { return i_ < s_.size() && s_[i_] == c; }
  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

TEST(JsonChecker, RejectsMalformedDocuments) {
  for (const char* bad : {"", "{", "{\"a\" 1}", "[1,]", "\"a\nb\"", "{\"a\":01x}",
                          "{\"a\": \"\\q\"}", "[1] 2"})
    EXPECT_FALSE(JsonChecker(bad).valid()) << bad;
  EXPECT_TRUE(JsonChecker("{\"a\": [1, -2.5e3, true, null, \"\\u00e9\"]}").valid());
}

TEST(Tracer, WritesValidTraceEventJson) {
  Tracer t(true, "run \"7\"\\x");
  std::int64_t outer = -1, inner = -1;
  {
    Scope a(t, "setup \"quoted\" \\ back\tslash\x01", "core");
    outer = a.id();
    Scope b(t, "step", "core");
    inner = b.id();
  }
  std::thread([&t, outer] { Scope c(t, "worker step", "farm", outer); }).join();

  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, outer);
  EXPECT_EQ(spans[1].id, inner);
  EXPECT_EQ(spans[2].parent, outer);
  for (const auto& s : spans) EXPECT_GE(s.end_us, s.start_us);
  EXPECT_LE(spans[0].start_us, spans[1].start_us);
  EXPECT_GE(spans[0].end_us, spans[1].end_us);

  std::ostringstream os;
  t.write_json(os);
  const std::string doc = os.str();
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(doc.find("\\u0001"), std::string::npos);
  EXPECT_NE(doc.find("\"run_id\": \"run \\\"7\\\"\\\\x\""), std::string::npos);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer t(false, "off");
  {
    Scope a(t, "setup", "core");
    EXPECT_EQ(a.id(), -1);
  }
  EXPECT_TRUE(t.spans().empty());
  std::ostringstream os;
  t.write_json(os);
  EXPECT_TRUE(JsonChecker(os.str()).valid());
}

}  // namespace
}  // namespace perfbench
