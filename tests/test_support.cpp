/// \file test_support.cpp
/// \brief Unit tests for the support substrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "farm/job_file.hpp"
#include "support/dd.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/units.hpp"

namespace v2d {
namespace {

// --- error ------------------------------------------------------------------

TEST(Error, RequireThrowsWithContext) {
  try {
    V2D_REQUIRE(1 == 2, "math broke");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  V2D_CHECK(2 + 2 == 4, "never");
  SUCCEED();
}

TEST(Error, FailAlwaysThrows) { EXPECT_THROW(V2D_FAIL("boom"), Error); }

// --- options ----------------------------------------------------------------

TEST(Options, DefaultsAndTypes) {
  Options o;
  o.add("alpha", "1.5", "a double").add("count", "7", "an int");
  o.add_flag("verbose", "a flag");
  const char* argv[] = {"prog"};
  o.parse(1, argv);
  EXPECT_DOUBLE_EQ(o.get_double("alpha"), 1.5);
  EXPECT_EQ(o.get_int("count"), 7);
  EXPECT_FALSE(o.get_bool("verbose"));
  EXPECT_FALSE(o.was_set("alpha"));
}

TEST(Options, ParseBothSyntaxes) {
  Options o;
  o.add("alpha", "0", "").add("beta", "0", "");
  o.add_flag("flag", "");
  const char* argv[] = {"prog", "--alpha", "3", "--beta=4", "--flag", "pos"};
  o.parse(6, argv);
  EXPECT_EQ(o.get_int("alpha"), 3);
  EXPECT_EQ(o.get_int("beta"), 4);
  EXPECT_TRUE(o.get_bool("flag"));
  ASSERT_EQ(o.positional().size(), 1u);
  EXPECT_EQ(o.positional()[0], "pos");
  EXPECT_TRUE(o.was_set("alpha"));
}

TEST(Options, UnknownOptionThrows) {
  Options o;
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(o.parse(3, argv), Error);
}

TEST(Options, MissingValueThrows) {
  Options o;
  o.add("alpha", "0", "");
  const char* argv[] = {"prog", "--alpha"};
  EXPECT_THROW(o.parse(2, argv), Error);
}

TEST(Options, BadNumberThrows) {
  Options o;
  o.add("alpha", "0", "");
  const char* argv[] = {"prog", "--alpha", "xyz"};
  o.parse(3, argv);
  EXPECT_THROW(o.get_int("alpha"), Error);
  EXPECT_THROW(o.get_double("alpha"), Error);
}

/// The message of the v2d::Error `get` throws, or "" when it returns.
template <typename Get>
std::string thrown_message(Get get) {
  try {
    (void)get();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Options, OutOfRangeIntegersThrowNamingTheOption) {
  Options o;
  o.add("nx1", "200", "").add("steps", "1", "").add("seed", "0", "");
  o.add("lo", "0", "").add("hi", "0", "");
  const char* argv[] = {"prog",   "--nx1",  "4294967496", "--steps",
                        "99999999999999999999999",        "--seed",
                        "-1",     "--lo",   "-2147483648", "--hi",
                        "2147483647"};
  o.parse(11, argv);
  // Fits long, not int: rejected as int, never wrapped.
  EXPECT_EQ(o.get_int("nx1"), 4294967496L);
  EXPECT_NE(thrown_message([&] { return o.get_int<int>("nx1"); })
                .find("--nx1"),
            std::string::npos);
  // Overflows long (strtol's ERANGE): rejected at every width.
  EXPECT_NE(thrown_message([&] { return o.get_int("steps"); })
                .find("--steps"),
            std::string::npos);
  // Negative into an unsigned target.
  EXPECT_NE(thrown_message([&] { return o.get_int<std::uint64_t>("seed"); })
                .find("--seed"),
            std::string::npos);
  // The int boundaries themselves are accepted.
  EXPECT_EQ(o.get_int<int>("lo"), std::numeric_limits<int>::min());
  EXPECT_EQ(o.get_int<int>("hi"), std::numeric_limits<int>::max());
}

TEST(Options, RunConfigAndJobLinesRejectOutOfRangeIntegers) {
  // Parse only: no Simulation and no pool is built from these values.
  // --host-threads is also bounded to [0, kMaxHostThreads]: each lane but
  // one is an OS thread.
  for (const std::string opt :
       {"--nx1 4294967496", "--steps 4294967297", "--host-threads 4294967297",
        "--host-threads -1", "--host-threads 1025", "--host-threads 100000"}) {
    const std::string name = opt.substr(0, opt.find(' '));
    const std::string msg = thrown_message([&] {
      return farm::parse_job_line("--problem gaussian-pulse " + opt, "j");
    });
    EXPECT_NE(msg.find(name), std::string::npos) << opt << ": " << msg;
  }
  // In range, the same line parses.
  EXPECT_EQ(farm::parse_job_line("--problem gaussian-pulse --steps 3", "j")
                .cfg.steps,
            3);
  EXPECT_EQ(farm::parse_job_line("--problem gaussian-pulse --host-threads 1024",
                                 "j")
                .cfg.host_threads,
            kMaxHostThreads);
}

TEST(Options, DuplicateRegistrationThrows) {
  Options o;
  o.add("a", "1", "");
  EXPECT_THROW(o.add("a", "2", ""), Error);
}

TEST(Options, UsageListsEverything) {
  Options o;
  o.add("alpha", "1", "the alpha value");
  o.add_flag("quiet", "hush");
  const std::string u = o.usage("prog");
  EXPECT_NE(u.find("--alpha"), std::string::npos);
  EXPECT_NE(u.find("--quiet"), std::string::npos);
  EXPECT_NE(u.find("the alpha value"), std::string::npos);
}

// --- table ------------------------------------------------------------------

TEST(TableWriter, AlignsColumns) {
  TableWriter t("title");
  t.set_columns({"a", "bbbb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string s = t.str();
  EXPECT_NE(s.find("title"), std::string::npos);
  EXPECT_NE(s.find("| 333 |"), std::string::npos);
}

TEST(TableWriter, RowWidthMismatchThrows) {
  TableWriter t;
  t.set_columns({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TableWriter, TsvRoundTrip) {
  TableWriter t;
  t.set_columns({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.tsv(), "x\ty\n1\t2\n");
}

TEST(TableWriter, NumFormatting) {
  EXPECT_EQ(TableWriter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TableWriter::integer(42), "42");
}

// --- rng --------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng r(99);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BelowStaysBelow) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

// --- units ------------------------------------------------------------------

TEST(Units, Bytes) {
  EXPECT_EQ(units::bytes(512), "512.00 B");
  EXPECT_EQ(units::bytes(2048), "2.00 KiB");
  EXPECT_EQ(units::bytes(3.0 * 1024 * 1024), "3.00 MiB");
}

TEST(Units, Seconds) {
  EXPECT_EQ(units::seconds(2.5), "2.50 s");
  EXPECT_EQ(units::seconds(2.5e-3), "2.50 ms");
  EXPECT_EQ(units::seconds(2.5e-6), "2.50 us");
}

TEST(Units, Rate) {
  EXPECT_EQ(units::rate(2.0e9, "flop"), "2.00 Gflop/s");
}

// --- log --------------------------------------------------------------------

TEST(Log, LevelFilters) {
  std::ostringstream os;
  log::set_stream(&os);
  log::set_level(log::Level::Warn);
  V2D_LOG_INFO("hidden");
  V2D_LOG_WARN("visible");
  log::set_stream(nullptr);
  EXPECT_EQ(os.str().find("hidden"), std::string::npos);
  EXPECT_NE(os.str().find("visible"), std::string::npos);
}

// --- dd ---------------------------------------------------------------------

TEST(DdAccumulator, ExactForCancellation) {
  DdAccumulator s;
  s.add(1.0e16);
  s.add(1.0);
  s.add(-1.0e16);
  EXPECT_DOUBLE_EQ(s.value(), 1.0);
}

TEST(DdAccumulator, OrderIndependent) {
  // Same addends, two groupings: results must agree to the last bit.
  Rng r(42);
  std::vector<double> xs(1000);
  for (auto& x : xs) x = r.uniform(-1.0, 1.0) * std::pow(10.0, r.below(12));
  DdAccumulator fwd, rev;
  for (std::size_t i = 0; i < xs.size(); ++i) fwd.add(xs[i]);
  for (std::size_t i = xs.size(); i-- > 0;) rev.add(xs[i]);
  EXPECT_DOUBLE_EQ(fwd.value(), rev.value());
}

TEST(DdAccumulator, MergePartials) {
  std::vector<double> xs = {1e8, -1e-8, 3.5, -1e8, 2e-8};
  DdAccumulator whole;
  for (double x : xs) whole.add(x);
  DdAccumulator a, b;
  a.add(xs[0]);
  a.add(xs[1]);
  b.add(xs[2]);
  b.add(xs[3]);
  b.add(xs[4]);
  a.add(b);
  EXPECT_DOUBLE_EQ(whole.value(), a.value());
}

// --- dd lanes ---------------------------------------------------------------

/// The documented lane rule written out in scalar code: one (hi, lo) pair
/// per lane, fed with DdAccumulator's branchy Fast2Sum.
struct LaneReference {
  double hi[DdLanes::kLanes] = {};
  double lo[DdLanes::kLanes] = {};

  void dot_row(const double* x, const double* y, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const double p = x[i] * y[i];
      double& h = hi[i % DdLanes::kLanes];
      const double t = h + p;
      lo[i % DdLanes::kLanes] +=
          std::fabs(h) >= std::fabs(p) ? (h - t) + p : (p - t) + h;
      h = t;
    }
  }
  void collapse_into(DdAccumulator& into) const {
    for (double h : hi) into.add(h);
    for (double l : lo) into.add(l);
  }
};

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

/// The rounded collapse, plus what remains after subtracting it: the
/// remainder exposes the double-double's low-order bits too.
template <class Lanes>
std::pair<std::uint64_t, std::uint64_t> collapsed_bits(const Lanes& l) {
  DdAccumulator sum;
  l.collapse_into(sum);
  DdAccumulator rest;
  rest.add(-sum.value());
  l.collapse_into(rest);
  return {bits(sum.value()), bits(rest.value())};
}

/// Addends over ~60 binades, so every lane's `lo` carries real bits.
std::vector<double> wide_values(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (auto& x : v)
    x = std::ldexp(rng.uniform(-1.0, 1.0),
                   static_cast<int>(rng.below(60)) - 30);
  return v;
}

TEST(DdLanes, MatchesScalarLaneRuleForEveryRowLength) {
  Rng rng(7);
  for (std::size_t n = 0; n <= 17; ++n) {
    DdLanes lanes;
    LaneReference ref;
    for (int row = 0; row < 3; ++row) {  // state carries across rows
      const auto x = wide_values(rng, n), y = wide_values(rng, n);
      lanes.dot_row(x.data(), y.data(), n);
      ref.dot_row(x.data(), y.data(), n);
    }
    EXPECT_EQ(collapsed_bits(lanes), collapsed_bits(ref)) << "n=" << n;
  }
}

TEST(DdLanes, ExactForCancellation) {
  // Within lane 0 (elements 0, 8, 16) and across lanes 1..3.
  std::vector<double> x(17, 0.0), ones(17, 1.0);
  x[0] = 1.0e16;
  x[8] = 1.0;
  x[16] = -1.0e16;
  x[1] = 3.0e16;
  x[2] = -3.0e16;
  x[3] = 0.5;
  DdLanes s;
  s.dot_row(x.data(), ones.data(), x.size());
  EXPECT_EQ(s.value(), 1.5);
}

TEST(DdLanes, InfAndNanPropagate) {
  // Position 3 takes the vector path, position 10 the scalar tail.
  for (const std::size_t at : {std::size_t{3}, std::size_t{10}}) {
    for (const double bad : {std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
      std::vector<double> x(12, 1.0), y(12, 2.0);
      x[at] = bad;
      DdLanes s;
      s.dot_row(x.data(), y.data(), x.size());
      // Inf − Inf in the error term: an Inf addend ends as NaN, as it does
      // in DdAccumulator.
      EXPECT_TRUE(std::isnan(s.value())) << "at=" << at << " bad=" << bad;
    }
  }
}

TEST(DdLanes, GoldenBitPattern) {
  // Pins the result across compilers and build ISAs (SSE2, AVX2/FMA):
  // 1000 seeded addends in rows of 37, so rows end mid-lane-group.
  Rng rng(2026);
  const auto x = wide_values(rng, 1000), y = wide_values(rng, 1000);
  DdLanes lanes;
  for (std::size_t i = 0; i < x.size(); i += 37)
    lanes.dot_row(x.data() + i, y.data() + i,
                  std::min<std::size_t>(37, x.size() - i));
  const auto [sum, rest] = collapsed_bits(lanes);
  EXPECT_EQ(sum, 0xc36fb291b5208e88ull) << std::hex << sum;
  EXPECT_EQ(rest, 0xbfa0f1bfcd917eb0ull) << std::hex << rest;
}

// --- thread pool waits --------------------------------------------------------

/// Back-to-back regions find the workers still spinning (at most as many
/// lanes as hardware threads) or asleep (more lanes than that); either way
/// every index of every region runs exactly once, regions whose indices
/// the caller claims alone leave the workers waiting for the next one,
/// and a pool torn down right after a region joins its workers.
TEST(ThreadPoolWait, BackToBackRegionsSpinningOrBlocking) {
  const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (const int lanes : {2, hw, hw + 2}) {
    for (int round = 0; round < 20; ++round) {
      ThreadPool pool(lanes);
      for (int region = 0; region < 200; ++region) {
        const int n = 1 + region % 7;
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
        pool.run(n, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
        for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
      }
    }
  }
}

}  // namespace
}  // namespace v2d
