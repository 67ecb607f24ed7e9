/// \file test_support.cpp
/// \brief Unit tests for the support substrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <sstream>
#include <thread>
#include <vector>

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
      std::atomic<int> posted{0};
      auto job = pool.post(lanes - 1, [&](int) { posted++; });
      pool.wait(job);
      EXPECT_EQ(posted.load(), lanes - 1);
    }
  }
}

}  // namespace
}  // namespace v2d
