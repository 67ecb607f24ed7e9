/// \file test_io.cpp
/// \brief Unit tests for the h5lite hierarchical container.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "io/h5lite.hpp"
#include "support/error.hpp"

namespace v2d::io {
namespace {

TEST(H5Lite, AttrsOfAllKinds) {
  H5File f;
  f.root().set_attr("i", std::int64_t{-42});
  f.root().set_attr("d", 3.25);
  f.root().set_attr("s", std::string("hello"));
  EXPECT_EQ(f.root().attr_i64("i"), -42);
  EXPECT_DOUBLE_EQ(f.root().attr_f64("d"), 3.25);
  EXPECT_EQ(f.root().attr_str("s"), "hello");
  EXPECT_TRUE(f.root().has_attr("i"));
  EXPECT_FALSE(f.root().has_attr("missing"));
  EXPECT_THROW(f.root().attr("missing"), Error);
}

TEST(H5Lite, DatasetDimsMustMatch) {
  H5File f;
  const std::vector<double> d = {1, 2, 3, 4, 5, 6};
  EXPECT_NO_THROW(f.root().write("ok", std::span<const double>(d), {2, 3}));
  EXPECT_THROW(f.root().write("bad", std::span<const double>(d), {2, 2}),
               Error);
}

TEST(H5Lite, NestedGroups) {
  H5File f;
  Group& mesh = f.root().create_group("mesh");
  Group& fields = mesh.create_group("fields");
  fields.set_attr("n", std::int64_t{1});
  EXPECT_TRUE(f.root().has_group("mesh"));
  EXPECT_EQ(f.root().group("mesh").group("fields").attr_i64("n"), 1);
  EXPECT_THROW(f.root().group("nope"), Error);
  // create_group is idempotent.
  EXPECT_EQ(&f.root().create_group("mesh"), &mesh);
}

TEST(H5Lite, SerializeRoundTrip) {
  H5File f;
  f.root().set_attr("time", 1.25);
  Group& g = f.root().create_group("fields");
  const std::vector<double> e = {0.5, 1.5, 2.5, 3.5};
  g.write("energy", std::span<const double>(e), {2, 2});
  const std::vector<std::int64_t> ids = {7, 8, 9};
  g.write("ids", std::span<const std::int64_t>(ids), {3});

  const H5File back = H5File::deserialize(f.serialize());
  EXPECT_DOUBLE_EQ(back.root().attr_f64("time"), 1.25);
  const Dataset& d = back.root().group("fields").dataset("energy");
  EXPECT_EQ(d.type, Dataset::Type::F64);
  ASSERT_EQ(d.dims, (std::vector<std::uint64_t>{2, 2}));
  EXPECT_DOUBLE_EQ(d.f64[3], 3.5);
  const Dataset& di = back.root().group("fields").dataset("ids");
  EXPECT_EQ(di.type, Dataset::Type::I64);
  EXPECT_EQ(di.i64[2], 9);
}

TEST(H5Lite, TruncatedStreamRejected) {
  H5File f;
  f.root().set_attr("x", 1.0);
  auto bytes = f.serialize();
  bytes.resize(bytes.size() - 4);
  EXPECT_THROW(H5File::deserialize(bytes), Error);
}

TEST(H5Lite, BadMagicRejected) {
  std::vector<std::uint8_t> junk = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_THROW(H5File::deserialize(junk), Error);
}

TEST(H5Lite, TrailingBytesRejected) {
  H5File f;
  auto bytes = f.serialize();
  bytes.push_back(0);
  EXPECT_THROW(H5File::deserialize(bytes), Error);
}

/// Byte offset of the ndims field of the first root dataset when it is
/// named "rho": magic, version, nattrs, ndatasets, name length, "rho", type.
constexpr std::size_t kRhoNdimsAt = 4 + 4 + 4 + 4 + 4 + 3 + 1;

/// A serialized file whose root holds one empty dataset "rho" with `ndims`
/// zero extents, then each extent patched to `dims[i]`.  No element bytes
/// follow, so the stream is only valid while the extents multiply to 0.
std::vector<std::uint8_t> patched_dims_stream(
    const std::vector<std::uint64_t>& dims) {
  H5File f;
  f.root().write("rho", std::span<const double>(),
                 std::vector<std::uint64_t>(dims.size(), 0));
  auto bytes = f.serialize();
  const std::size_t first_dim = kRhoNdimsAt + 4;
  for (std::size_t i = 0; i < dims.size(); ++i)
    for (int b = 0; b < 8; ++b)
      bytes[first_dim + 8 * i + b] =
          static_cast<std::uint8_t>(dims[i] >> (8 * b));
  return bytes;
}

/// The what() of the v2d::Error that deserialize throws, or "" if it
/// accepts the stream.  Any other exception fails the calling test.
std::string rejection(const std::vector<std::uint8_t>& bytes) {
  try {
    (void)H5File::deserialize(bytes);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(H5Lite, OverflowingElementCountRejected) {
  ASSERT_EQ(rejection(patched_dims_stream({0, 0})), "");
  // 2^33 * 2^33 wraps to 0 in 64 bits.
  const std::string why =
      rejection(patched_dims_stream({1ull << 33, 1ull << 33}));
  EXPECT_NE(why.find("overflows"), std::string::npos) << why;
  EXPECT_NE(why.find("rho"), std::string::npos) << why;
}

TEST(H5Lite, ElementCountBeyondStreamRejectedBeforeAllocation) {
  const std::string why = rejection(patched_dims_stream({1ull << 40}));
  EXPECT_NE(why.find("past the end"), std::string::npos) << why;
  EXPECT_NE(why.find("rho"), std::string::npos) << why;
}

TEST(H5Lite, DimCountBeyondStreamRejectedBeforeAllocation) {
  auto bytes = patched_dims_stream({0});
  for (int b = 0; b < 4; ++b) bytes[kRhoNdimsAt + b] = 0xff;
  const std::string why = rejection(bytes);
  EXPECT_NE(why.find("4294967295 dims"), std::string::npos) << why;
  EXPECT_NE(why.find("rho"), std::string::npos) << why;
}

TEST(H5Lite, SaveAndLoadFile) {
  const std::string path = ::testing::TempDir() + "/h5lite_test.h5l";
  {
    H5File f;
    f.root().set_attr("step", std::int64_t{12});
    const std::vector<double> d = {1.0, 2.0};
    f.root().write("v", std::span<const double>(d), {2});
    f.save(path);
  }
  const H5File back = H5File::load(path);
  EXPECT_EQ(back.root().attr_i64("step"), 12);
  EXPECT_DOUBLE_EQ(back.root().dataset("v").f64[1], 2.0);
  std::remove(path.c_str());
}

TEST(H5Lite, LoadMissingFileThrows) {
  EXPECT_THROW(H5File::load("/nonexistent/path/file.h5l"), Error);
}

TEST(H5Lite, EmptyFileRoundTrips) {
  const H5File back = H5File::deserialize(H5File{}.serialize());
  EXPECT_TRUE(back.root().groups().empty());
  EXPECT_TRUE(back.root().datasets().empty());
}

/// save() is atomic: bytes land on a side file first, then rename onto
/// the real path.  A stale torn side file (a crashed earlier writer) is
/// simply overwritten, and the real path never holds a half-written
/// checkpoint.
TEST(H5Lite, SaveIsAtomicAndSurvivesAStaleTornSideFile) {
  const std::string path = ::testing::TempDir() + "/h5_atomic.h5l";
  {
    // A previous writer died mid-save, leaving garbage on the side file.
    std::ofstream torn(path + ".tmp", std::ios::binary);
    torn << "H5L!garbage";
  }
  H5File f;
  f.root().set_attr("step", std::int64_t{4});
  f.save(path);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());  // renamed away
  EXPECT_EQ(H5File::load(path).root().attr_i64("step"), 4);

  // Overwrite through the same path is also atomic.
  f.root().set_attr("step", std::int64_t{8});
  f.save(path);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  EXPECT_EQ(H5File::load(path).root().attr_i64("step"), 8);
  std::remove(path.c_str());
}

TEST(H5Lite, DatasetOverwriteReplaces) {
  H5File f;
  const std::vector<double> a = {1.0}, b = {2.0, 3.0};
  f.root().write("x", std::span<const double>(a), {1});
  f.root().write("x", std::span<const double>(b), {2});
  EXPECT_EQ(f.root().dataset("x").element_count(), 2u);
}

}  // namespace
}  // namespace v2d::io
