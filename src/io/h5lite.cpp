#include "io/h5lite.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include "support/error.hpp"

namespace v2d::io {

namespace {

constexpr std::uint32_t kMagic = 0x48354C54;  // "H5LT"
constexpr std::uint32_t kVersion = 1;

// --- byte stream helpers ----------------------------------------------------

void put_u8(std::vector<std::uint8_t>& b, std::uint8_t v) { b.push_back(v); }

void put_u32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_f64(std::vector<std::uint8_t>& b, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  put_u64(b, bits);
}

void put_str(std::vector<std::uint8_t>& b, const std::string& s) {
  put_u32(b, static_cast<std::uint32_t>(s.size()));
  b.insert(b.end(), s.begin(), s.end());
}

class Reader {
public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint32_t u32() {
    auto p = take(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    auto p = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    auto p = take(n);
    return {reinterpret_cast<const char*>(p.data()), n};
  }
  bool exhausted() const { return pos_ == bytes_.size(); }
  std::size_t remaining() const { return bytes_.size() - pos_; }

private:
  std::span<const std::uint8_t> take(std::size_t n) {
    V2D_REQUIRE(pos_ + n <= bytes_.size(), "truncated h5lite stream");
    auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

// --- tree encoding -----------------------------------------------------------

void put_attr(std::vector<std::uint8_t>& b, const std::string& name,
              const Attr& a) {
  put_str(b, name);
  put_u8(b, static_cast<std::uint8_t>(a.index()));
  if (const auto* i = std::get_if<std::int64_t>(&a)) {
    put_u64(b, static_cast<std::uint64_t>(*i));
  } else if (const auto* d = std::get_if<double>(&a)) {
    put_f64(b, *d);
  } else {
    put_str(b, std::get<std::string>(a));
  }
}

std::pair<std::string, Attr> get_attr(Reader& r) {
  std::string name = r.str();
  const std::uint8_t kind = r.u8();
  switch (kind) {
    case 0: return {name, Attr{static_cast<std::int64_t>(r.u64())}};
    case 1: return {name, Attr{r.f64()}};
    case 2: return {name, Attr{r.str()}};
    default: throw Error("h5lite: bad attribute kind");
  }
}

void put_dataset(std::vector<std::uint8_t>& b, const std::string& name,
                 const Dataset& d) {
  put_str(b, name);
  put_u8(b, static_cast<std::uint8_t>(d.type));
  put_u32(b, static_cast<std::uint32_t>(d.dims.size()));
  for (auto dim : d.dims) put_u64(b, dim);
  if (d.type == Dataset::Type::F64) {
    for (double v : d.f64) put_f64(b, v);
  } else {
    for (std::int64_t v : d.i64) put_u64(b, static_cast<std::uint64_t>(v));
  }
}

std::pair<std::string, Dataset> get_dataset(Reader& r) {
  std::string name = r.str();
  Dataset d;
  const std::uint8_t t = r.u8();
  V2D_REQUIRE(t <= 1, "h5lite: bad dataset type");
  d.type = static_cast<Dataset::Type>(t);
  // ndims and the extents are read from the file: bound both by the bytes
  // that remain (8 per dim, 8 per element) before anything is allocated.
  const std::uint32_t ndims = r.u32();
  V2D_REQUIRE(ndims <= r.remaining() / 8,
              "h5lite: dataset '" + name + "' declares " +
                  std::to_string(ndims) + " dims past the end of the stream");
  d.dims.resize(ndims);
  std::uint64_t n = 1;
  for (auto& dim : d.dims) {
    dim = r.u64();
    V2D_REQUIRE(dim == 0 || n <= std::numeric_limits<std::uint64_t>::max() / dim,
                "h5lite: element count of dataset '" + name + "' overflows");
    n *= dim;
  }
  V2D_REQUIRE(n <= r.remaining() / 8,
              "h5lite: dataset '" + name + "' declares " + std::to_string(n) +
                  " elements past the end of the stream");
  if (d.type == Dataset::Type::F64) {
    d.f64.resize(n);
    for (auto& v : d.f64) v = r.f64();
  } else {
    d.i64.resize(n);
    for (auto& v : d.i64) v = static_cast<std::int64_t>(r.u64());
  }
  return {std::move(name), std::move(d)};
}

void put_group(std::vector<std::uint8_t>& b, const Group& g) {
  put_u32(b, static_cast<std::uint32_t>(g.attrs().size()));
  for (const auto& [name, a] : g.attrs()) put_attr(b, name, a);
  put_u32(b, static_cast<std::uint32_t>(g.datasets().size()));
  for (const auto& [name, d] : g.datasets()) put_dataset(b, name, d);
  put_u32(b, static_cast<std::uint32_t>(g.groups().size()));
  for (const auto& [name, child] : g.groups()) {
    put_str(b, name);
    put_group(b, *child);
  }
}

void get_group(Reader& r, Group& g) {
  const std::uint32_t nattrs = r.u32();
  for (std::uint32_t i = 0; i < nattrs; ++i) {
    auto [name, a] = get_attr(r);
    g.set_attr(name, std::move(a));
  }
  const std::uint32_t ndatasets = r.u32();
  for (std::uint32_t i = 0; i < ndatasets; ++i) {
    auto [name, d] = get_dataset(r);
    if (d.type == Dataset::Type::F64) {
      g.write(name, std::span<const double>(d.f64), d.dims);
    } else {
      g.write(name, std::span<const std::int64_t>(d.i64), d.dims);
    }
  }
  const std::uint32_t ngroups = r.u32();
  for (std::uint32_t i = 0; i < ngroups; ++i) {
    std::string name = r.str();
    get_group(r, g.create_group(name));
  }
}

}  // namespace

// --- Group -------------------------------------------------------------------

Group& Group::create_group(const std::string& name) {
  auto& slot = groups_[name];
  if (!slot) slot = std::make_unique<Group>();
  return *slot;
}

bool Group::has_group(const std::string& name) const {
  return groups_.count(name) != 0;
}

Group& Group::group(const std::string& name) {
  auto it = groups_.find(name);
  V2D_REQUIRE(it != groups_.end(), "h5lite: no such group: " + name);
  return *it->second;
}

const Group& Group::group(const std::string& name) const {
  auto it = groups_.find(name);
  V2D_REQUIRE(it != groups_.end(), "h5lite: no such group: " + name);
  return *it->second;
}

void Group::write(const std::string& name, std::span<const double> data,
                  std::vector<std::uint64_t> dims) {
  Dataset d;
  d.type = Dataset::Type::F64;
  d.dims = std::move(dims);
  V2D_REQUIRE(d.element_count() == data.size(),
              "h5lite: dims do not match data size for " + name);
  d.f64.assign(data.begin(), data.end());
  datasets_[name] = std::move(d);
}

void Group::write(const std::string& name, std::span<const std::int64_t> data,
                  std::vector<std::uint64_t> dims) {
  Dataset d;
  d.type = Dataset::Type::I64;
  d.dims = std::move(dims);
  V2D_REQUIRE(d.element_count() == data.size(),
              "h5lite: dims do not match data size for " + name);
  d.i64.assign(data.begin(), data.end());
  datasets_[name] = std::move(d);
}

bool Group::has_dataset(const std::string& name) const {
  return datasets_.count(name) != 0;
}

const Dataset& Group::dataset(const std::string& name) const {
  auto it = datasets_.find(name);
  V2D_REQUIRE(it != datasets_.end(), "h5lite: no such dataset: " + name);
  return it->second;
}

void Group::set_attr(const std::string& name, Attr value) {
  attrs_[name] = std::move(value);
}

bool Group::has_attr(const std::string& name) const {
  return attrs_.count(name) != 0;
}

const Attr& Group::attr(const std::string& name) const {
  auto it = attrs_.find(name);
  V2D_REQUIRE(it != attrs_.end(), "h5lite: no such attribute: " + name);
  return it->second;
}

double Group::attr_f64(const std::string& name) const {
  return std::get<double>(attr(name));
}

std::int64_t Group::attr_i64(const std::string& name) const {
  return std::get<std::int64_t>(attr(name));
}

std::string Group::attr_str(const std::string& name) const {
  return std::get<std::string>(attr(name));
}

// --- H5File -------------------------------------------------------------------

std::vector<std::uint8_t> H5File::serialize() const {
  std::vector<std::uint8_t> b;
  put_u32(b, kMagic);
  put_u32(b, kVersion);
  put_group(b, *root_);
  return b;
}

H5File H5File::deserialize(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  V2D_REQUIRE(r.u32() == kMagic, "h5lite: bad magic");
  V2D_REQUIRE(r.u32() == kVersion, "h5lite: unsupported version");
  H5File f;
  get_group(r, f.root());
  V2D_REQUIRE(r.exhausted(), "h5lite: trailing bytes");
  return f;
}

void H5File::save(const std::string& path) const {
  // Atomic replace: serialize into a side file, then rename over the
  // target.  A crash mid-write leaves at worst a torn `.tmp` beside an
  // intact previous checkpoint — a truncated file can never land on the
  // real path and poison a later --restart.
  const auto bytes = serialize();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    V2D_REQUIRE(os.good(), "h5lite: cannot open for writing: " + tmp);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    os.flush();
    V2D_REQUIRE(os.good(), "h5lite: write failed: " + tmp);
  }
  V2D_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
              "h5lite: cannot replace '" + path + "' with '" + tmp + "'");
}

H5File H5File::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  V2D_REQUIRE(is.good(), "h5lite: cannot open for reading: " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(is)),
                                  std::istreambuf_iterator<char>());
  return deserialize(bytes);
}

}  // namespace v2d::io
