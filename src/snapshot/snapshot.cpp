#include "snapshot/snapshot.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace strt::snapshot {

namespace {

/// Appends one little-endian fixed-width integer to the wire buffer.
template <class T>
void put(std::string& out, T v) {
  char bytes[sizeof(T)];
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<char>((static_cast<std::uint64_t>(v) >> (8 * i)) &
                                 0xff);
  }
  out.append(bytes, sizeof(T));
}

void put_i64(std::string& out, std::int64_t v) {
  put(out, static_cast<std::uint64_t>(v));
}

/// Bounds-checked little-endian reader over one payload (or the whole
/// file).  All take() overloads return false on truncation and never
/// read past the end.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

  template <class T>
  [[nodiscard]] bool take(T& out) {
    if (remaining() < sizeof(T)) return false;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    out = static_cast<T>(v);
    pos_ += sizeof(T);
    return true;
  }

  [[nodiscard]] bool take_i64(std::int64_t& out) {
    std::uint64_t v = 0;
    if (!take(v)) return false;
    std::memcpy(&out, &v, sizeof(out));
    return true;
  }

  [[nodiscard]] bool take_bytes(std::size_t n, std::string_view& out) {
    if (remaining() < n) return false;
    out = bytes_.substr(pos_, n);
    pos_ += n;
    return true;
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// Caps a wire-declared element count against the bytes actually left:
/// a hostile count can promise at most remaining/min_elem_size elements,
/// so a reserve() can never balloon past the input size.
[[nodiscard]] bool plausible_count(std::uint64_t count, const Cursor& c,
                                   std::size_t min_elem_size) {
  return count <= c.remaining() / min_elem_size;
}

void encode_curves(std::string& out, const std::vector<CurveRecord>& recs) {
  put(out, static_cast<std::uint64_t>(recs.size()));
  for (const CurveRecord& r : recs) {
    put(out, r.fp);
    put_i64(out, r.horizon);
    put(out, static_cast<std::uint8_t>(r.has_tail ? 1 : 0));
    put_i64(out, r.tail_period);
    put_i64(out, r.tail_increment);
    put(out, static_cast<std::uint64_t>(r.times.size()));
    for (const std::int64_t t : r.times) put_i64(out, t);
    for (const std::int64_t v : r.values) put_i64(out, v);
  }
}

void encode_workload(std::string& out,
                     const std::vector<WorkloadRecord>& recs) {
  put(out, static_cast<std::uint64_t>(recs.size()));
  for (const WorkloadRecord& r : recs) {
    put(out, r.task_fp);
    put(out, static_cast<std::uint64_t>(r.by_horizon.size()));
    for (const auto& [horizon, fp] : r.by_horizon) {
      put_i64(out, horizon);
      put(out, fp);
    }
  }
}

void encode_sbf(std::string& out, const std::vector<SupplyRecord>& recs) {
  put(out, static_cast<std::uint64_t>(recs.size()));
  for (const SupplyRecord& r : recs) {
    put(out, static_cast<std::uint64_t>(r.key.size()));
    out += r.key;
    put_i64(out, r.horizon);
    put(out, r.curve_fp);
  }
}

void encode_derived(std::string& out, const std::vector<DerivedRecord>& recs) {
  put(out, static_cast<std::uint64_t>(recs.size()));
  for (const DerivedRecord& r : recs) {
    put(out, r.op);
    put(out, r.a);
    put(out, r.b);
    put(out, r.curve_fp);
  }
}

[[nodiscard]] bool decode_curves(Cursor& c, std::vector<CurveRecord>& out) {
  std::uint64_t count = 0;
  if (!c.take(count) || !plausible_count(count, c, 8 + 8 + 1 + 8 + 8 + 8)) {
    return false;
  }
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    CurveRecord r;
    std::uint8_t has_tail = 0;
    std::uint64_t n = 0;
    if (!c.take(r.fp) || !c.take_i64(r.horizon) || !c.take(has_tail) ||
        !c.take_i64(r.tail_period) || !c.take_i64(r.tail_increment) ||
        !c.take(n)) {
      return false;
    }
    if (has_tail > 1) return false;
    r.has_tail = has_tail == 1;
    if (!plausible_count(n, c, 16)) return false;  // 16 bytes per breakpoint
    r.times.reserve(n);
    r.values.reserve(n);
    for (std::uint64_t k = 0; k < n; ++k) {
      std::int64_t t = 0;
      if (!c.take_i64(t)) return false;
      r.times.push_back(t);
    }
    for (std::uint64_t k = 0; k < n; ++k) {
      std::int64_t v = 0;
      if (!c.take_i64(v)) return false;
      r.values.push_back(v);
    }
    out.push_back(std::move(r));
  }
  return c.remaining() == 0;
}

[[nodiscard]] bool decode_workload(Cursor& c,
                                   std::vector<WorkloadRecord>& out) {
  std::uint64_t count = 0;
  if (!c.take(count) || !plausible_count(count, c, 16)) return false;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    WorkloadRecord r;
    std::uint64_t n = 0;
    if (!c.take(r.task_fp) || !c.take(n)) return false;
    if (!plausible_count(n, c, 16)) return false;
    r.by_horizon.reserve(n);
    for (std::uint64_t k = 0; k < n; ++k) {
      std::int64_t horizon = 0;
      std::uint64_t fp = 0;
      if (!c.take_i64(horizon) || !c.take(fp)) return false;
      r.by_horizon.emplace_back(horizon, fp);
    }
    out.push_back(std::move(r));
  }
  return c.remaining() == 0;
}

[[nodiscard]] bool decode_sbf(Cursor& c, std::vector<SupplyRecord>& out) {
  std::uint64_t count = 0;
  if (!c.take(count) || !plausible_count(count, c, 8 + 8 + 8)) return false;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    SupplyRecord r;
    std::uint64_t len = 0;
    std::string_view key;
    if (!c.take(len) || len > c.remaining() || !c.take_bytes(len, key) ||
        !c.take_i64(r.horizon) || !c.take(r.curve_fp)) {
      return false;
    }
    r.key = std::string(key);
    out.push_back(std::move(r));
  }
  return c.remaining() == 0;
}

[[nodiscard]] bool decode_derived(Cursor& c, std::vector<DerivedRecord>& out) {
  std::uint64_t count = 0;
  if (!c.take(count) || !plausible_count(count, c, 1 + 8 + 8 + 8)) {
    return false;
  }
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    DerivedRecord r;
    if (!c.take(r.op) || !c.take(r.a) || !c.take(r.b) || !c.take(r.curve_fp)) {
      return false;
    }
    out.push_back(r);
  }
  return c.remaining() == 0;
}

}  // namespace

std::uint64_t Snapshot::entry_count() const {
  std::uint64_t n = curves.size() + sbf.size() + derived.size();
  for (const WorkloadRecord& r : rbf) n += r.by_horizon.size();
  for (const WorkloadRecord& r : dbf) n += r.by_horizon.size();
  return n;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string encode(const Snapshot& snap) {
  // Render the section payloads first so the header can carry exact
  // lengths and checksums.
  std::string payloads[kSectionCount];
  encode_curves(payloads[0], snap.curves);
  encode_workload(payloads[1], snap.rbf);
  encode_workload(payloads[2], snap.dbf);
  encode_sbf(payloads[3], snap.sbf);
  encode_derived(payloads[4], snap.derived);
  constexpr SectionId kIds[kSectionCount] = {
      SectionId::kCurves, SectionId::kRbf, SectionId::kDbf, SectionId::kSbf,
      SectionId::kDerived};

  std::string out;
  std::size_t total = kMagic.size() + 16;
  for (const std::string& p : payloads) total += 24 + p.size();
  out.reserve(total);

  out += kMagic;
  put(out, kVersion);
  put(out, kEndianTag);
  put(out, kSectionCount);
  put(out, static_cast<std::uint32_t>(0));
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    put(out, static_cast<std::uint32_t>(kIds[i]));
    put(out, static_cast<std::uint32_t>(0));
    put(out, static_cast<std::uint64_t>(payloads[i].size()));
    out += payloads[i];
    put(out, fnv1a64(payloads[i]));
  }
  return out;
}

DecodeResult decode(std::string_view bytes) {
  DecodeResult result;
  const auto reject = [&result](std::string reason) {
    result.ok = false;
    result.error = std::move(reason);
    result.snap = Snapshot{};
    return result;
  };

  Cursor c(bytes);
  std::string_view magic;
  if (!c.take_bytes(kMagic.size(), magic)) return reject("truncated header");
  if (magic != kMagic) return reject("bad magic");
  std::uint32_t version = 0;
  std::uint32_t endian = 0;
  std::uint32_t section_count = 0;
  std::uint32_t reserved = 0;
  if (!c.take(version) || !c.take(endian) || !c.take(section_count) ||
      !c.take(reserved)) {
    return reject("truncated header");
  }
  if (version != kVersion) {
    return reject("unsupported version " + std::to_string(version));
  }
  if (endian != kEndianTag) return reject("endianness mismatch");
  if (reserved != 0) return reject("nonzero reserved header field");
  if (section_count > kSectionCount) return reject("too many sections");

  bool seen[kSectionCount + 1] = {};
  for (std::uint32_t s = 0; s < section_count; ++s) {
    std::uint32_t id = 0;
    std::uint32_t sec_reserved = 0;
    std::uint64_t len = 0;
    if (!c.take(id) || !c.take(sec_reserved) || !c.take(len)) {
      return reject("truncated section header");
    }
    if (sec_reserved != 0) return reject("nonzero reserved section field");
    if (id < 1 || id > kSectionCount) return reject("unknown section id");
    if (seen[id]) return reject("duplicate section");
    seen[id] = true;
    std::string_view payload;
    std::uint64_t checksum = 0;
    if (!c.take_bytes(len, payload) || !c.take(checksum)) {
      return reject("truncated section payload");
    }
    if (checksum != fnv1a64(payload)) {
      return reject("section checksum mismatch");
    }
    Cursor pc(payload);
    bool ok = false;
    switch (static_cast<SectionId>(id)) {
      case SectionId::kCurves:
        ok = decode_curves(pc, result.snap.curves);
        break;
      case SectionId::kRbf:
        ok = decode_workload(pc, result.snap.rbf);
        break;
      case SectionId::kDbf:
        ok = decode_workload(pc, result.snap.dbf);
        break;
      case SectionId::kSbf:
        ok = decode_sbf(pc, result.snap.sbf);
        break;
      case SectionId::kDerived:
        ok = decode_derived(pc, result.snap.derived);
        break;
    }
    if (!ok) return reject("malformed section payload");
  }
  if (c.remaining() != 0) return reject("trailing bytes after last section");
  result.ok = true;
  return result;
}

bool validate_curve(const CurveRecord& rec, std::string* error) {
  const auto fail = [error](const char* reason) {
    if (error != nullptr) *error = reason;
    return false;
  };
  if (rec.times.size() != rec.values.size()) {
    return fail("breakpoint arrays disagree in length");
  }
  if (rec.times.empty()) return fail("curve has no breakpoints");
  if (rec.times.front() != 0) return fail("first breakpoint not at t = 0");
  for (std::size_t i = 1; i < rec.times.size(); ++i) {
    if (rec.times[i] <= rec.times[i - 1]) {
      return fail("breakpoint times not strictly increasing");
    }
    if (rec.values[i] <= rec.values[i - 1]) {
      return fail("breakpoint values not strictly increasing");
    }
  }
  if (rec.horizon < rec.times.back()) {
    return fail("horizon below the last breakpoint");
  }
  if (rec.has_tail) {
    if (rec.tail_period < 1) return fail("tail period below 1");
    if (rec.tail_period > rec.horizon) return fail("tail period > horizon");
    if (rec.tail_increment < 0) return fail("negative tail increment");
  } else if (rec.tail_period != 1 || rec.tail_increment != 0) {
    return fail("tail fields set without a tail");
  }
  return true;
}

bool write_file(const std::string& path, const Snapshot& snap,
                std::string* error) {
  const std::string encoded = encode(snap);
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      if (error != nullptr) *error = "cannot open " + tmp_path;
      return false;
    }
    out.write(encoded.data(),
              static_cast<std::streamsize>(encoded.size()));
    out.close();
    if (!out) {
      if (error != nullptr) *error = "short write to " + tmp_path;
      std::error_code ec;
      std::filesystem::remove(tmp_path, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "rename to " + path + " failed: " + ec.message();
    }
    std::error_code rm_ec;
    std::filesystem::remove(tmp_path, rm_ec);
    return false;
  }
  return true;
}

LoadResult read_file(const std::string& path) {
  LoadResult result;
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) {
    result.status = LoadResult::Status::kMissing;
    return result;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    result.status = LoadResult::Status::kRejected;
    result.error = "cannot open " + path;
    return result;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) {
    result.status = LoadResult::Status::kRejected;
    result.error = "read error on " + path;
    return result;
  }
  const std::string bytes = std::move(buf).str();
  DecodeResult decoded = decode(bytes);
  if (!decoded.ok) {
    result.status = LoadResult::Status::kRejected;
    result.error = std::move(decoded.error);
    return result;
  }
  result.status = LoadResult::Status::kOk;
  result.snap = std::move(decoded.snap);
  return result;
}

}  // namespace strt::snapshot
