// Fuzz harness for the strt.engine.snapshot.v2 decoder.
//
// decode() promises: arbitrary bytes either decode cleanly (ok, empty
// error) or are rejected whole (not ok, non-empty error, nothing
// materialized) -- never a crash, never an unbounded allocation.
// decode() checks framing and checksums only; record-level curve
// validation is the loader's job (Workspace::load_snapshot re-validates
// every record).  What decode() does guarantee, and what this harness
// asserts:
//
//   * no exception escapes (std::abort via the noexcept wrapper below);
//   * rejected input carries a reason and zero entries;
//   * accepted input re-encodes and re-decodes to the same sections
//     (round-trip stability, the property the warm-start cache relies
//     on for save -> load -> save byte-identity).
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "snapshot/snapshot.hpp"

namespace {

int run_one(const std::uint8_t* data, std::size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  const strt::snapshot::DecodeResult first = strt::snapshot::decode(bytes);
  if (!first.ok) {
    if (first.error.empty()) std::abort();
    if (first.snap.entry_count() != 0) std::abort();
    return 0;
  }
  // Accepted: the codec must be a bijection on its accepted set.
  const std::string re = strt::snapshot::encode(first.snap);
  const strt::snapshot::DecodeResult second = strt::snapshot::decode(re);
  if (!second.ok) std::abort();
  if (!(second.snap.curves == first.snap.curves) ||
      !(second.snap.rbf == first.snap.rbf) ||
      !(second.snap.dbf == first.snap.dbf) ||
      !(second.snap.sbf == first.snap.sbf) ||
      !(second.snap.derived == first.snap.derived)) {
    std::abort();
  }
  return 0;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > (1u << 20)) return 0;  // bound allocator abuse
  try {
    return run_one(data, size);
  } catch (...) {
    std::abort();  // decode() must never throw
  }
}
