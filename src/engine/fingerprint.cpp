#include "engine/fingerprint.hpp"

namespace strt::engine {

std::uint64_t fingerprint(std::string_view bytes) {
  std::uint64_t fp = mix64(0x5374724279746573ULL);  // "StrBytes"
  fp = hash_combine(fp, bytes.size());
  // Fold 8 bytes per lane; the trailing partial lane is zero-padded.
  std::uint64_t lane = 0;
  unsigned filled = 0;
  for (const char ch : bytes) {
    lane |= static_cast<std::uint64_t>(static_cast<unsigned char>(ch))
            << (8 * filled);
    if (++filled == 8) {
      fp = hash_combine(fp, lane);
      lane = 0;
      filled = 0;
    }
  }
  if (filled != 0) fp = hash_combine(fp, lane);
  return fp;
}

std::uint64_t fingerprint(const Supply& supply) {
  return hash_combine(mix64(0x537570706c794670ULL),  // "SupplyFp"
                      fingerprint(supply.describe()));
}

}  // namespace strt::engine
