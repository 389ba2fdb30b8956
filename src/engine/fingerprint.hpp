// Content fingerprints for curves and analysis artifacts.
//
// A fingerprint is a 64-bit content hash (splitmix64 lane mixing over the
// canonical representation).  engine::Workspace uses fingerprints to key
// its memoization tables: two Staircases compare equal iff they have the
// same canonical breakpoints, horizon, and tail, so hashing exactly those
// fields gives a collision-resistant cache key.  Where aliasing would be
// unacceptable (the hash-consing intern table), the Workspace confirms a
// fingerprint match with a full equality compare.
#pragma once

#include <cstdint>
#include <string_view>

#include "base/hash.hpp"
#include "curves/staircase.hpp"
#include "resource/supply.hpp"

namespace strt::engine {

/// Content fingerprint of a staircase: breakpoints, horizon, and tail
/// (Staircase::content_hash, computed once per curve and then kept).
[[nodiscard]] inline std::uint64_t fingerprint(const Staircase& c) {
  return c.content_hash();
}

/// Fingerprint of a byte string (mix64 lane chaining).
[[nodiscard]] std::uint64_t fingerprint(std::string_view bytes);

/// Content fingerprint of a supply model, keyed on the same canonical
/// description string the Workspace sbf memo uses: two supplies with one
/// fingerprint share every cached sbf materialization.
[[nodiscard]] std::uint64_t fingerprint(const Supply& supply);

}  // namespace strt::engine
