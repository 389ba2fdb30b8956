// 64-bit hash mixing shared by every content fingerprint (task, curve,
// supply, request).
#pragma once

#include <cstdint>

namespace strt {

/// splitmix64 finalizer: full-avalanche mixing of one 64-bit lane.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ mix64(v));
}

}  // namespace strt
