// Helpers shared by the campaign engine (driver.cc), the coordinator and
// the shard link.  Internal to the driver — not part of the compi:: public
// surface.
#pragma once

#include <cstdint>
#include <string>

namespace compi::detail {

/// splitmix64-style seed derivation: decorrelates per-iteration RNG streams
/// (and per-worker strategy seeds) from the single campaign seed.
[[nodiscard]] inline std::uint64_t mix_seed(std::uint64_t seed,
                                            std::uint64_t salt) {
  std::uint64_t x = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Two failures are the same bug when their messages differ only in
/// concrete quantities (indices, sizes vary with the triggering inputs).
[[nodiscard]] inline std::string bug_signature(const std::string& message) {
  std::string out;
  out.reserve(message.size());
  for (char c : message) {
    if (c < '0' || c > '9') out.push_back(c);
  }
  return out;
}

}  // namespace compi::detail
