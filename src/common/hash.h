// Hash combination helpers (header-only).

#ifndef TREX_COMMON_HASH_H_
#define TREX_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

namespace trex {

/// Mixes `value` into `seed` (boost::hash_combine-style with a 64-bit
/// golden-ratio constant).
inline std::size_t HashCombine(std::size_t seed, std::size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// Hashes any std::hash-able value into `seed`.
template <typename T>
std::size_t HashMix(std::size_t seed, const T& value) {
  return HashCombine(seed, std::hash<T>{}(value));
}

/// FNV-1a over raw bytes; stable across runs (unlike some std::hash
/// implementations in principle), used for table fingerprints. Named
/// distinctly from the string_view overload so that `Fnv1a("x", seed)`
/// can never resolve the seed into the length parameter.
inline std::uint64_t Fnv1aBytes(const void* data, std::size_t len,
                                std::uint64_t seed = 0xcbf29ce484222325ULL) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::uint64_t Fnv1a(std::string_view s,
                           std::uint64_t seed = 0xcbf29ce484222325ULL) {
  return Fnv1aBytes(s.data(), s.size(), seed);
}

/// A 128-bit hash value. Wide enough that content collisions are not a
/// practical concern (~2^64 hashed tables for a 50% birthday-bound
/// collision), which is why the repair-table memo compares it before
/// anything else when verifying a hit.
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Hash128& other) const {
    return hi == other.hi && lo == other.lo;
  }
  bool operator!=(const Hash128& other) const { return !(*this == other); }

  /// XOR combination — the composition law behind the table layer's
  /// delta fingerprints (order-independent, self-inverse).
  Hash128& operator^=(const Hash128& other) {
    hi ^= other.hi;
    lo ^= other.lo;
    return *this;
  }
  friend Hash128 operator^(Hash128 a, const Hash128& b) { return a ^= b; }
};

/// Incremental FNV-1a over a 128-bit state (the real FNV-128 prime and
/// offset basis), for strong content fingerprints. Uses the compiler's
/// `unsigned __int128` (GCC/Clang — the toolchains this project builds
/// with).
class Fnv1a128 {
 public:
  void Mix(const void* data, std::size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      state_ ^= bytes[i];
      state_ *= kPrime;
    }
  }

  Hash128 Digest() const {
    return Hash128{static_cast<std::uint64_t>(state_ >> 64),
                   static_cast<std::uint64_t>(state_)};
  }

 private:
  // FNV-128 prime 2^88 + 2^8 + 0x3b and offset basis.
  static constexpr unsigned __int128 kPrime =
      (static_cast<unsigned __int128>(0x0000000001000000ULL) << 64) |
      0x000000000000013BULL;
  static constexpr unsigned __int128 kOffsetBasis =
      (static_cast<unsigned __int128>(0x6c62272e07bb0142ULL) << 64) |
      0x62b821756295c58dULL;

  unsigned __int128 state_ = kOffsetBasis;
};

}  // namespace trex

#endif  // TREX_COMMON_HASH_H_
