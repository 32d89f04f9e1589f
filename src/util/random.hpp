// Deterministic random number generation.
//
// Everything in MGG that is randomized — graph generators, the random
// and biased-random partitioners, SSSP edge weights, source selection —
// draws from these engines with explicit seeds, so every test and bench
// run is bit-for-bit reproducible.
#pragma once

#include <cstdint>
#include <limits>

namespace mgg::util {

/// SplitMix64: used for seeding and cheap stateless hashing.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// xoshiro256** — fast, high-quality 64-bit PRNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed) {
    // Expand the seed through splitmix64 as recommended by the authors.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x = splitmix64(x);
      word = x;
    }
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    // Lemire's multiply-shift rejection method.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in_range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli draw with probability p.
  bool next_bool(double p) { return next_double() < p; }

  /// Advance the stream by n draws, exactly as n calls of next_u64()
  /// would, in O(log n). The xoshiro step is linear over GF(2), so it is
  /// a 256x256 bit matrix T; each set bit j of n applies the cached
  /// power T^(2^j) to the state. The 64 powers are built once per
  /// process, on the first nonzero jump. A generator that draws a fixed
  /// number of values per item uses this to start each chunk of items
  /// at its own offset of one seeded stream.
  void discard(std::uint64_t n);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4];
};

}  // namespace mgg::util
