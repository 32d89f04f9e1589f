#include "util/random.hpp"

#include <array>
#include <bit>
#include <vector>

namespace mgg::util {

namespace {

using State = std::array<std::uint64_t, 4>;

/// One xoshiro256** state transition (next_u64 without the output).
State step(State s) {
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = (s[3] << 45) | (s[3] >> 19);
  return s;
}

/// A 256x256 GF(2) matrix stored by columns: column i is the image of
/// state bit i.
using Matrix = std::array<State, 256>;

State apply(const Matrix& m, const State& v) {
  State out{};
  for (int w = 0; w < 4; ++w) {
    for (std::uint64_t bits = v[w]; bits != 0; bits &= bits - 1) {
      const State& col = m[64 * w + std::countr_zero(bits)];
      for (int k = 0; k < 4; ++k) out[k] ^= col[k];
    }
  }
  return out;
}

/// powers[j] = T^(2^j), for every bit of a 64-bit jump distance.
std::vector<Matrix> make_powers() {
  std::vector<Matrix> powers(64);
  for (int i = 0; i < 256; ++i) {
    State unit{};
    unit[i / 64] = std::uint64_t{1} << (i % 64);
    powers[0][i] = step(unit);
  }
  for (int j = 1; j < 64; ++j) {
    for (int i = 0; i < 256; ++i) {
      powers[j][i] = apply(powers[j - 1], powers[j - 1][i]);
    }
  }
  return powers;
}

}  // namespace

void Rng::discard(std::uint64_t n) {
  if (n == 0) return;
  static const std::vector<Matrix> powers = make_powers();
  State s{state_[0], state_[1], state_[2], state_[3]};
  for (; n != 0; n &= n - 1) s = apply(powers[std::countr_zero(n)], s);
  for (int k = 0; k < 4; ++k) state_[k] = s[k];
}

}  // namespace mgg::util
