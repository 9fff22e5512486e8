#include "src/common/random.h"

#include <cmath>

#include "src/common/status.h"

namespace pip {

namespace {

inline uint64_t SplitMix64Step(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline uint64_t Avalanche(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// MixBits in two halves: the first mixes (a, b), the second folds in
// (c, d), so streams sharing (a, b) can mix those words once.
inline uint64_t MixHead(uint64_t a, uint64_t b) {
  uint64_t h = Avalanche(a + 0x9e3779b97f4a7c15ULL);
  return Avalanche(h ^ Rotl(b, 17) ^ 0xc2b2ae3d27d4eb4fULL);
}

inline uint64_t MixTailC(uint64_t head, uint64_t c) {
  return Avalanche(head + Rotl(c, 31) + 0x165667b19e3779f9ULL);
}

inline uint64_t MixTailD(uint64_t h, uint64_t d) {
  return Avalanche(h ^ Rotl(d, 47) ^ 0x27d4eb2f165667c5ULL);
}

inline double ToUniform(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

uint64_t MixBits(uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
  return MixTailD(MixTailC(MixHead(a, b), c), d);
}

uint64_t RandomStream::NextBounded(uint64_t n) {
  PIP_CHECK(n > 0);
  // Lemire's multiply-shift rejection method: unbiased.
  uint64_t x = NextBits();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < n) {
    uint64_t t = -n % n;
    while (l < t) {
      x = NextBits();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

void RandomStream::FillBits(uint64_t* out, uint64_t n) {
  // Hoist the three key words out of the loop; only the counter varies, so
  // the compiler can keep the stream coordinates in registers across the
  // whole block. Each word equals what NextBits() would have returned.
  const uint64_t a = seed_ ^ 0x9e3779b97f4a7c15ULL;
  const uint64_t b = variable_id_ * 0xbf58476d1ce4e5b9ULL;
  const uint64_t c = component_ ^ (sample_index_ << 32);
  for (uint64_t i = 0; i < n; ++i) {
    out[i] = MixBits(a, b, c, counter_++);
  }
}

void RandomStream::FillUniforms(double* out, uint64_t n) {
  const uint64_t a = seed_ ^ 0x9e3779b97f4a7c15ULL;
  const uint64_t b = variable_id_ * 0xbf58476d1ce4e5b9ULL;
  const uint64_t c = component_ ^ (sample_index_ << 32);
  for (uint64_t i = 0; i < n; ++i) {
    out[i] = ToUniform(MixBits(a, b, c, counter_++));
  }
}

void RandomStream::FillFreshUniforms(uint64_t seed, uint64_t variable_id,
                                     uint64_t component,
                                     const uint64_t* sample_indices, size_t n,
                                     uint64_t words, double* out) {
  const uint64_t head = MixHead(seed ^ 0x9e3779b97f4a7c15ULL,
                                variable_id * 0xbf58476d1ce4e5b9ULL);
  for (size_t s = 0; s < n; ++s) {
    const uint64_t h = MixTailC(head, component ^ (sample_indices[s] << 32));
    for (uint64_t w = 0; w < words; ++w) {
      out[s * words + w] = ToUniform(MixTailD(h, w));
    }
  }
}

double RandomStream::NextGaussian() {
  // Box-Muller; uses two uniforms per pair but keeps the stream stateless
  // apart from the counter (no cached second value, to preserve replay
  // determinism regardless of call interleavings).
  double u1 = NextOpenUniform();
  double u2 = NextUniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& word : s_) word = SplitMix64Step(x);
}

uint64_t Rng::NextBits() {
  uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextUniform() {
  return static_cast<double>(NextBits() >> 11) * 0x1.0p-53;
}

double Rng::NextOpenUniform() {
  double u = NextUniform();
  return u > 0.0 ? u : 0x1.0p-53;
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextUniform();
}

uint64_t Rng::NextBounded(uint64_t n) {
  PIP_CHECK(n > 0);
  uint64_t x = NextBits();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < n) {
    uint64_t t = -n % n;
    while (l < t) {
      x = NextBits();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  PIP_CHECK(lo <= hi);
  return lo + static_cast<int64_t>(
                  NextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextGaussian() {
  double u1 = NextOpenUniform();
  double u2 = NextUniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::NextExponential(double rate) {
  PIP_CHECK(rate > 0);
  return -std::log(NextOpenUniform()) / rate;
}

}  // namespace pip
