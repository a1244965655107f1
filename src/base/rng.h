// Deterministic pseudo-random number generation.
//
// Every random decision in MALT (data synthesis, shuffling, failure injection)
// flows through these generators so that a fixed seed reproduces a run
// bit-for-bit. SplitMix64 seeds Xoshiro256**, the main generator.

#ifndef SRC_BASE_RNG_H_
#define SRC_BASE_RNG_H_

#include <cstddef>
#include <cstdint>
#include <limits>

namespace malt {

// SplitMix64: tiny, good-quality stream used for seeding.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

// Xoshiro256**: fast general-purpose generator (Blackman & Vigna).
// Satisfies UniformRandomBitGenerator so it plugs into <random> distributions.
class Xoshiro256 {
 public:
  using result_type = uint64_t;

  explicit Xoshiro256(uint64_t seed) {
    SplitMix64 mix(seed);
    for (auto& word : state_) {
      word = mix.Next();
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<uint64_t>::max(); }

  result_type operator()() { return Next(); }

  // Equal generators produce equal streams.
  bool operator==(const Xoshiro256& other) const = default;

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Uniform float in [0, 1).
  float NextFloat() { return static_cast<float>(Next() >> 40) * 0x1.0p-24f; }

  // Uniform integer in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound) {
    // Lemire's multiply-shift rejection method.
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t low = static_cast<uint64_t>(m);
    if (low < bound) {
      const uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  // Standard normal via Box-Muller (polar form avoided: branchless enough).
  double NextGaussian();

  // Advances the stream exactly as NextGaussian does, without the math, for
  // a walk that must stay in step with one that materializes the values.
  void SkipGaussian() {
    while (NextDouble() <= 0.0) {
    }
    (void)Next();
  }

  // Fisher-Yates shuffle of [first, first + n).
  template <typename T>
  void Shuffle(T* first, size_t n) {
    for (size_t i = n; i > 1; --i) {
      const size_t j = static_cast<size_t>(NextBounded(i));
      T tmp = first[i - 1];
      first[i - 1] = first[j];
      first[j] = tmp;
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace malt

#endif  // SRC_BASE_RNG_H_
