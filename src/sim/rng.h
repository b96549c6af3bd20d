#pragma once

#include <array>
#include <cstdint>

namespace flowpulse::sim {

/// Deterministic xoshiro256** generator. All randomness in a scenario flows
/// from one root Rng (or children split from it), so a run is reproducible
/// from its seed alone.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Uniform 64-bit value.
  [[nodiscard]] std::uint64_t next_u64();

  /// Uniform in [0, bound). bound must be > 0.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  [[nodiscard]] double next_double();

  /// True with probability p (clamped to [0, 1]).
  [[nodiscard]] bool bernoulli(double p);

  /// Standard normal N(0, 1) draw: a 256-layer ziggurat (Marsaglia & Tsang
  /// 2000). One 64-bit word gives the layer (its low 8 bits) and a signed
  /// uniform (its top 53 bits); disjoint bits avoid the index/uniform
  /// correlation of the original (Doornik 2005). About 98.5% of draws end
  /// there with one table compare. The rest take the wedge test (one exp)
  /// or, past R, Marsaglia's exponential tail (logs), and may consume more
  /// than one 64-bit word, so callers that pin a stream must count draws,
  /// not words.
  [[nodiscard]] double normal();

  /// Derive an independent child generator; deterministic given this
  /// generator's state. Useful to give subsystems their own streams.
  [[nodiscard]] Rng split();

 private:
  std::uint64_t s_[4]{};
};

/// The ziggurat behind Rng::normal(), for f(x) = exp(-x²/2). Layer i in
/// [1, 255] is the rectangle [0, x[i]] × [f[i], f[i+1]] and the base layer
/// is [0, R] × [0, f(R)] plus the tail past R; every layer has area V.
/// x[0] = V / f(R) is the base layer's equal-area width, x[1] = R,
/// x[256] = 0, and f[i] = exp(-x[i]²/2). The tables are read-only
/// literals with internal linkage in rng.cc, so no table is built at run
/// time; x() and f() expose them to the table self-check.
namespace ziggurat {
inline constexpr int kLayers = 256;
inline constexpr double kR = 3.654152885361009;
inline constexpr double kV = 0.004928673233974655;
[[nodiscard]] const std::array<double, kLayers + 1>& x();
[[nodiscard]] const std::array<double, kLayers + 1>& f();
}  // namespace ziggurat

}  // namespace flowpulse::sim
