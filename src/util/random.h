// Randomness substrate.
//
// All mechanisms draw their noise through this class so experiments are
// reproducible from a single seed. The Laplace sampler is the workhorse of
// the paper (Def 2.3): every Blowfish/DP mechanism here is an instance of
// "add Laplace noise calibrated to a (policy-specific) sensitivity".

#ifndef BLOWFISH_UTIL_RANDOM_H_
#define BLOWFISH_UTIL_RANDOM_H_

#include <cstdint>
#include <random>
#include <vector>

namespace blowfish {

/// splitmix64 finalizer (Steele et al., "Fast splittable pseudorandom
/// number generators"): bijective avalanche mix of a 64-bit word. The
/// substrate of Random::Fork(stream_id) and of every derived-seed scheme
/// in the codebase (e.g. the serving host's tenant seeds) — one
/// implementation, so derivations cannot silently diverge.
uint64_t SplitMix64(uint64_t x);

/// Draw `counter` of the Laplace(scale) stream keyed by `key`, as a pure
/// function: Random::Laplace's inverse CDF applied to the 53-bit uniform
/// (SplitMix64(key ^ SplitMix64(counter)) >> 11) * 2^-53. Distinct
/// counters under one key give independent draws, so a caller can read
/// any draw of the stream directly, in any order and as often as it
/// likes, without materializing the others. The uint64 -> double
/// conversion is explicit, so the uniform does not depend on the
/// standard library. Requires scale > 0.
double KeyedLaplace(uint64_t key, uint64_t counter, double scale);

/// Deterministically seedable pseudo-random generator with the samplers the
/// library needs. Not thread-safe; use one instance per thread.
class Random {
 public:
  explicit Random(uint64_t seed) : seed_(seed), gen_(seed) {}

  /// Uniform real in [0, 1).
  double Uniform();

  /// Uniform real in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Bernoulli draw with success probability p in [0, 1].
  bool Bernoulli(double p);

  /// Zero-mean Laplace draw with scale b: density (1/2b) exp(-|z|/b).
  /// Variance is 2 b^2. Requires b > 0.
  double Laplace(double scale);

  /// Vector of `n` independent Laplace(scale) draws.
  std::vector<double> LaplaceVector(size_t n, double scale);

  /// Gaussian draw with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Returns a fresh generator seeded from this one (for fanning out
  /// independent per-repetition streams). Advances this generator's state,
  /// so successive calls yield different streams.
  Random Fork();

  /// Returns an independent generator derived *statelessly* from this
  /// generator's construction seed and `stream_id` (splitmix64 mixing).
  /// Unlike Fork(), the result depends only on (seed, stream_id) — not on
  /// how many draws this generator has made — so concurrent workers can be
  /// given reproducible streams regardless of scheduling order.
  Random Fork(uint64_t stream_id) const;

  /// The seed this generator was constructed with.
  uint64_t seed() const { return seed_; }

  /// Access to the underlying engine for std:: distributions.
  std::mt19937_64& engine() { return gen_; }

 private:
  uint64_t seed_;
  std::mt19937_64 gen_;
};

}  // namespace blowfish

#endif  // BLOWFISH_UTIL_RANDOM_H_
