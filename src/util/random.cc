#include "util/random.h"

#include <cassert>
#include <cmath>

namespace blowfish {

namespace {

/// Inverse-CDF Laplace sampling from U uniform in [0, 1): with
/// u = U - 1/2, Z = -b * sgn(u) * ln(1 - 2|u|).
double LaplaceFromUniform(double uniform, double scale) {
  assert(scale > 0.0);
  double u = uniform - 0.5;
  // Guard against u == -0.5 producing log(0).
  if (u <= -0.5) u = std::nextafter(-0.5, 0.0);
  double sign = (u < 0.0) ? -1.0 : 1.0;
  return -scale * sign * std::log(1.0 - 2.0 * std::fabs(u));
}

}  // namespace

double Random::Uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(gen_);
}

double Random::Uniform(double lo, double hi) {
  assert(lo <= hi);
  return std::uniform_real_distribution<double>(lo, hi)(gen_);
}

int64_t Random::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return std::uniform_int_distribution<int64_t>(lo, hi)(gen_);
}

bool Random::Bernoulli(double p) {
  assert(p >= 0.0 && p <= 1.0);
  return std::bernoulli_distribution(p)(gen_);
}

double Random::Laplace(double scale) {
  return LaplaceFromUniform(Uniform(), scale);
}

std::vector<double> Random::LaplaceVector(size_t n, double scale) {
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = Laplace(scale);
  return out;
}

double Random::Gaussian(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(gen_);
}

Random Random::Fork() {
  return Random(gen_());
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double KeyedLaplace(uint64_t key, uint64_t counter, double scale) {
  // The top 53 bits of the mixed word, scaled by 2^-53: every double in
  // [0, 1 - 2^-53] on the 2^-53 lattice, equally likely.
  const uint64_t bits = SplitMix64(key ^ SplitMix64(counter)) >> 11;
  return LaplaceFromUniform(static_cast<double>(bits) * 0x1.0p-53, scale);
}

Random Random::Fork(uint64_t stream_id) const {
  return Random(SplitMix64(seed_ ^ SplitMix64(stream_id)));
}

}  // namespace blowfish
