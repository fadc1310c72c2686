#include "mech/wavelet.h"

#include <utility>

namespace blowfish {

StatusOr<WaveletMechanism> WaveletMechanism::Release(const Histogram& data,
                                                     double epsilon,
                                                     Random& rng) {
  return Release(
      std::make_shared<const std::vector<double>>(data.CumulativeSums()),
      epsilon, rng);
}

StatusOr<WaveletMechanism> WaveletMechanism::Release(
    std::shared_ptr<const std::vector<double>> cumulative, double epsilon,
    Random& rng) {
  if (!(epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (cumulative->empty()) {
    return Status::InvalidArgument("empty histogram");
  }
  size_t padded = 1;
  size_t m = 0;  // tree height
  while (padded < cumulative->size()) {
    padded *= 2;
    ++m;
  }
  // A one-tuple move touches the root average (sensitivity 2/padded: both
  // the removal and the insertion shift it, worst case both in the same
  // direction is impossible — they cancel — but a conservative per-path
  // accounting charges each path independently) and one detail
  // coefficient per level on each of the two affected paths, with
  // per-coefficient sensitivity 2^-(m-l) at level l (level 0 = root
  // detail). Split eps uniformly across the 2(m+1) affected coefficient
  // slots; each coefficient then gets noise calibrated to its own
  // sensitivity.
  const double eps_per_slot = epsilon / (2.0 * static_cast<double>(m + 1));
  return WaveletMechanism(padded, m, eps_per_slot, rng.engine()(),
                          std::move(cumulative));
}

double WaveletMechanism::Prefix(size_t j) const {
  // The average: per-path change 1/padded.
  const double n0 = KeyedLaplace(
      key_, 0, (1.0 / static_cast<double>(padded_size_)) / eps_per_slot_);
  double noise = static_cast<double>(j + 1) * n0;
  for (size_t l = 0; l < height_; ++l) {
    const size_t width = padded_size_ >> l;  // buckets under a level-l node
    const size_t half = width / 2;
    const size_t t = j % width + 1;  // buckets of v(l, j) up to j
    if (t == width) continue;        // wholly covered: the detail cancels
    const double weight = static_cast<double>(t <= half ? t : width - t);
    const double sensitivity =
        1.0 / static_cast<double>(size_t{1} << (height_ - l));  // 2^-(m-l)
    const uint64_t node = (uint64_t{1} << l) + j / width;
    noise += weight * KeyedLaplace(key_, node, sensitivity / eps_per_slot_);
  }
  return (*cumulative_)[j] + noise;
}

StatusOr<double> WaveletMechanism::RangeQuery(size_t lo, size_t hi) const {
  if (lo > hi || hi >= domain_size()) {
    return Status::OutOfRange("range query out of bounds");
  }
  double upper = Prefix(hi);
  double lower = (lo == 0) ? 0.0 : Prefix(lo - 1);
  return upper - lower;
}

StatusOr<double> WaveletMechanism::CumulativeCount(size_t j) const {
  if (j >= domain_size()) {
    return Status::OutOfRange("cumulative index out of bounds");
  }
  return Prefix(j);
}

}  // namespace blowfish
