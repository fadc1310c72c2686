// Haar-wavelet range-query mechanism (Privelet-style, Xiao et al. [19]) —
// an additional differentially-private baseline for the Sec 7 workloads.
//
// The histogram is padded to a power of two N = 2^m and decomposed into
// the unnormalized Haar basis: a root average plus one detail coefficient
// per internal node, d_v = (avg(left half of v) - avg(right half)) / 2,
// numbered breadth-first (the average is coefficient 0, the level-l
// details are 2^l .. 2^(l+1) - 1). Moving one tuple changes the root
// average by 1/N and each detail coefficient on the two affected
// root-to-leaf paths by 2^-(m-l) at level l, so splitting the budget
// uniformly across the 2(m+1) affected coefficients and calibrating each
// coefficient's noise to its own sensitivity yields eps-DP. Range queries
// touch O(m) coefficients and have O(m^3 / eps^2) expected squared error
// — asymptotically matching the hierarchical mechanism with different
// constants.
//
// Noise is drawn per coefficient on read, as in mech/quadtree.h. The
// exact coefficients are linear in the data, so the reconstructed noisy
// prefix is the exact prefix plus the reconstructed noise:
//
//   C(j) = S_T[j] + (j + 1) n_0 + sum_l w_l(j) n_{v(l, j)},
//
// where v(l, j) is the level-l node containing bucket j and, with
// half-width w = N / 2^(l+1) and t = j - start(v) + 1 buckets of v up to
// j, w_l(j) = t when t <= w and 2w - t otherwise (a detail adds on its
// left half and subtracts on its right half; the nodes wholly left of j
// cancel). A coefficient's noise n_v = KeyedLaplace(key, v, scale_v) is
// computed when a prefix reads it, from one 64-bit key per release taken
// from the caller's Random; a node wholly covered by the prefix has
// weight 0 and is never drawn. Every coefficient still carries its own
// independent draw, fixed by the key, so the released distribution is
// that of noising all N coefficients up front, and a range query costs
// O(m) draws instead of O(N).
//
// Like the hierarchical mechanism, this is the *full-domain-secrets*
// baseline: Blowfish policies do not change its calibration, but it is
// the natural comparison point for the Ordered Mechanism family.

#ifndef BLOWFISH_MECH_WAVELET_H_
#define BLOWFISH_MECH_WAVELET_H_

#include <memory>
#include <vector>

#include "util/histogram.h"
#include "util/random.h"
#include "util/status.h"

namespace blowfish {

/// A released wavelet summary supporting range queries.
class WaveletMechanism {
 public:
  /// Releases a noisy Haar decomposition of `data` with eps-differential
  /// privacy (pads the domain to the next power of two internally).
  static StatusOr<WaveletMechanism> Release(const Histogram& data,
                                            double epsilon, Random& rng);

  /// The same release over the exact prefix sums S_T of the data (the
  /// memo the engine keeps), which the release shares instead of
  /// copying.
  static StatusOr<WaveletMechanism> Release(
      std::shared_ptr<const std::vector<double>> cumulative, double epsilon,
      Random& rng);

  /// Noisy range count over buckets [lo, hi] inclusive (original,
  /// unpadded indices).
  StatusOr<double> RangeQuery(size_t lo, size_t hi) const;

  /// Noisy cumulative count q[0, j].
  StatusOr<double> CumulativeCount(size_t j) const;

  size_t domain_size() const { return cumulative_->size(); }
  size_t padded_size() const { return padded_size_; }
  size_t height() const { return height_; }

 private:
  WaveletMechanism(size_t padded_size, size_t height, double eps_per_slot,
                   uint64_t key,
                   std::shared_ptr<const std::vector<double>> cumulative)
      : padded_size_(padded_size), height_(height),
        eps_per_slot_(eps_per_slot), key_(key),
        cumulative_(std::move(cumulative)) {}

  /// C(j), the released prefix through bucket j.
  double Prefix(size_t j) const;

  size_t padded_size_;   // N = 2^m
  size_t height_;        // m
  double eps_per_slot_;  // eps / (2 (m + 1))
  uint64_t key_;         // keys the per-coefficient noise draws
  std::shared_ptr<const std::vector<double>> cumulative_;  // exact S_T
};

}  // namespace blowfish

#endif  // BLOWFISH_MECH_WAVELET_H_
