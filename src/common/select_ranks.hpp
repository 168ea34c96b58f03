// Three order statistics of one sample by selection instead of a sort.
//
// The report's latency percentiles and the SLO / attribution nearest-rank
// percentiles each need p50, p95 and p99 of one sample.  They differ only
// in how a quantile maps to an index, so the caller computes the indices
// and this helper places the values.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace rill {

/// Put at indices lo ≤ mid ≤ hi (hi < values.size()) the values a full
/// ascending sort would put there: std::nth_element selects hi over the
/// whole sample, then mid over the prefix below it (which holds exactly
/// the smaller ranks), then lo over the prefix below that.  Reorders
/// `values`.
template <typename T>
void select_ranks(std::vector<T>& values, std::size_t lo, std::size_t mid,
                  std::size_t hi) {
  const auto first = values.begin();
  const auto at = [&](std::size_t i) {
    return first + static_cast<std::ptrdiff_t>(i);
  };
  std::nth_element(first, at(hi), values.end());
  if (mid < hi) std::nth_element(first, at(mid), at(hi));
  if (lo < mid) std::nth_element(first, at(lo), at(mid));
}

}  // namespace rill
