// Options shared by every exploration-backed analysis.
//
// The structural, joint-FP, and sensitivity analyses (and everything
// layered on them: fixed-priority, Audsley, dimensioning, the svc
// request API) all bottom out in the dominance-pruned path exploration
// of graph/explore, so they share the same three resource/cancellation
// knobs.  CommonOptions is the single definition those option structs
// inherit; svc::AnalysisRequest carries exactly one CommonOptions block
// regardless of the requested analysis kind.
#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/explore.hpp"

namespace strt {

struct CommonOptions {
  /// State cap forwarded to the explorer.  A capped run returns with
  /// stats.aborted set and bounds that cover the explored prefix only.
  std::size_t max_states = 50'000'000;
  /// Progress hook forwarded to the explorer (see ExploreOptions): invoked
  /// every `progress_every` expanded states; return false to cancel.  A
  /// cancelled run returns with stats.aborted set and bounds that are only
  /// lower bounds (the explored prefix's worst case).
  std::uint64_t progress_every = 0;
  ExploreProgressFn on_progress{};

  /// The shared block by itself (slicing helper: copy one analysis'
  /// common knobs into another's options, e.g. request -> inner
  /// structural probes).
  [[nodiscard]] const CommonOptions& common() const { return *this; }
  CommonOptions& common() { return *this; }
};

}  // namespace strt
