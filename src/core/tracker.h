// AccessTracker: observed view-access frequencies for dynamic adaptation.
//
// Section 5: "the frequencies of access can be observed on-line, allowing
// the system to dynamically reconfigure." The tracker keeps exponentially
// decayed access weights per view element so the selection algorithms can
// be re-run against the live distribution.
//
// Decay is lazy: Record() only touches the accessed entry, stamping it
// with the current access generation; an entry's effective weight is
// scaled by decay^(generation gap) when it is read or re-touched. This
// keeps the query hot path O(1) per recorded access instead of the
// O(#distinct elements) eager sweep, with identical semantics (up to
// floating-point rounding of pow vs. repeated multiplication).
//
// Memory is bounded under decaying workloads: every kPruneInterval
// recorded accesses, entries whose decayed weight has fallen below
// kPruneEpsilon are erased (their contribution to the normalized
// distribution is below any drift threshold's resolution). A long tail
// of once-touched views therefore occupies O(survivors + interval)
// map slots instead of growing without bound. With decay == 1.0 weights
// never shrink, so nothing is ever pruned (plain counting keeps exact
// history by design).

#ifndef VECUBE_CORE_TRACKER_H_
#define VECUBE_CORE_TRACKER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/element_id.h"
#include "util/sync.h"

namespace vecube {

class AccessTracker {
 public:
  /// `decay` in (0, 1]: weight multiplier applied to all history per
  /// recorded access. 1.0 = plain counting.
  explicit AccessTracker(double decay = 1.0) : decay_(decay) {}

  /// Records one access to `id`.
  void Record(const ElementId& id);

  [[nodiscard]] uint64_t total_accesses() const { return total_; }

  /// Number of distinct ids currently holding a map slot. Bounded under
  /// decay < 1 by the amortized prune in Record().
  [[nodiscard]] size_t tracked_count() const { return weights_.size(); }

  /// Normalized frequency distribution over observed ids (sums to 1);
  /// empty if nothing recorded. Deterministically ordered by id.
  std::vector<std::pair<ElementId, double>> Distribution() const;

  /// L1 distance between this tracker's distribution and `reference`
  /// (a normalized id->frequency list). Ranges [0, 2]; the drift signal
  /// OlapSession compares with its drift_threshold to trigger
  /// reselection.
  double L1Drift(
      const std::vector<std::pair<ElementId, double>>& reference) const;

  void Reset();

  /// Decayed weights below this are treated as vanished and pruned.
  static constexpr double kPruneEpsilon = 1e-10;
  /// Recorded accesses between amortized prune sweeps.
  static constexpr uint64_t kPruneInterval = 512;

 private:
  struct Entry {
    double weight = 0.0;     ///< weight as of generation `touched`
    uint64_t touched = 0;    ///< generation of the last Record/rescale
  };

  /// `entry`'s weight decayed to the current generation.
  double DecayedWeight(const Entry& entry) const;

  /// Erases entries whose decayed weight is below kPruneEpsilon.
  void Prune();

  double decay_;
  uint64_t total_ = 0;
  uint64_t generation_ = 0;  ///< one tick per Record()
  std::unordered_map<ElementId, Entry, ElementIdHash> weights_;
};

/// Thread-safe write-behind front for AccessTracker, keeping tracker
/// bookkeeping off the serving hit path. Record() appends to a striped
/// (thread-hashed) buffer under a stripe-local mutex — uncontended in
/// the common case and never touching the shared tracker map — and the
/// stripe is applied to the tracker in one batch when it reaches
/// `batch_size` (or on Drain()).
///
/// Semantics: every recorded access is applied exactly once; none are
/// lost (Drain() flushes the tail). What buffering relaxes is global
/// interleaving order — with decay == 1.0 the drained tracker state is
/// IDENTICAL to eager recording (counting is order-independent); with
/// decay < 1.0 the decayed weights differ by at most the reordering
/// window of one batch, which is noise against the drift threshold.
///
/// Readers of the underlying tracker (Distribution, L1Drift,
/// total_accesses) must Drain() first and not race further Record()
/// calls — the tracker itself stays single-writer.
class BufferedAccessLog {
 public:
  static constexpr size_t kDefaultBatchSize = 256;

  /// `sink` must outlive the log. `batch_size` >= 1.
  explicit BufferedAccessLog(AccessTracker* sink,
                             size_t batch_size = kDefaultBatchSize);

  /// Buffers one access; applies the calling thread's stripe to the
  /// sink when it reaches the batch size. Thread-safe.
  void Record(const ElementId& id);

  /// Applies every buffered record to the sink. Thread-safe; records
  /// buffered by other threads are included.
  void Drain();

  /// Records currently buffered (snapshot; exact when quiescent).
  [[nodiscard]] size_t buffered() const;

 private:
  // Stripes are cache-line separated so concurrent recorders on
  // different stripes never false-share.
  struct alignas(64) Stripe {
    mutable Mutex mu;
    std::vector<ElementId> pending VECUBE_GUARDED_BY(mu);
  };
  static constexpr size_t kStripes = 16;

  Stripe& StripeForThisThread();
  void ApplyToSink(const std::vector<ElementId>& records)
      VECUBE_EXCLUDES(sink_mu_);

  AccessTracker* const sink_ VECUBE_PT_GUARDED_BY(sink_mu_);
  const size_t batch_size_;
  Mutex sink_mu_;  ///< serializes batch application to the sink
  std::array<Stripe, kStripes> stripes_;
};

}  // namespace vecube

#endif  // VECUBE_CORE_TRACKER_H_
