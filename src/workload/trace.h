// Query traces: timestamped streams of view accesses with phase shifts.
//
// The dynamic reconfiguration machinery (Section 5's "observed on-line"
// mode) is exercised by traces whose underlying distribution changes over
// time. A trace is a sequence of phases, each drawing from its own
// QueryPopulation for a given number of queries; the replayer drives any
// callback (typically OlapSession::Element on a session that adapts
// online) and aggregates per-phase statistics.

#ifndef VECUBE_WORKLOAD_TRACE_H_
#define VECUBE_WORKLOAD_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/element_id.h"
#include "util/result.h"
#include "util/rng.h"
#include "workload/population.h"

namespace vecube {

/// One phase of a trace.
struct TracePhase {
  std::string name;
  QueryPopulation population;
  uint64_t num_queries = 0;
};

/// A multi-phase query trace.
class QueryTrace {
 public:
  /// Phases must be non-empty with positive lengths.
  static Result<QueryTrace> Make(std::vector<TracePhase> phases);

  [[nodiscard]] const std::vector<TracePhase>& phases() const { return phases_; }
  [[nodiscard]] uint64_t total_queries() const { return total_; }

  /// Materializes the full query sequence (deterministic per seed).
  std::vector<ElementId> Generate(Rng* rng) const;

 private:
  std::vector<TracePhase> phases_;
  uint64_t total_ = 0;
};

/// Result of replaying one phase.
struct PhaseReport {
  std::string name;
  uint64_t queries = 0;
  uint64_t total_ops = 0;
  double avg_ops_per_query = 0.0;
};

/// Replays a trace against `serve`, which answers one query and returns
/// the operation count (or an error status, which aborts the replay).
/// Returns one report per phase.
Result<std::vector<PhaseReport>> ReplayTrace(
    const QueryTrace& trace, Rng* rng,
    const std::function<Result<uint64_t>(const ElementId&)>& serve);

}  // namespace vecube

#endif  // VECUBE_WORKLOAD_TRACE_H_
