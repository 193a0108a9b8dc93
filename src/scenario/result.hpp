// CreditFlow scenario engine: ResultSink — aggregation of sweep runs into
// per-grid-point statistics and their CSV/JSON/console renderings.
//
// Runs are grouped by grid point; each metric aggregates across the seed
// replications into mean ± stddev ± 95% CI. The sink folds every run into
// per-point state incrementally as it arrives (streaming aggregation), so
// renderings read from the folded state instead of re-scanning the full run
// list — and with set_expected_replications() a grid point's per-run values
// are released the moment its last run lands, making aggregate memory
// O(grid points), not O(runs). The fold performs the *identical* arithmetic,
// in the identical run-index order, as a batch re-scan of the sorted run
// list (that re-scan lives in tests/test_result_sink.cpp, as the oracle the
// fold is checked against), so the emitted bytes are the same regardless of
// completion order, worker count, or shard-merge interleaving.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "util/table.hpp"

namespace creditflow::scenario {

/// Mean ± spread of one metric across a grid point's replications.
struct MetricStat {
  double mean = 0.0;
  double stddev = 0.0;  ///< sample stddev (n-1); 0 for a single replication
  double ci95 = 0.0;    ///< 1.96 * stddev / sqrt(n)
  std::size_t n = 0;
};

/// One aggregated grid point.
struct AggregateRow {
  std::size_t point_index = 0;
  std::vector<std::pair<std::string, double>> params;
  std::size_t seeds = 0;     ///< successful runs aggregated
  std::size_t failures = 0;  ///< runs that errored (excluded from stats)
  std::vector<std::pair<std::string, MetricStat>> metrics;
  /// Error messages of the failed runs, in run order (one per failure) —
  /// surfaced so a failed grid point explains itself instead of just
  /// counting.
  std::vector<std::string> errors;
};

/// Collects RunResults, folds them incrementally, and renders aggregates.
class ResultSink {
 public:
  void add(RunResult result);
  void add_all(std::vector<RunResult> results);

  /// Runs added so far (including errored ones).
  [[nodiscard]] std::size_t size() const { return added_; }
  /// The collected runs, in run-index order (re-sorted lazily on read, so
  /// interleaved shard merges cost one O(n log n) sort, not per-add work).
  /// Requires run retention (see set_store_runs).
  [[nodiscard]] const std::vector<RunResult>& runs() const;

  /// Include wall-clock telemetry columns (wall_seconds,
  /// purchase_phase_seconds, peak_rss_bytes) in runs_csv(). Off by default:
  /// timing is machine-dependent, and the default emission stays
  /// byte-reproducible across reruns, worker counts, and shard merges.
  void set_timing_columns(bool enabled) { timing_columns_ = enabled; }

  /// Declare how many runs every grid point will receive (the sweep's
  /// seeds). Lets the fold finalize a point — and release its per-run
  /// buffer — as soon as the last replication arrives, bounding fold memory
  /// by the number of *in-flight* points instead of the number of runs.
  /// Adding a run to an already-complete point is then a precondition
  /// violation. 0 (the default) keeps every point open.
  void set_expected_replications(std::size_t runs_per_point);

  /// Retain (default) or drop raw RunResults. Dropping them disables
  /// runs()/runs_csv() but shrinks a metrics-only
  /// sweep's footprint to the fold state alone — with expected
  /// replications set, O(grid points) for a 10^6-run grid. Must be chosen
  /// before the first add().
  void set_store_runs(bool enabled);

  /// Per-grid-point aggregation, ordered by point index — rendered from
  /// the incremental fold.
  [[nodiscard]] std::vector<AggregateRow> aggregate() const;

  /// Raw per-run CSV: run metadata + axis values + every metric + rounds
  /// (and, with set_timing_columns(true), per-run wall-time/RSS telemetry).
  /// Requires run retention.
  [[nodiscard]] std::string runs_csv() const;
  /// Aggregated CSV: axis values + seeds + {metric}_mean/_sd/_ci95 columns.
  [[nodiscard]] std::string aggregate_csv() const;
  /// Aggregated JSON array (objects mirror AggregateRow).
  [[nodiscard]] std::string aggregate_json() const;
  /// Console table of selected metrics ("mean ± ci95" cells).
  [[nodiscard]] util::ConsoleTable aggregate_table(
      const std::string& title,
      std::span<const std::string> metric_names) const;

 private:
  /// Per-run state a point holds until it finalizes: exactly what the
  /// batch scan would have read back out of the retained run.
  struct PendingRun {
    std::size_t run_index = 0;
    std::vector<std::pair<std::string, double>> metrics;
    std::string error;
  };
  /// Statistics of one point's replications; what finalize stores and what
  /// a row renders.
  struct FoldedStats {
    std::size_t seeds = 0;
    std::size_t failures = 0;
    std::vector<std::string> errors;
    std::vector<std::pair<std::string, MetricStat>> metrics;
  };
  /// Fold state of one grid point. `pending` buffers replications until the
  /// point completes; finalize_point() then collapses them into `stats` and
  /// releases the buffer. Open points (no declared replication count, or a
  /// shard that owns only part of the point) keep `pending` and fold it on
  /// demand at render time — through a sorted pointer view, never a copy.
  struct PointFold {
    bool seen = false;
    bool finalized = false;
    std::vector<std::pair<std::string, double>> params;
    std::vector<PendingRun> pending;
    FoldedStats stats;
  };

  void fold_add(const RunResult& result);
  /// Collapse `pending` into stats with the batch algorithm: walk a
  /// run-index-sorted view (no copies of the per-run data), sum means in
  /// that order, then a second deviation pass in the same order — the
  /// operation sequence of a batch re-scan of the sorted runs, hence
  /// bit-identical results.
  [[nodiscard]] static FoldedStats fold_pending(
      const std::vector<PendingRun>& pending);
  /// fold_pending + release the per-run buffer (complete points only).
  static void finalize_point(PointFold& point);
  void ensure_sorted() const;

  std::vector<PointFold> fold_;  ///< indexed by point_index
  std::size_t expected_replications_ = 0;  ///< 0 = unknown
  std::size_t added_ = 0;

  // Retained raw runs (store_runs_ mode). Mutable so the const renderings
  // can restore run-index order lazily; logically the sink always *is*
  // sorted, the flag just defers the work.
  mutable std::vector<RunResult> runs_;
  mutable bool sorted_ = true;
  bool store_runs_ = true;
  bool timing_columns_ = false;
};

}  // namespace creditflow::scenario
