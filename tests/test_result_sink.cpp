// Streaming-aggregation regression tests: the ResultSink's incremental
// fold must reproduce the batch re-scan of the sorted run list bit for bit
// — including under interleaved shard-merge arrival order, declared
// replication counts (eager per-point finalization), and metrics-only mode
// with raw-run retention disabled.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "scenario/scenario.hpp"

namespace creditflow::scenario {
namespace {

/// A market small enough that a full grid runs in well under a second.
ScenarioSpec tiny_base() {
  ScenarioSpec spec;
  spec.name = "tiny";
  spec.config.protocol.initial_peers = 40;
  spec.config.protocol.max_peers = 40;
  spec.config.protocol.initial_credits = 30;
  spec.config.protocol.seed = 2012;
  spec.config.horizon = 60.0;
  spec.config.snapshot_interval = 15.0;
  return spec;
}

SweepSpec tiny_sweep() {
  SweepSpec sweep;
  sweep.axes.push_back(SweepAxis::parse("credits=20,40"));
  sweep.axes.push_back(SweepAxis::parse("tax.rate=0,0.2"));
  sweep.seeds = 3;
  return sweep;
}

std::vector<RunResult> tiny_results() {
  SweepRunner::Options options;
  options.jobs = 2;
  SweepRunner runner(tiny_base(), tiny_sweep(), options);
  return runner.run();
}

void expect_rows_bitwise_equal(const std::vector<AggregateRow>& a,
                               const std::vector<AggregateRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].point_index, b[i].point_index);
    EXPECT_EQ(a[i].params, b[i].params);
    EXPECT_EQ(a[i].seeds, b[i].seeds);
    EXPECT_EQ(a[i].failures, b[i].failures);
    EXPECT_EQ(a[i].errors, b[i].errors);
    ASSERT_EQ(a[i].metrics.size(), b[i].metrics.size());
    for (std::size_t k = 0; k < a[i].metrics.size(); ++k) {
      SCOPED_TRACE(a[i].metrics[k].first);
      EXPECT_EQ(a[i].metrics[k].first, b[i].metrics[k].first);
      const MetricStat& sa = a[i].metrics[k].second;
      const MetricStat& sb = b[i].metrics[k].second;
      EXPECT_EQ(sa.n, sb.n);
      // Bit-for-bit: NaN compares equal to NaN, every finite value must
      // match exactly, not approximately.
      const auto same_bits = [](double x, double y) {
        return (std::isnan(x) && std::isnan(y)) || x == y;
      };
      EXPECT_TRUE(same_bits(sa.mean, sb.mean)) << sa.mean << " vs " << sb.mean;
      EXPECT_TRUE(same_bits(sa.stddev, sb.stddev));
      EXPECT_TRUE(same_bits(sa.ci95, sb.ci95));
    }
  }
}

/// The oracle: the batch aggregation, re-derived by scanning the sink's
/// retained runs in run-index order. The streaming fold must equal it bit
/// for bit.
std::vector<AggregateRow> aggregate_from_runs(const ResultSink& sink) {
  const std::vector<RunResult>& runs = sink.runs();
  std::vector<AggregateRow> rows;
  for (const RunResult& run : runs) {
    if (rows.empty() || rows.back().point_index != run.point_index) {
      AggregateRow row;
      row.point_index = run.point_index;
      row.params = run.params;
      rows.push_back(std::move(row));
    }
    AggregateRow& row = rows.back();
    if (!run.error.empty()) {
      ++row.failures;
      row.errors.push_back(run.error);
      continue;
    }
    ++row.seeds;
    if (row.metrics.empty()) {
      for (const auto& [name, value] : run.metrics) {
        MetricStat stat;
        stat.mean = value;  // temporarily the running sum
        stat.n = 1;
        row.metrics.emplace_back(name, stat);
      }
      continue;
    }
    if (row.metrics.size() != run.metrics.size()) {
      ADD_FAILURE() << "runs of one grid point disagree on their metric set";
      return {};
    }
    for (std::size_t k = 0; k < run.metrics.size(); ++k) {
      row.metrics[k].second.mean += run.metrics[k].second;
      ++row.metrics[k].second.n;
    }
  }

  // Finalize: sums → means, then a second pass for the spread. Runs are
  // kept sorted by run_index, so each row's runs occupy one contiguous
  // slice of runs — the spread pass walks them exactly once overall.
  for (AggregateRow& row : rows) {
    for (auto& [name, stat] : row.metrics) {
      stat.mean /= static_cast<double>(stat.n);
    }
  }
  std::size_t cursor = 0;
  for (AggregateRow& row : rows) {
    const std::size_t begin = cursor;
    while (cursor < runs.size() &&
           runs[cursor].point_index == row.point_index) {
      ++cursor;
    }
    if (row.seeds < 2) continue;
    for (std::size_t k = 0; k < row.metrics.size(); ++k) {
      double sq = 0.0;
      for (std::size_t i = begin; i < cursor; ++i) {
        if (!runs[i].error.empty()) continue;
        const double d =
            runs[i].metrics[k].second - row.metrics[k].second.mean;
        sq += d * d;
      }
      MetricStat& stat = row.metrics[k].second;
      stat.stddev = std::sqrt(sq / static_cast<double>(stat.n - 1));
      stat.ci95 = 1.96 * stat.stddev / std::sqrt(static_cast<double>(stat.n));
    }
  }
  return rows;
}

TEST(ResultSinkStreaming, FoldEqualsBatchOnMultiSeedSweep) {
  const auto results = tiny_results();
  ResultSink sink;
  sink.add_all(results);
  expect_rows_bitwise_equal(sink.aggregate(), aggregate_from_runs(sink));
}

TEST(ResultSinkStreaming, InterleavedShardMergeOrderFoldsIdentically) {
  // Feed one sink in run order and one in the order a 3-shard merge
  // delivers (strided, shard by shard) — the fold must erase the arrival
  // order entirely, down to the rendered bytes.
  const auto results = tiny_results();
  ResultSink in_order;
  in_order.add_all(results);

  ResultSink interleaved;
  const std::size_t shards = 3;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    for (std::size_t i = shard; i < results.size(); i += shards) {
      interleaved.add(results[i]);
    }
  }

  expect_rows_bitwise_equal(interleaved.aggregate(),
                            aggregate_from_runs(in_order));
  EXPECT_EQ(interleaved.aggregate_csv(), in_order.aggregate_csv());
  EXPECT_EQ(interleaved.aggregate_json(), in_order.aggregate_json());
  EXPECT_EQ(interleaved.runs_csv(), in_order.runs_csv());
}

TEST(ResultSinkStreaming, ExpectedReplicationsFinalizeEagerly) {
  // With the replication count declared, points fold down (and render)
  // identically whether declared before the adds, after them, or never.
  const auto results = tiny_results();
  ResultSink declared;
  declared.set_expected_replications(3);
  declared.add_all(results);

  ResultSink declared_late;
  declared_late.add_all(results);
  declared_late.set_expected_replications(3);

  ResultSink undeclared;
  undeclared.add_all(results);

  EXPECT_EQ(declared.aggregate_csv(), undeclared.aggregate_csv());
  EXPECT_EQ(declared_late.aggregate_csv(), undeclared.aggregate_csv());
  expect_rows_bitwise_equal(declared.aggregate(),
                            aggregate_from_runs(undeclared));
}

TEST(ResultSinkStreaming, MetricsOnlyModeDropsRunsButAggregatesIdentically) {
  const auto results = tiny_results();
  ResultSink reference;
  reference.add_all(results);

  ResultSink folded;
  folded.set_store_runs(false);
  folded.set_expected_replications(3);
  folded.add_all(results);

  EXPECT_EQ(folded.size(), results.size());
  EXPECT_EQ(folded.aggregate_csv(), reference.aggregate_csv());
  EXPECT_EQ(folded.aggregate_json(), reference.aggregate_json());
  EXPECT_THROW((void)folded.runs_csv(), util::PreconditionError);
  EXPECT_THROW((void)folded.runs(), util::PreconditionError);
}

TEST(ResultSinkStreaming, FailedRunsFoldLikeBatch) {
  // Synthetic mix of failures and successes across two points, added in
  // reverse order: failure counts, error strings, and stats must all land
  // exactly where the batch scan puts them.
  std::vector<RunResult> results;
  for (std::size_t i = 0; i < 6; ++i) {
    RunResult r;
    r.run_index = i;
    r.point_index = i / 3;
    r.seed_index = i % 3;
    r.params = {{"x", static_cast<double>(i / 3)}};
    if (i % 3 == 1) {
      r.error = "boom " + std::to_string(i);
    } else {
      r.metrics = {{"m", static_cast<double>(i) * 1.5}};
    }
    results.push_back(std::move(r));
  }
  ResultSink sink;
  for (auto it = results.rbegin(); it != results.rend(); ++it) {
    sink.add(*it);
  }
  const auto rows = sink.aggregate();
  expect_rows_bitwise_equal(rows, aggregate_from_runs(sink));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].seeds, 2u);
  EXPECT_EQ(rows[0].failures, 1u);
  ASSERT_EQ(rows[0].errors.size(), 1u);
  EXPECT_EQ(rows[0].errors[0], "boom 1");
  EXPECT_EQ(rows[1].errors[0], "boom 4");
}

TEST(ResultSinkStreaming, OverfullPointWithDeclaredReplicationsThrows) {
  ResultSink sink;
  sink.set_expected_replications(1);
  RunResult r;
  r.run_index = 0;
  r.point_index = 0;
  r.metrics = {{"m", 1.0}};
  sink.add(r);
  RunResult extra = r;
  extra.run_index = 1;
  EXPECT_THROW(sink.add(extra), util::PreconditionError);
}

}  // namespace
}  // namespace creditflow::scenario
