#include "scenario/result.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "scenario/store.hpp"  // json_escape
#include "util/assert.hpp"
#include "util/math.hpp"

namespace creditflow::scenario {

namespace {

using util::format_double;

std::string csv_quote(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void ResultSink::add(RunResult result) {
  fold_add(result);
  if (store_runs_) {
    // Run-index order is restored lazily (ensure_sorted) so runs_csv and
    // the batch reference never depend on completion order, while adds
    // stay O(1) even for interleaved shard merges.
    if (!runs_.empty() && result.run_index < runs_.back().run_index) {
      sorted_ = false;
    }
    runs_.push_back(std::move(result));
  }
  ++added_;
}

void ResultSink::add_all(std::vector<RunResult> results) {
  for (auto& r : results) add(std::move(r));
}

void ResultSink::set_expected_replications(std::size_t runs_per_point) {
  expected_replications_ = runs_per_point;
  // Points that were already complete when the expectation arrived
  // finalize now; late expectation-setting is otherwise equivalent.
  if (expected_replications_ > 0) {
    for (PointFold& fold : fold_) {
      if (fold.seen && !fold.finalized &&
          fold.pending.size() >= expected_replications_) {
        finalize_point(fold);
      }
    }
  }
}

void ResultSink::set_store_runs(bool enabled) {
  CF_EXPECTS_MSG(added_ == 0,
                 "set_store_runs must be chosen before the first add()");
  store_runs_ = enabled;
}

const std::vector<RunResult>& ResultSink::runs() const {
  CF_EXPECTS_MSG(store_runs_, "runs() requires run retention (store_runs)");
  ensure_sorted();
  return runs_;
}

void ResultSink::ensure_sorted() const {
  if (sorted_) return;
  std::stable_sort(runs_.begin(), runs_.end(),
                   [](const RunResult& a, const RunResult& b) {
                     return a.run_index < b.run_index;
                   });
  sorted_ = true;
}

void ResultSink::fold_add(const RunResult& result) {
  if (fold_.size() <= result.point_index) {
    fold_.resize(result.point_index + 1);
  }
  PointFold& fold = fold_[result.point_index];
  CF_EXPECTS_MSG(!fold.finalized,
                 "run arrived for a grid point that already received its "
                 "declared replication count");
  if (!fold.seen) {
    fold.seen = true;
    fold.params = result.params;  // identical across a point's runs
  }
  PendingRun pending;
  pending.run_index = result.run_index;
  pending.metrics = result.metrics;
  pending.error = result.error;
  fold.pending.push_back(std::move(pending));
  if (expected_replications_ > 0 &&
      fold.pending.size() == expected_replications_) {
    finalize_point(fold);
  }
}

ResultSink::FoldedStats ResultSink::fold_pending(
    const std::vector<PendingRun>& pending) {
  // Replications fold in run-index order, walked through a sorted pointer
  // view so the per-run data is never copied (stable for duplicates,
  // matching the batch scan's stable sort of the full run list —
  // `pending` is in insertion order, as runs_ is).
  std::vector<const PendingRun*> ordered;
  ordered.reserve(pending.size());
  for (const PendingRun& run : pending) ordered.push_back(&run);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const PendingRun* a, const PendingRun* b) {
                     return a->run_index < b->run_index;
                   });
  FoldedStats stats;
  for (const PendingRun* run : ordered) {
    if (!run->error.empty()) {
      ++stats.failures;
      stats.errors.push_back(run->error);
      continue;
    }
    ++stats.seeds;
    if (stats.metrics.empty()) {
      for (const auto& [name, value] : run->metrics) {
        MetricStat stat;
        stat.mean = value;  // temporarily the running sum
        stat.n = 1;
        stats.metrics.emplace_back(name, stat);
      }
      continue;
    }
    CF_EXPECTS_MSG(stats.metrics.size() == run->metrics.size(),
                   "runs of one grid point disagree on their metric set");
    for (std::size_t k = 0; k < run->metrics.size(); ++k) {
      stats.metrics[k].second.mean += run->metrics[k].second;
      ++stats.metrics[k].second.n;
    }
  }
  for (auto& [name, stat] : stats.metrics) {
    stat.mean /= static_cast<double>(stat.n);
  }
  if (stats.seeds >= 2) {
    for (std::size_t k = 0; k < stats.metrics.size(); ++k) {
      double sq = 0.0;
      for (const PendingRun* run : ordered) {
        if (!run->error.empty()) continue;
        const double d =
            run->metrics[k].second - stats.metrics[k].second.mean;
        sq += d * d;
      }
      MetricStat& stat = stats.metrics[k].second;
      stat.stddev = std::sqrt(sq / static_cast<double>(stat.n - 1));
      stat.ci95 = 1.96 * stat.stddev / std::sqrt(static_cast<double>(stat.n));
    }
  }
  return stats;
}

void ResultSink::finalize_point(PointFold& point) {
  point.stats = fold_pending(point.pending);
  point.finalized = true;
  point.pending.clear();
  point.pending.shrink_to_fit();
}

std::vector<AggregateRow> ResultSink::aggregate() const {
  std::vector<AggregateRow> rows;
  for (std::size_t p = 0; p < fold_.size(); ++p) {
    const PointFold& fold = fold_[p];
    if (!fold.seen) continue;
    // Open points fold on demand (no mutation, so later adds stay
    // possible); complete points render their stored stats.
    FoldedStats on_demand;
    if (!fold.finalized) on_demand = fold_pending(fold.pending);
    const FoldedStats& stats = fold.finalized ? fold.stats : on_demand;
    AggregateRow row;
    row.point_index = p;
    row.params = fold.params;
    row.seeds = stats.seeds;
    row.failures = stats.failures;
    row.metrics = stats.metrics;
    row.errors = stats.errors;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string ResultSink::runs_csv() const {
  CF_EXPECTS_MSG(store_runs_,
                 "runs_csv() requires run retention (store_runs)");
  ensure_sorted();
  // Metric columns come from the first successful run (errored runs carry
  // no metrics and are padded to the same width).
  const RunResult* proto = nullptr;
  for (const RunResult& run : runs_) {
    if (run.error.empty()) {
      proto = &run;
      break;
    }
  }
  const std::size_t metric_cols = proto ? proto->metrics.size() : 0;

  std::ostringstream out;
  out << "run_index,point_index,seed_index,seed";
  if (!runs_.empty()) {
    for (const auto& [name, value] : runs_.front().params) {
      out << ',' << csv_quote(name);
    }
    if (proto) {
      for (const auto& [name, value] : proto->metrics) {
        out << ',' << csv_quote(name);
      }
    }
    out << ",error,rounds";
    if (timing_columns_) {
      out << ",wall_seconds,purchase_phase_seconds,seed_phase_seconds"
             ",tax_phase_seconds,peak_rss_bytes";
    }
  }
  out << '\n';
  for (const RunResult& run : runs_) {
    out << run.run_index << ',' << run.point_index << ',' << run.seed_index
        << ',' << run.seed;
    for (const auto& [name, value] : run.params) {
      out << ',' << format_double(value);
    }
    if (run.error.empty()) {
      for (const auto& [name, value] : run.metrics) {
        out << ',' << format_double(value);
      }
      out << ',';
    } else {
      for (std::size_t k = 0; k < metric_cols; ++k) out << ',';
      out << ',' << csv_quote(run.error);
    }
    out << ',' << run.telemetry.rounds;
    if (timing_columns_) {
      out << ',' << format_double(run.telemetry.wall_seconds) << ','
          << format_double(run.telemetry.purchase_phase_seconds) << ','
          << format_double(run.telemetry.seed_phase_seconds) << ','
          << format_double(run.telemetry.tax_phase_seconds) << ','
          << run.telemetry.peak_rss_bytes;
    }
    out << '\n';
  }
  return out.str();
}

std::string ResultSink::aggregate_csv() const {
  const auto rows = aggregate();
  // Metric columns come from the first row that has any successful runs
  // (an all-failed grid point carries no metrics and is padded instead).
  const AggregateRow* proto = nullptr;
  for (const AggregateRow& row : rows) {
    if (!row.metrics.empty()) {
      proto = &row;
      break;
    }
  }

  std::ostringstream out;
  out << "point_index";
  if (!rows.empty()) {
    for (const auto& [name, value] : rows.front().params) {
      out << ',' << csv_quote(name);
    }
    out << ",seeds,failures";
    if (proto) {
      for (const auto& [name, stat] : proto->metrics) {
        out << ',' << csv_quote(name) << "_mean," << csv_quote(name)
            << "_sd," << csv_quote(name) << "_ci95";
      }
    }
  }
  out << '\n';
  for (const AggregateRow& row : rows) {
    out << row.point_index;
    for (const auto& [name, value] : row.params) {
      out << ',' << format_double(value);
    }
    out << ',' << row.seeds << ',' << row.failures;
    if (row.metrics.empty()) {
      const std::size_t cols = proto ? proto->metrics.size() * 3 : 0;
      for (std::size_t k = 0; k < cols; ++k) out << ',';
    } else {
      for (const auto& [name, stat] : row.metrics) {
        out << ',' << format_double(stat.mean) << ','
            << format_double(stat.stddev) << ',' << format_double(stat.ci95);
      }
    }
    out << '\n';
  }
  return out.str();
}

std::string ResultSink::aggregate_json() const {
  const auto rows = aggregate();
  std::ostringstream out;
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AggregateRow& row = rows[i];
    out << "  {\"point_index\": " << row.point_index << ", \"params\": {";
    for (std::size_t k = 0; k < row.params.size(); ++k) {
      if (k > 0) out << ", ";
      out << '"' << row.params[k].first
          << "\": " << format_double(row.params[k].second);
    }
    out << "}, \"seeds\": " << row.seeds
        << ", \"failures\": " << row.failures << ", \"errors\": [";
    for (std::size_t k = 0; k < row.errors.size(); ++k) {
      if (k > 0) out << ", ";
      out << '"' << json_escape(row.errors[k]) << '"';
    }
    out << "], \"metrics\": {";
    for (std::size_t k = 0; k < row.metrics.size(); ++k) {
      const auto& [name, stat] = row.metrics[k];
      if (k > 0) out << ", ";
      // NaN (e.g. a windowed metric with no rate window) → JSON null.
      const auto number = [](double v) {
        const std::string s = format_double(v);
        return s == "nan" ? std::string("null") : s;
      };
      out << '"' << name << "\": {\"mean\": " << number(stat.mean)
          << ", \"sd\": " << number(stat.stddev)
          << ", \"ci95\": " << number(stat.ci95) << '}';
    }
    out << "}}" << (i + 1 < rows.size() ? "," : "") << '\n';
  }
  out << "]\n";
  return out.str();
}

util::ConsoleTable ResultSink::aggregate_table(
    const std::string& title,
    std::span<const std::string> metric_names) const {
  const auto rows = aggregate();
  util::ConsoleTable table(title);
  std::vector<std::string> header;
  if (!rows.empty()) {
    for (const auto& [name, value] : rows.front().params) {
      header.push_back(name);
    }
  }
  header.emplace_back("seeds");
  for (const auto& name : metric_names) header.push_back(name);
  table.set_header(std::move(header));

  for (const AggregateRow& row : rows) {
    std::vector<util::Cell> cells;
    for (const auto& [name, value] : row.params) cells.emplace_back(value);
    cells.emplace_back(static_cast<std::int64_t>(row.seeds));
    for (const auto& wanted : metric_names) {
      // A grid point whose runs all failed has no metrics at all — render
      // it as "failed" rather than rejecting the whole table.
      if (row.metrics.empty()) {
        cells.emplace_back(std::string("failed"));
        continue;
      }
      const auto it = std::find_if(
          row.metrics.begin(), row.metrics.end(),
          [&](const auto& entry) { return entry.first == wanted; });
      CF_EXPECTS_MSG(it != row.metrics.end(),
                     "unknown metric in aggregate_table: " + wanted);
      if (row.seeds > 1) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.4f ±%.4f", it->second.mean,
                      it->second.ci95);
        cells.emplace_back(std::string(buf));
      } else {
        cells.emplace_back(it->second.mean);
      }
    }
    table.add_row(std::move(cells));
  }
  return table;
}

}  // namespace creditflow::scenario
