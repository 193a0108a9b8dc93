// Golden byte-equality regression tests: the refactored allocation-free
// simulation core must reproduce the pre-refactor engine's sweep output
// byte for byte. Each test runs a small sweep in-process and pins the
// FNV-1a hash of the rendered bytes against constants captured from the
// engine before the zero-alloc round loop, span-based active-peer
// iteration, and streaming aggregation landed.
//
// These hashes are deliberately brittle: ANY change to simulation
// arithmetic, RNG consumption order, active-peer iteration order, metric
// emission, or number formatting trips them. A failure is not noise — it
// means previously published sweep outputs are no longer reproducible. If
// the change is intentional (a new metric column, a protocol behavior fix),
// re-capture the constants and say so loudly in the PR.
//
// Hash stability across build types was verified at capture time: -O0 and
// -O2 GCC builds produce identical bytes (x86-64 SSE2 double arithmetic,
// no FMA contraction), so one set of constants serves Debug and Release CI.
#include <gtest/gtest.h>

#include "scenario/scenario.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace creditflow::scenario {
namespace {

ResultSink run_sweep(const char* preset, double horizon, SweepSpec sweep) {
  const ScenarioSpec* base = ScenarioRegistry::builtin().find(preset);
  if (base == nullptr) ADD_FAILURE() << "missing preset " << preset;
  ScenarioSpec spec = *base;
  spec.set("horizon", horizon);
  spec.set("snapshot_interval", horizon / 4.0);
  SweepRunner::Options options;
  options.jobs = 1;
  options.keep_reports = false;
  SweepRunner runner(spec, std::move(sweep), options);
  ResultSink sink;
  sink.add_all(runner.run());
  return sink;
}

void expect_hashes(const ResultSink& sink, std::uint64_t aggregate_csv,
                   std::uint64_t aggregate_json, std::uint64_t runs_csv) {
  EXPECT_EQ(util::fnv1a64(sink.aggregate_csv()), aggregate_csv);
  EXPECT_EQ(util::fnv1a64(sink.aggregate_json()), aggregate_json);
  EXPECT_EQ(util::fnv1a64(sink.runs_csv()), runs_csv);
}

TEST(GoldenOutputs, Fig11ChurnSweepMatchesPreRefactorEngine) {
  // The churn-heavy case: exercises join/leave on the dense active-peer
  // array, the free-slot scan, span-based seeding/taxation/snapshot walks,
  // and the recycled event-queue slots — every path the refactor touched.
  SweepSpec sweep;
  sweep.axes.push_back(SweepAxis::parse("churn.arrival_rate=1,2"));
  sweep.axes.push_back(SweepAxis::parse("churn.mean_lifespan=100,200"));
  sweep.seeds = 2;
  const ResultSink sink = run_sweep("fig11_churn", 400.0, std::move(sweep));
  expect_hashes(sink, 0xbd9622db89f1920bULL, 0x1d7620dbf7cda782ULL,
                0xc27d93ece3617262ULL);
}

TEST(GoldenOutputs, Fig11ChurnSweepIdenticalWithTracingEnabled) {
  // Observability must be a pure readout: with the span tracer live (and
  // the purchase-latency histogram it gates), the same sweep must land the
  // same pinned hashes byte for byte — tracing consumes no RNG and changes
  // no emitted bytes.
  util::Tracer::instance().enable();
  SweepSpec sweep;
  sweep.axes.push_back(SweepAxis::parse("churn.arrival_rate=1,2"));
  sweep.axes.push_back(SweepAxis::parse("churn.mean_lifespan=100,200"));
  sweep.seeds = 2;
  const ResultSink sink = run_sweep("fig11_churn", 400.0, std::move(sweep));
  EXPECT_GT(util::Tracer::instance().snapshot().size(), 0u)
      << "tracing was supposed to be live during the sweep";
  util::Tracer::instance().disable();
  util::Tracer::instance().clear();
  expect_hashes(sink, 0xbd9622db89f1920bULL, 0x1d7620dbf7cda782ULL,
                0xc27d93ece3617262ULL);
}

TEST(GoldenOutputs, Fig09TaxationSweepMatchesPreRefactorEngine) {
  // The closed-market taxation case: redistribution iterates the active
  // span and the cached tax.redistributions counter cell.
  SweepSpec sweep;
  sweep.axes.push_back(SweepAxis::parse("tax.rate=0.1,0.2"));
  sweep.seeds = 2;
  const ResultSink sink =
      run_sweep("fig09_taxation", 400.0, std::move(sweep));
  expect_hashes(sink, 0x358101665fc3a5f4ULL, 0x2bdb17bb58addb64ULL,
                0x5a2827253bad8536ULL);
}

// The order-book and strategy presets, pinned on small grids before the
// book crossing moved onto the owner index: book posting, all three
// crossing strategies (best-ask, fill-weighted, resting-limit bids),
// adaptive and fixed-markup asks, a half-seller pool, churn, whitewashers
// and staked seeders. Each kernel change must land these bytes unchanged.

TEST(GoldenOutputs, Obk01ClearingSweepIsPinned) {
  SweepSpec sweep;
  sweep.axes.push_back(SweepAxis::parse("book.seller_fraction=0.5,1"));
  sweep.seeds = 2;
  const ResultSink sink =
      run_sweep("obk01_clearing", 200.0, std::move(sweep));
  expect_hashes(sink, 0x35c68f0e4a8b37dfULL, 0x4b0d5248d93f06caULL,
                0x289500f4276b98f2ULL);
}

TEST(GoldenOutputs, Obk02MarkupCrossSweepIsPinned) {
  SweepSpec sweep;
  sweep.axes.push_back(SweepAxis::parse("book.cross=0,1,2"));
  sweep.seeds = 2;
  const ResultSink sink = run_sweep("obk02_markup", 200.0, std::move(sweep));
  expect_hashes(sink, 0x4879f063178622c8ULL, 0xfbac37d55ff343e3ULL,
                0xe2cecc473384141fULL);
}

TEST(GoldenOutputs, Adv03StakeSweepIsPinned) {
  SweepSpec sweep;
  sweep.seeds = 2;
  const ResultSink sink = run_sweep("adv03_stake", 200.0, std::move(sweep));
  expect_hashes(sink, 0x1d841e749a7948eaULL, 0x18181fcb0f5ffeb9ULL,
                0xfff3a521c58cc4ebULL);
}

}  // namespace
}  // namespace creditflow::scenario
