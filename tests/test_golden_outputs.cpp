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

#include <initializer_list>

#include "p2p/protocol.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace creditflow::scenario {
namespace {

ResultSink run_sweep(const char* preset, double horizon, SweepSpec sweep,
                     std::size_t jobs = 1) {
  const ScenarioSpec* base = ScenarioRegistry::builtin().find(preset);
  if (base == nullptr) ADD_FAILURE() << "missing preset " << preset;
  ScenarioSpec spec = *base;
  spec.set("horizon", horizon);
  spec.set("snapshot_interval", horizon / 4.0);
  SweepRunner::Options options;
  options.jobs = jobs;
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

TEST(GoldenOutputs, Fig11ChurnSweepAtFourJobsMatchesTheSerialBytes) {
  // The grid's runs differ in expected cost, so four workers dispatch them
  // costliest-first, out of plan order; placement is positional, so the
  // bytes are the serial sweep's.
  SweepSpec sweep;
  sweep.axes.push_back(SweepAxis::parse("churn.arrival_rate=1,2"));
  sweep.axes.push_back(SweepAxis::parse("churn.mean_lifespan=100,200"));
  sweep.seeds = 2;
  const ResultSink sink =
      run_sweep("fig11_churn", 400.0, std::move(sweep), /*jobs=*/4);
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

// The rest of the registry, one small multi-run grid per preset, captured
// at four jobs before sweep runs were dispatched longest-expected-first.
// The peers and lifespan axes give their grids unequal run costs, so the
// dispatch order differs from plan order there and must not reach a byte.

SweepSpec grid(std::initializer_list<const char*> axes) {
  SweepSpec sweep;
  for (const char* axis : axes) sweep.axes.push_back(SweepAxis::parse(axis));
  sweep.seeds = 2;
  return sweep;
}

TEST(GoldenOutputs, BaselineSweepIsPinned) {
  const ResultSink sink =
      run_sweep("baseline", 200.0, grid({"credits=50,100"}), 4);
  expect_hashes(sink, 0x57970711aa2cb7f0ULL, 0x1367ba2ad92c1641ULL,
                0x6af0666751eb1ccbULL);
}

TEST(GoldenOutputs, AsymmetricSweepIsPinned) {
  const ResultSink sink =
      run_sweep("asymmetric", 200.0, grid({"credits=50,100"}), 4);
  expect_hashes(sink, 0x75ce3549b81d7828ULL, 0xaaf79e70db5502b1ULL,
                0x07316a319c0a2681ULL);
}

TEST(GoldenOutputs, Fig01CondensedSweepIsPinned) {
  const ResultSink sink = run_sweep(
      "fig01_condensed", 200.0, grid({"pricing.poisson_mean=1,2"}), 4);
  expect_hashes(sink, 0xd61b71fdda5dd0c9ULL, 0x0369417ac3d4c749ULL,
                0x12667680ac385702ULL);
}

TEST(GoldenOutputs, Fig01BalancedSweepIsPinned) {
  const ResultSink sink =
      run_sweep("fig01_balanced", 200.0, grid({"credits=12,24"}), 4);
  expect_hashes(sink, 0x52b6edca68d0218eULL, 0xe7c254f241a3faa7ULL,
                0x0ac42655a6d04f9cULL);
}

TEST(GoldenOutputs, Fig04EfficiencySweepIsPinned) {
  const ResultSink sink =
      run_sweep("fig04_efficiency", 200.0, grid({"peers=100,300"}), 4);
  expect_hashes(sink, 0x634bb4e9356da2c5ULL, 0xeefc9afa9d78410fULL,
                0x62f0a26f534e0df7ULL);
}

TEST(GoldenOutputs, Fig07SymmetricSweepIsPinned) {
  const ResultSink sink =
      run_sweep("fig07_symmetric", 200.0, grid({"credits=50,100,200"}), 4);
  expect_hashes(sink, 0x8068fcbd828e95d8ULL, 0x3104c9d5562f54ffULL,
                0xdfbe33bcb1783b81ULL);
}

TEST(GoldenOutputs, Fig08AsymmetricSweepIsPinned) {
  const ResultSink sink =
      run_sweep("fig08_asymmetric", 200.0, grid({"credits=50,100,200"}), 4);
  expect_hashes(sink, 0x44cee0cdeba47907ULL, 0x26d9e1f49405b9d4ULL,
                0x9d932dffa7171caeULL);
}

TEST(GoldenOutputs, Fig10DynamicSpendingSweepIsPinned) {
  const ResultSink sink = run_sweep("fig10_dynamic_spending", 200.0,
                                    grid({"spending.threshold=50,100"}), 4);
  expect_hashes(sink, 0xcfddd49825b15f17ULL, 0x664ee2d14fd2cf9bULL,
                0x7cf0e6eea97db447ULL);
}

TEST(GoldenOutputs, Ext01AuctionSweepIsPinned) {
  const ResultSink sink =
      run_sweep("ext01_auction", 200.0, grid({"credits=100,200"}), 4);
  expect_hashes(sink, 0x16447328cdd7743fULL, 0x5de0773398ab5236ULL,
                0x036f7741fd3519b3ULL);
}

TEST(GoldenOutputs, Ext02InjectionSweepIsPinned) {
  const ResultSink sink =
      run_sweep("ext02_injection", 200.0, grid({"inject.interval=50,100"}), 4);
  expect_hashes(sink, 0x66d7e273a088f99aULL, 0x8cf6860d09e18541ULL,
                0xe072f1355e3cfe43ULL);
}

TEST(GoldenOutputs, Adv01FreerideSweepIsPinned) {
  const ResultSink sink = run_sweep("adv01_freeride", 200.0,
                                    grid({"strat.free_riders=0.1,0.3"}), 4);
  expect_hashes(sink, 0x0b3e0c9ee44aff3cULL, 0x9ae05a17b41496b5ULL,
                0x6e0054b24f847eedULL);
}

TEST(GoldenOutputs, Adv02WhitewashSweepIsPinned) {
  const ResultSink sink = run_sweep(
      "adv02_whitewash", 200.0,
      grid({"strat.whitewashers=0.1,0.3", "churn.mean_lifespan=100,300"}), 4);
  expect_hashes(sink, 0x8caddf8ed00122f2ULL, 0xc43b6fa160868671ULL,
                0x8f516883c2fcd6acULL);
}

// The hub-degree grid: a 140-degree overlay gives some buyers more than
// 128 eligible sellers, so their candidate masks are three words or more
// and the run-time-width walk picks their sellers. Churn joins and leaves
// grow and shrink hub rows past their initial room. Captured before the
// overlay rows moved from the linked edge pool into one contiguous arena.
SweepSpec hub_grid() { return grid({"churn.arrival_rate=1,4"}); }

ScenarioSpec hub_spec() {
  ScenarioSpec spec = *ScenarioRegistry::builtin().find("fig11_churn");
  spec.set("peers", 2000.0);
  spec.set("max_peers", 3072.0);
  spec.set("overlay_degree", 140.0);
  return spec;
}

TEST(GoldenOutputs, HubDegreeChurnSweepIsPinned) {
  ScenarioSpec spec = hub_spec();
  spec.set("horizon", 200.0);
  spec.set("snapshot_interval", 50.0);
  SweepRunner::Options options;
  options.jobs = 4;
  options.keep_reports = false;
  SweepRunner runner(spec, hub_grid(), options);
  ResultSink sink;
  sink.add_all(runner.run());
  expect_hashes(sink, 0xd453a550329cb962ULL, 0x191861adb3a1e635ULL,
                0xb59d1def96293dc0ULL);
}

TEST(GoldenOutputs, HubDegreeMarketTakesTheGenericWidthPath) {
  const SweepPlan plan(hub_spec(), hub_grid());
  const core::MarketConfig cfg = plan.spec(0).materialize();
  sim::Simulator sim;
  p2p::StreamingProtocol proto(cfg.protocol, sim);
  proto.start();
  sim.run_until(20.0);
  EXPECT_GT(proto.metrics().counter("purchase.phase_generic"), 0u)
      << "no buyer had more than 128 eligible sellers";
  EXPECT_EQ(proto.metrics().counter("overlay.edges_dropped"), 0u);
}

}  // namespace
}  // namespace creditflow::scenario
