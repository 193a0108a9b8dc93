// Tests for p2p/protocol: the streaming market engine — conservation,
// content flow, taxation, churn, and the condensed-vs-balanced regimes.
#include <gtest/gtest.h>

#include <numeric>

#include "p2p/protocol.hpp"
#include "sim/simulator.hpp"

namespace creditflow::p2p {
namespace {

ProtocolConfig small_config() {
  ProtocolConfig cfg;
  cfg.initial_peers = 60;
  cfg.max_peers = 80;
  cfg.initial_credits = 30;
  cfg.seed = 99;
  return cfg;
}

TEST(Protocol, StartEndowsAllPeers) {
  sim::Simulator sim;
  StreamingProtocol proto(small_config(), sim);
  proto.start();
  EXPECT_EQ(proto.num_alive(), 60u);
  EXPECT_EQ(proto.ledger().circulating(), 60u * 30u);
  for (auto id : proto.alive_peers()) {
    EXPECT_EQ(proto.ledger().balance(id), 30u);
  }
  EXPECT_TRUE(proto.ledger().audit());
}

TEST(Protocol, DoubleStartThrows) {
  sim::Simulator sim;
  StreamingProtocol proto(small_config(), sim);
  proto.start();
  EXPECT_THROW(proto.start(), util::PreconditionError);
}

TEST(Protocol, RunsRoundsAndTrades) {
  sim::Simulator sim;
  StreamingProtocol proto(small_config(), sim);
  proto.start();
  sim.run_until(200.0);
  EXPECT_EQ(proto.rounds_run(), 200u);
  EXPECT_GT(proto.metrics().counter("market.transactions"), 1000u);
  EXPECT_TRUE(proto.ledger().audit());
  // Credits conserved in the closed market.
  EXPECT_EQ(proto.ledger().circulating(), 60u * 30u);
}

TEST(Protocol, HealthyMarketKeepsBuffersFull) {
  sim::Simulator sim;
  StreamingProtocol proto(small_config(), sim);
  proto.start();
  sim.run_until(300.0);
  EXPECT_GT(proto.mean_buffer_fill(), 0.6);
  // Download rates near the stream rate for the typical peer.
  const auto rates = proto.download_rate_snapshot();
  double mean = std::accumulate(rates.begin(), rates.end(), 0.0) /
                static_cast<double>(rates.size());
  EXPECT_GT(mean, 0.75 * proto.config().stream_rate);
}

TEST(Protocol, SpendingMatchesEarningGlobally) {
  sim::Simulator sim;
  StreamingProtocol proto(small_config(), sim);
  proto.start();
  sim.run_until(150.0);
  std::uint64_t earned = 0;
  std::uint64_t spent = 0;
  for (auto id : proto.alive_peers()) {
    earned += proto.peer(id).credits_earned;
    spent += proto.peer(id).credits_spent;
  }
  EXPECT_EQ(earned, spent);
  EXPECT_GT(spent, 0u);
}

TEST(Protocol, StreamHeadAdvances) {
  sim::Simulator sim;
  auto cfg = small_config();
  StreamingProtocol proto(cfg, sim);
  proto.start();
  const auto head0 = proto.stream_head();
  sim.run_until(10.0);
  const auto head1 = proto.stream_head();
  EXPECT_EQ(head1 - head0,
            static_cast<ChunkId>(10.0 * cfg.stream_rate));
}

TEST(Protocol, TaxationRedistributesAndConserves) {
  sim::Simulator sim;
  auto cfg = small_config();
  cfg.tax.enabled = true;
  cfg.tax.rate = 0.2;
  cfg.tax.threshold = 20.0;
  StreamingProtocol proto(cfg, sim);
  proto.start();
  sim.run_until(300.0);
  EXPECT_GT(proto.taxation().total_collected(), 0u);
  EXPECT_GT(proto.taxation().total_redistributed(), 0u);
  EXPECT_TRUE(proto.ledger().audit());
  EXPECT_EQ(proto.ledger().circulating() + proto.ledger().treasury(),
            60u * 30u);
}

TEST(Protocol, ChurnChangesPopulationAndConserves) {
  sim::Simulator sim;
  auto cfg = small_config();
  cfg.churn.enabled = true;
  cfg.churn.arrival_rate = 0.5;
  cfg.churn.mean_lifespan = 60.0;
  cfg.churn.join_links = 6;
  StreamingProtocol proto(cfg, sim);
  proto.start();
  sim.run_until(400.0);
  EXPECT_GT(proto.metrics().counter("churn.arrivals"), 50u);
  EXPECT_GT(proto.metrics().counter("churn.departures"), 50u);
  EXPECT_TRUE(proto.ledger().audit());
  // Population fluctuates around initial + arrival_rate * lifespan.
  EXPECT_GT(proto.num_alive(), 20u);
  EXPECT_LE(proto.num_alive(), cfg.max_peers);
}

TEST(Protocol, DepartingPeersTakeCreditsOut) {
  sim::Simulator sim;
  auto cfg = small_config();
  cfg.churn.enabled = true;
  cfg.churn.arrival_rate = 0.2;
  cfg.churn.mean_lifespan = 30.0;
  StreamingProtocol proto(cfg, sim);
  proto.start();
  sim.run_until(300.0);
  const auto burned = proto.ledger().total_burned();
  EXPECT_GT(burned, 0u);
  EXPECT_EQ(proto.ledger().circulating(),
            proto.ledger().total_minted() - burned -
                proto.ledger().treasury());
}

TEST(Protocol, TraceRecordsFlows) {
  sim::Simulator sim;
  StreamingProtocol proto(small_config(), sim);
  proto.trace().set_enabled(true);
  proto.start();
  sim.run_until(50.0);
  EXPECT_GT(proto.trace().count(), 0u);
  EXPECT_FALSE(proto.trace().pair_flows().empty());
  // Pair flows sum to total volume.
  Credits total = 0;
  for (const auto& [k, v] : proto.trace().pair_flows()) total += v;
  EXPECT_EQ(total, proto.trace().volume());
}

TEST(Protocol, CondensedRegimeProducesInequality) {
  // The paper's Fig. 1 condensed configuration: generous capacity headroom
  // concentrated by fill-weighted selling plus Poisson pricing and a large
  // endowment. The balanced configuration: capacity-capped, uniform pricing,
  // small endowment.
  auto run_gini = [](bool condensed) {
    sim::Simulator sim;
    ProtocolConfig cfg;
    cfg.initial_peers = 120;
    cfg.max_peers = 120;
    cfg.seed = 7;
    if (condensed) {
      cfg.initial_credits = 200;
      cfg.upload_capacity = 8.0;
      cfg.seller_choice = ProtocolConfig::SellerChoice::kFillWeighted;
      cfg.pricing.kind = econ::PricingKind::kPoisson;
      cfg.pricing.poisson_mean = 1.0;
    } else {
      cfg.initial_credits = 12;
      cfg.upload_capacity = 2.5;
      cfg.pricing.kind = econ::PricingKind::kUniform;
    }
    StreamingProtocol proto(cfg, sim);
    proto.start();
    sim.run_until(600.0);
    const auto balances = proto.balance_snapshot();
    // Sample Gini via econ would add a dependency here; compute directly.
    std::vector<double> sorted(balances);
    std::sort(sorted.begin(), sorted.end());
    double total = std::accumulate(sorted.begin(), sorted.end(), 0.0);
    double weighted = 0.0;
    const double n = static_cast<double>(sorted.size());
    for (std::size_t k = 0; k < sorted.size(); ++k) {
      weighted += (2.0 * static_cast<double>(k + 1) - n - 1.0) * sorted[k];
    }
    return total > 0.0 ? weighted / (n * total) : 0.0;
  };
  const double condensed = run_gini(true);
  const double balanced = run_gini(false);
  EXPECT_GT(condensed, balanced + 0.2);
  EXPECT_GT(condensed, 0.5);
  EXPECT_LT(balanced, 0.45);
}

TEST(Protocol, DynamicSpendingReducesInequalityVsFixed) {
  auto run = [](bool dynamic) {
    sim::Simulator sim;
    ProtocolConfig cfg;
    cfg.initial_peers = 100;
    cfg.max_peers = 100;
    cfg.initial_credits = 100;
    cfg.seed = 21;
    cfg.heterogeneity.spend_rate_cv = 0.3;  // asymmetric utilization
    cfg.spending.dynamic = dynamic;
    cfg.spending.dynamic_threshold = 100.0;
    sim::Simulator s;
    StreamingProtocol proto(cfg, s);
    proto.start();
    s.run_until(800.0);
    const auto balances = proto.balance_snapshot();
    std::vector<double> sorted(balances);
    std::sort(sorted.begin(), sorted.end());
    double total = std::accumulate(sorted.begin(), sorted.end(), 0.0);
    double weighted = 0.0;
    const double n = static_cast<double>(sorted.size());
    for (std::size_t k = 0; k < sorted.size(); ++k) {
      weighted += (2.0 * static_cast<double>(k + 1) - n - 1.0) * sorted[k];
    }
    return total > 0.0 ? weighted / (n * total) : 0.0;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(Protocol, SimulatorMayOutliveProtocol) {
  // The protocol schedules rounds, churn arrivals/departures, and injection
  // ticks that capture `this`. Destroying the protocol mid-run must leave
  // the simulator free to keep draining its queue without touching freed
  // state, and the self-rescheduling periodic tasks must stop re-arming.
  sim::Simulator sim;
  {
    ProtocolConfig cfg = small_config();
    cfg.churn.enabled = true;
    cfg.churn.arrival_rate = 0.5;
    cfg.churn.mean_lifespan = 40.0;
    cfg.injection.enabled = true;
    cfg.injection.interval_seconds = 10.0;
    StreamingProtocol proto(cfg, sim);
    proto.start();
    sim.run_until(50.0);
    EXPECT_GT(proto.rounds_run(), 0u);
  }
  // Pending rounds/arrivals/departures fire as guarded no-ops, and the
  // cancelled periodic tasks stop re-arming — so the queue must fully
  // drain once the longest one-shot churn timer has fired (exponential
  // lifespans scheduled before t=50 are all far below 2000 for this seed).
  sim.run_until(2000.0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Protocol, DestroyedProtocolStopsMutatingSharedState) {
  // Two protocols time-share one simulator; killing the first must not
  // disturb the second's rounds.
  sim::Simulator sim;
  auto first = std::make_unique<StreamingProtocol>(small_config(), sim);
  first->start();
  ProtocolConfig cfg2 = small_config();
  cfg2.seed = 123;
  StreamingProtocol second(cfg2, sim);
  second.start();
  sim.run_until(20.0);
  first.reset();
  sim.run_until(60.0);
  EXPECT_EQ(second.rounds_run(), 60u);
  EXPECT_TRUE(second.ledger().audit());
}

TEST(Protocol, RejectsBadConfigs) {
  sim::Simulator sim;
  ProtocolConfig cfg = small_config();
  cfg.initial_peers = 1;
  EXPECT_THROW(StreamingProtocol(cfg, sim), util::PreconditionError);

  cfg = small_config();
  cfg.initial_peers = cfg.max_peers + 1;
  EXPECT_THROW(StreamingProtocol(cfg, sim), util::PreconditionError);

  cfg = small_config();
  cfg.stream_rate = 0.0;
  EXPECT_THROW(StreamingProtocol(cfg, sim), util::PreconditionError);

  cfg = small_config();
  cfg.churn.enabled = true;
  cfg.churn.arrival_rate = 0.0;
  EXPECT_THROW(StreamingProtocol(cfg, sim), util::PreconditionError);
}

}  // namespace
}  // namespace creditflow::p2p
