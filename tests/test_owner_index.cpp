// Tests for p2p/owner_index: the incrementally-maintained chunk→owner
// bitmaps behind the purchase fast path. The load-bearing property is
// exact equivalence — the indexed purchase phase must reproduce the naive
// neighbor-scan trace transaction for transaction — plus the mirror
// invariant (index bits == buffer contents) across seeding, purchases,
// window advances, and churn join/leave.
#include <gtest/gtest.h>

#include <algorithm>

#include "p2p/owner_index.hpp"
#include "p2p/protocol.hpp"
#include "sim/simulator.hpp"

namespace creditflow::p2p {
namespace {

TEST(OwnerIndex, GainAndClearTrackBits) {
  OwnerIndex index(4, 48);
  EXPECT_EQ(index.words_per_peer(), 1u);
  index.on_gain(2, 5);
  index.on_gain(2, 47);
  index.on_gain(2, 48);  // slot 0 (wraps)
  const auto words = index.owned(2);
  EXPECT_EQ(words[0],
            (std::uint64_t{1} << 5) | (std::uint64_t{1} << 47) | 1u);
  EXPECT_EQ(index.owned(1)[0], 0u);
  index.on_clear(2);
  EXPECT_EQ(index.owned(2)[0], 0u);
}

TEST(OwnerIndex, AdvanceEvictsDepartedSlots) {
  OwnerIndex index(2, 48);
  for (ChunkId c = 0; c < 48; ++c) index.on_gain(0, c);
  index.on_advance(0, 0, 10);
  // Slots 0..9 cleared, 10..47 still set.
  std::uint64_t expect = 0;
  for (ChunkId c = 10; c < 48; ++c) expect |= std::uint64_t{1} << c;
  EXPECT_EQ(index.owned(0)[0], expect);
  // A jump past the whole window clears everything.
  index.on_advance(0, 10, 10 + 48);
  EXPECT_EQ(index.owned(0)[0], 0u);
}

TEST(OwnerIndex, MultiWordWindows) {
  OwnerIndex index(2, 100);
  EXPECT_EQ(index.words_per_peer(), 2u);
  index.on_gain(1, 70);
  EXPECT_EQ(index.owned(1)[0], 0u);
  EXPECT_EQ(index.owned(1)[1], std::uint64_t{1} << 6);
  index.on_advance(1, 70, 71);
  EXPECT_EQ(index.owned(1)[1], 0u);
}

TEST(OwnerIndex, MirrorsBufferMap) {
  OwnerIndex index(1, 32);
  BufferMap buffer(32);
  buffer.reset(100);
  EXPECT_TRUE(index.mirrors(0, buffer));
  buffer.set(105);
  EXPECT_FALSE(index.mirrors(0, buffer));
  index.on_gain(0, 105);
  EXPECT_TRUE(index.mirrors(0, buffer));
  buffer.advance(106);
  index.on_advance(0, 100, 106);
  EXPECT_TRUE(index.mirrors(0, buffer));
}

ProtocolConfig base_config(std::uint64_t seed) {
  ProtocolConfig cfg;
  cfg.initial_peers = 80;
  cfg.max_peers = 120;
  cfg.initial_credits = 40;
  cfg.seed = seed;
  return cfg;
}

/// Run `cfg` for `horizon` seconds with full trace recording.
struct RunOutcome {
  std::vector<TransactionRecord> records;
  std::vector<double> balances;
  // Order-book accounting (all zero in the direct market).
  std::uint64_t book_fills = 0;
  std::uint64_t book_asks_expired = 0;
  std::uint64_t book_bids_posted = 0;
  std::uint64_t book_bids_matched = 0;
  std::uint64_t whitewash_resets = 0;
  // Buyer phases per candidate-mask width (indexed runs only).
  std::uint64_t phase_two_word = 0;
  std::uint64_t phase_generic = 0;
};

RunOutcome run_market(ProtocolConfig cfg, double horizon) {
  sim::Simulator sim;
  StreamingProtocol proto(cfg, sim);
  proto.trace().set_keep_records(true);
  proto.start();
  sim.run_until(horizon);
  auto& m = proto.metrics();
  return {proto.trace().records(),
          proto.balance_snapshot(),
          m.counter("book.fills"),
          m.counter("book.asks_expired"),
          m.counter("book.bids_posted"),
          m.counter("book.bids_matched"),
          m.counter("strat.whitewash_resets"),
          m.counter("purchase.phase_two_word"),
          m.counter("purchase.phase_generic")};
}

/// Runs `cfg` indexed and through the reference scan, asserts the two
/// markets match trace for trace, and returns the indexed outcome so
/// callers can check the configuration exercised what it claims to.
RunOutcome expect_identical_markets(const ProtocolConfig& cfg,
                                    double horizon) {
  ProtocolConfig indexed = cfg;
  indexed.use_owner_index = true;
  ProtocolConfig naive = cfg;
  naive.use_owner_index = false;

  RunOutcome a = run_market(indexed, horizon);
  const RunOutcome b = run_market(naive, horizon);

  EXPECT_EQ(a.records.size(), b.records.size());
  const std::size_t n = std::min(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(a.records[i].time, b.records[i].time) << "record " << i;
    if (a.records[i].buyer != b.records[i].buyer ||
        a.records[i].seller != b.records[i].seller ||
        a.records[i].chunk != b.records[i].chunk ||
        a.records[i].price != b.records[i].price) {
      ADD_FAILURE() << "traces diverge at record " << i;
      break;
    }
  }
  EXPECT_EQ(a.balances, b.balances);
  EXPECT_EQ(a.book_fills, b.book_fills);
  EXPECT_EQ(a.book_asks_expired, b.book_asks_expired);
  EXPECT_EQ(a.book_bids_posted, b.book_bids_posted);
  EXPECT_EQ(a.book_bids_matched, b.book_bids_matched);
  return a;
}

TEST(OwnerIndexEquivalence, MatchesNaiveScanAcrossSeeds) {
  for (const std::uint64_t seed : {1ull, 17ull, 2012ull}) {
    expect_identical_markets(base_config(seed), 60.0);
  }
}

TEST(OwnerIndexEquivalence, MatchesNaiveScanUnderChurn) {
  for (const std::uint64_t seed : {3ull, 99ull}) {
    auto cfg = base_config(seed);
    cfg.churn.enabled = true;
    cfg.churn.arrival_rate = 0.8;
    cfg.churn.mean_lifespan = 40.0;
    cfg.churn.join_links = 6;
    expect_identical_markets(cfg, 120.0);
  }
}

TEST(OwnerIndexEquivalence, MatchesNaiveScanFillWeighted) {
  auto cfg = base_config(7);
  cfg.seller_choice = ProtocolConfig::SellerChoice::kFillWeighted;
  cfg.pricing.kind = econ::PricingKind::kPoisson;
  cfg.pricing.poisson_mean = 1.0;
  expect_identical_markets(cfg, 60.0);
}

TEST(OwnerIndexEquivalence, MatchesNaiveScanCheapestAsk) {
  auto cfg = base_config(11);
  cfg.seller_choice = ProtocolConfig::SellerChoice::kCheapestAsk;
  cfg.pricing.kind = econ::PricingKind::kPerSeller;
  expect_identical_markets(cfg, 60.0);
}

/// The hub-buyer regime the single-word fast path cannot cover: a dense
/// overlay whose mean degree exceeds 64, so most buyers carry more than 64
/// budgeted neighbors and the purchase phase takes the generic multi-word
/// path. This is the pinned oracle for the planned two-word (≤128
/// neighbor) specialization — it must land trace-for-trace against these
/// markets.
ProtocolConfig hub_config(std::uint64_t seed) {
  auto cfg = base_config(seed);
  // The bootstrap generator caps hub degrees near 4·sqrt(n)+8, so pushing
  // the mean past 64 requires a swarm large enough for ~106-degree hubs.
  cfg.initial_peers = 600;
  cfg.max_peers = 640;
  cfg.overlay_mean_degree = 80.0;
  return cfg;
}

/// The structural premise of the hub tests: the overlay actually produced
/// buyers with more than 64 neighbors (otherwise they would silently
/// exercise only the single-word path and pin nothing).
void expect_has_hub_buyers(const ProtocolConfig& cfg) {
  sim::Simulator sim;
  StreamingProtocol proto(cfg, sim);
  proto.start();  // the bootstrap overlay is built at start()
  std::size_t hubs = 0;
  for (PeerId id = 0; id < cfg.initial_peers; ++id) {
    if (proto.overlay().degree(id) > 64) ++hubs;
  }
  EXPECT_GT(hubs, cfg.initial_peers / 2)
      << "overlay too sparse to exercise the multi-word purchase path";
}

TEST(OwnerIndexEquivalence, MatchesNaiveScanAtHubDegrees) {
  expect_has_hub_buyers(hub_config(1));
  for (const std::uint64_t seed : {1ull, 29ull}) {
    expect_identical_markets(hub_config(seed), 60.0);
  }
}

TEST(OwnerIndexEquivalence, MatchesNaiveScanAtHubDegreesSupplyLimited) {
  // Hubs in the backlogged regime: long shopping lists and drained sellers
  // force the deepest multi-word candidate-mask walks (window > 64 chunks
  // AND > 64 neighbors — both dimensions past the single-word fast path).
  auto cfg = hub_config(41);
  cfg.stream_rate = 2.4;
  cfg.upload_capacity = 2.0;
  cfg.window_chunks = 96;
  cfg.max_purchase_attempts = 96;
  cfg.base_spend_rate = 7.2;
  expect_has_hub_buyers(cfg);
  expect_identical_markets(cfg, 80.0);
}

TEST(OwnerIndexEquivalence, MatchesNaiveScanAtHubDegreesUnderChurn) {
  // Churn on a dense overlay: joins attach many links at once and
  // departures strand index bits unless on_clear keeps the mirror exact —
  // at hub degrees every such slip would surface as a trace divergence.
  auto cfg = hub_config(53);
  cfg.churn.enabled = true;
  cfg.churn.arrival_rate = 1.0;
  cfg.churn.mean_lifespan = 40.0;
  cfg.churn.join_links = 70;  // arrivals become hubs immediately
  expect_identical_markets(cfg, 100.0);
}

TEST(OwnerIndexEquivalence, MatchesNaiveScanSupplyLimited) {
  // The backlogged regime (capacity < stream rate): long shopping lists,
  // drained sellers, reserve-credit caps — the paths the fast path
  // optimizes hardest.
  auto cfg = base_config(23);
  cfg.stream_rate = 2.4;
  cfg.upload_capacity = 2.0;
  cfg.window_chunks = 96;
  cfg.max_purchase_attempts = 96;
  cfg.base_spend_rate = 7.2;
  cfg.tax.enabled = true;
  cfg.tax.rate = 0.15;
  cfg.tax.threshold = 30.0;
  expect_identical_markets(cfg, 80.0);
}

using BookConfig = ProtocolConfig::OrderBookConfig;

/// The order-book market (obk02-style fixed-markup asks at twice the base
/// price): book mode resolves its crossings through the same owner-index
/// walk, with "upload budget and a resting ask" as the eligibility filter.
ProtocolConfig book_config(std::uint64_t seed) {
  auto cfg = base_config(seed);
  cfg.market_mode = ProtocolConfig::MarketMode::kOrderBook;
  cfg.book.ask_pricing = BookConfig::AskPricing::kFixedMarkup;
  cfg.book.ask_markup = 1.0;
  cfg.book.base_price = 1;
  cfg.book.max_price = 16;
  return cfg;
}

/// Adaptive (tatonnement) asks, obk01-style: prices move per seller, so
/// crossings see several price levels and time priority within them.
ProtocolConfig adaptive_book_config(std::uint64_t seed) {
  auto cfg = book_config(seed);
  cfg.book.ask_pricing = BookConfig::AskPricing::kAdaptive;
  cfg.book.base_price = 2;
  cfg.book.reprice_rounds = 4;
  return cfg;
}

TEST(OwnerIndexBookEquivalence, BestAskMatchesNaiveScan) {
  for (const std::uint64_t seed : {1ull, 17ull}) {
    const auto out = expect_identical_markets(book_config(seed), 60.0);
    EXPECT_GT(out.book_fills, 0u);
  }
}

TEST(OwnerIndexBookEquivalence, AdaptiveBestAskMatchesNaiveScan) {
  const auto out = expect_identical_markets(adaptive_book_config(3), 80.0);
  EXPECT_GT(out.book_fills, 0u);
}

TEST(OwnerIndexBookEquivalence, FillWeightedMatchesNaiveScan) {
  for (auto cfg : {book_config(7), adaptive_book_config(8)}) {
    cfg.book.cross = BookConfig::CrossStrategy::kFillWeighted;
    const auto out = expect_identical_markets(cfg, 60.0);
    EXPECT_GT(out.book_fills, 0u);
  }
}

TEST(OwnerIndexBookEquivalence, LimitWithRestingBidsMatchesNaiveScan) {
  // Adaptive asks climb above a limit of 2 on sellers that keep selling,
  // so crossings both fill and rest bids, and rested bids later match.
  auto cfg = adaptive_book_config(11);
  cfg.book.cross = BookConfig::CrossStrategy::kLimit;
  cfg.book.limit_price = 2;
  const auto out = expect_identical_markets(cfg, 80.0);
  EXPECT_GT(out.book_fills, 0u);
  EXPECT_GT(out.book_bids_posted, 0u);
  EXPECT_GT(out.book_bids_matched, 0u);
}

TEST(OwnerIndexBookEquivalence, HalfSellerPoolMatchesNaiveScan) {
  // Only half the peers post asks: owners without an ask must never be
  // candidates, however many chunks they hold.
  for (auto cfg : {book_config(13), adaptive_book_config(14)}) {
    cfg.book.seller_fraction = 0.5;
    const auto out = expect_identical_markets(cfg, 60.0);
    EXPECT_GT(out.book_fills, 0u);
  }
}

TEST(OwnerIndexBookEquivalence, UnderChurnMatchesNaiveScan) {
  for (const BookConfig::CrossStrategy cross :
       {BookConfig::CrossStrategy::kBestAsk,
        BookConfig::CrossStrategy::kFillWeighted}) {
    auto cfg = book_config(19);
    cfg.book.cross = cross;
    cfg.churn.enabled = true;
    cfg.churn.arrival_rate = 0.8;
    cfg.churn.mean_lifespan = 40.0;
    cfg.churn.join_links = 6;
    const auto out = expect_identical_markets(cfg, 120.0);
    EXPECT_GT(out.book_fills, 0u);
  }
}

TEST(OwnerIndexBookEquivalence, StrategyMixMatchesNaiveScan) {
  // The adv03 mix: whitewashers cycling identities, staked seeders whose
  // asks are gated on their bond, free-riders that never post, under churn.
  auto cfg = book_config(23);
  cfg.churn.enabled = true;
  cfg.churn.arrival_rate = 0.5;
  cfg.churn.mean_lifespan = 60.0;
  cfg.churn.join_links = 6;
  cfg.strat.free_rider_fraction = 0.1;
  cfg.strat.whitewash_fraction = 0.1;
  cfg.strat.whitewash_threshold = 35.0;  // 40-credit endowment: cycles early
  cfg.strat.staked_fraction = 0.2;
  cfg.strat.stake_amount = 25;
  cfg.strat.stake_slash = 0.5;
  cfg.strat.revalidate_rounds = 16;
  const auto out = expect_identical_markets(cfg, 120.0);
  EXPECT_GT(out.book_fills, 0u);
  EXPECT_GT(out.whitewash_resets, 0u);
}

TEST(OwnerIndexBookEquivalence, HubBuyersTakeTheDynamicWidthWalk) {
  // A swarm dense enough that some buyers hold more than 128 budgeted,
  // ask-holding neighbors: their candidate masks are three words or more,
  // so the run-time-width walk resolves their crossings.
  auto cfg = book_config(29);
  cfg.initial_peers = 1400;
  cfg.max_peers = 1440;
  cfg.overlay_mean_degree = 110.0;
  for (const BookConfig::CrossStrategy cross :
       {BookConfig::CrossStrategy::kBestAsk,
        BookConfig::CrossStrategy::kFillWeighted}) {
    cfg.book.cross = cross;
    const auto out = expect_identical_markets(cfg, 30.0);
    EXPECT_GT(out.book_fills, 0u);
    EXPECT_GT(out.phase_two_word, 0u);
    EXPECT_GT(out.phase_generic, 0u)
        << "no buyer had more than 128 eligible sellers";
  }
}

TEST(OwnerIndexInvariant, MirrorsEveryBufferAfterChurnHeavyRun) {
  auto cfg = base_config(5);
  cfg.churn.enabled = true;
  cfg.churn.arrival_rate = 1.5;
  cfg.churn.mean_lifespan = 25.0;  // slots recycle many times
  cfg.churn.join_links = 5;
  sim::Simulator sim;
  StreamingProtocol proto(cfg, sim);
  proto.start();
  sim.run_until(200.0);
  EXPECT_GT(proto.metrics().counter("churn.departures"), 100u);
  std::size_t alive_checked = 0;
  for (PeerId id = 0; id < cfg.max_peers; ++id) {
    if (proto.peer(id).alive) {
      EXPECT_TRUE(proto.owner_index().mirrors(id, proto.peer(id).buffer))
          << "peer " << id;
      ++alive_checked;
    } else {
      // Departed (or never-used) slots must hold no stale ownership bits.
      for (const auto word : proto.owner_index().owned(id)) {
        EXPECT_EQ(word, 0u) << "peer " << id;
      }
    }
  }
  EXPECT_GT(alive_checked, 0u);
}

}  // namespace
}  // namespace creditflow::p2p
