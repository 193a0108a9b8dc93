// Tests for p2p/owner_index: the incrementally-maintained chunk→owner
// bitmaps behind the purchase phase, and the CandidateMasks built from
// them. The load-bearing properties are the mirror invariant (index bits
// == buffer contents) across seeding, purchases, window advances, and
// churn join/leave; exact agreement of CandidateMasks with the per-chunk
// neighbor scan kept here as the oracle; and whole markets pinned to the
// digests they produced when the purchase phase still ran that scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "p2p/owner_index.hpp"
#include "p2p/protocol.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

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

/// The oracle: the per-chunk neighbor scan the purchase phase ran before
/// the owner index. A chunk's sellers are the eligible, undrained
/// neighbors that hold it, in neighbor-list order.
std::vector<PeerId> scan_sellers(std::span<const PeerId> neighbors,
                                 const std::vector<BufferMap>& buffers,
                                 const std::vector<bool>& eligible,
                                 const std::vector<bool>& drained,
                                 ChunkId chunk) {
  std::vector<PeerId> out;
  for (const PeerId nbr : neighbors) {
    if (eligible[nbr] && !drained[nbr] && buffers[nbr].has(chunk)) {
      out.push_back(nbr);
    }
  }
  return out;
}

/// Every view of one chunk's masked sellers must agree with the scan:
/// for_each order, size(), empty() and operator[] at every position.
template <class Sellers>
void expect_matches_scan(const Sellers& sellers,
                         const std::vector<PeerId>& expect) {
  std::vector<PeerId> walked;
  sellers.for_each([&](PeerId s) { walked.push_back(s); });
  EXPECT_EQ(walked, expect);
  EXPECT_EQ(sellers.size(), expect.size());
  EXPECT_EQ(sellers.empty(), expect.empty());
  for (std::size_t n = 0; n < expect.size(); ++n) {
    EXPECT_EQ(sellers[n], expect[n]) << "position " << n;
  }
}

TEST(CandidateMasks, MatchesNeighborScanOracle) {
  util::Rng rng(2012);
  // Mask widths seen per owner-row width: [1-word rows, >=2-word rows] x
  // [1, 2, >2 words of eligible sellers].
  std::size_t widths_seen[2][3] = {};
  std::size_t drops = 0;
  // One object for every trial, as in the protocol: each build must reset
  // whatever an earlier phase, of another width or window, left behind.
  CandidateMasks masks;
  for (int trial = 0; trial < 240; ++trial) {
    const std::size_t window = trial % 2 == 0 ? 48 : 130;
    // Neighbor counts spread over one, two and more than two mask words.
    constexpr std::size_t kMaxDegree[] = {64, 128, 260};
    const std::size_t degree = 1 + rng.uniform_index(kMaxDegree[trial % 3]);
    const std::size_t peers = degree + 1 + rng.uniform_index(20);
    const ChunkId base = rng.uniform_index(1000);

    OwnerIndex index(peers, window);
    std::vector<BufferMap> buffers(peers, BufferMap(window));
    const double own = rng.uniform(0.05, 0.95);
    for (PeerId id = 0; id < peers; ++id) {
      buffers[id].reset(base);
      for (ChunkId c = base; c < base + window; ++c) {
        if (rng.bernoulli(own)) {
          buffers[id].set(c);
          index.on_gain(id, c);
        }
      }
    }
    // A neighbor list in shuffled id order, so neighbor order and bit
    // order are not id order.
    std::vector<PeerId> ids(peers);
    for (PeerId id = 0; id < peers; ++id) ids[id] = id;
    rng.shuffle(ids);
    const auto neighbors = std::span<const PeerId>(ids).first(degree);
    std::vector<bool> eligible(peers);
    const double p_eligible = trial % 5 == 0 ? 1.0 : rng.uniform(0.3, 1.0);
    for (PeerId id = 0; id < peers; ++id) {
      eligible[id] = rng.bernoulli(p_eligible);
    }
    std::vector<ChunkId> wanted;
    for (ChunkId c = base; c < base + window; ++c) {
      if (rng.bernoulli(0.6)) wanted.push_back(c);
    }
    if (wanted.empty()) wanted.push_back(base + window - 1);
    rng.shuffle(wanted);

    const bool built = masks.build(index, neighbors, wanted, base,
                                   [&](PeerId s) { return eligible[s]; });
    const auto num_eligible = static_cast<std::size_t>(
        std::count_if(neighbors.begin(), neighbors.end(),
                      [&](PeerId s) { return eligible[s]; }));
    EXPECT_EQ(masks.num_eligible(), num_eligible);
    EXPECT_EQ(built, num_eligible > 0);
    if (!built) continue;
    EXPECT_EQ(masks.words(), (num_eligible + 63) / 64);
    ++widths_seen[window > 64][std::min<std::size_t>(masks.words(), 3) - 1];

    // Walk the wanted chunks in phase order; sellers drain as they sell,
    // and a drained seller must vanish from every later chunk.
    std::vector<bool> drained(peers);
    for (const ChunkId c : wanted) {
      const auto expect =
          scan_sellers(neighbors, buffers, eligible, drained, c);
      masks.visit(c, [&](const auto& sellers) {
        expect_matches_scan(sellers, expect);
      });
      if (HasFailure()) return;  // one diverging chunk tells the story
      if (!expect.empty() && rng.bernoulli(0.3)) {
        const PeerId gone = expect[rng.uniform_index(expect.size())];
        drained[gone] = true;
        masks.drop(gone, wanted);
        ++drops;
      }
      if (rng.bernoulli(0.05)) {
        masks.drop(ids[degree + rng.uniform_index(peers - degree)], wanted);
      }
    }
  }
  for (const auto& rows : widths_seen) {
    for (const std::size_t seen : rows) EXPECT_GT(seen, 0u);
  }
  EXPECT_GT(drops, 100u);
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
  // Buyer phases per candidate-mask width.
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

/// FNV-1a over a run's whole-market outcome: every trace record, every
/// alive balance, and the book and strategy counters, as text.
std::uint64_t market_digest(const RunOutcome& r) {
  std::ostringstream out;
  out.precision(17);
  for (const auto& t : r.records) {
    out << t.time << ' ' << t.buyer << ' ' << t.seller << ' ' << t.chunk
        << ' ' << t.price << '\n';
  }
  for (const double b : r.balances) out << b << '\n';
  out << r.book_fills << ' ' << r.book_asks_expired << ' '
      << r.book_bids_posted << ' ' << r.book_bids_matched << ' '
      << r.whitewash_resets << '\n';
  return util::fnv1a64(out.str());
}

/// Runs `cfg` and checks its whole market against `digest`, the digest the
/// same configuration produced when the purchase phase could still run the
/// per-chunk neighbor scan and that scan's market was asserted identical
/// to the owner-index market, trace for trace. Returns the outcome so
/// callers can check the configuration exercised what it claims to.
RunOutcome expect_market_digest(const ProtocolConfig& cfg, double horizon,
                                std::uint64_t digest) {
  RunOutcome out = run_market(cfg, horizon);
  EXPECT_EQ(market_digest(out), digest)
      << std::hex << "got 0x" << market_digest(out);
  return out;
}

/// One seed of a pinned configuration and its market digest.
struct Pinned {
  std::uint64_t seed;
  std::uint64_t digest;
};

TEST(OwnerIndexEquivalence, MatchesNaiveScanAcrossSeeds) {
  for (const Pinned pin : {Pinned{1, 0xa89e0778290f1bbaULL},
                           Pinned{17, 0x9372eef29716ba7cULL},
                           Pinned{2012, 0x2b8e626c4d17330dULL}}) {
    expect_market_digest(base_config(pin.seed), 60.0, pin.digest);
  }
}

TEST(OwnerIndexEquivalence, MatchesNaiveScanUnderChurn) {
  for (const Pinned pin : {Pinned{3, 0xb4479eefe731fdcdULL},
                           Pinned{99, 0xc6852fd7c2b3fc5bULL}}) {
    auto cfg = base_config(pin.seed);
    cfg.churn.enabled = true;
    cfg.churn.arrival_rate = 0.8;
    cfg.churn.mean_lifespan = 40.0;
    cfg.churn.join_links = 6;
    expect_market_digest(cfg, 120.0, pin.digest);
  }
}

TEST(OwnerIndexEquivalence, MatchesNaiveScanFillWeighted) {
  auto cfg = base_config(7);
  cfg.seller_choice = ProtocolConfig::SellerChoice::kFillWeighted;
  cfg.pricing.kind = econ::PricingKind::kPoisson;
  cfg.pricing.poisson_mean = 1.0;
  expect_market_digest(cfg, 60.0, 0x0336408657f76f88ULL);
}

TEST(OwnerIndexEquivalence, MatchesNaiveScanCheapestAsk) {
  auto cfg = base_config(11);
  cfg.seller_choice = ProtocolConfig::SellerChoice::kCheapestAsk;
  cfg.pricing.kind = econ::PricingKind::kPerSeller;
  expect_market_digest(cfg, 60.0, 0xa43d145c624e55a5ULL);
}

/// The hub-buyer regime the single-word fast path cannot cover: a dense
/// overlay whose mean degree exceeds 64, so most buyers carry more than 64
/// budgeted neighbors and the purchase phase takes the generic multi-word
/// path.
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
  for (const Pinned pin : {Pinned{1, 0x7258a960ff9ebdeaULL},
                           Pinned{29, 0xb74398821871be40ULL}}) {
    expect_market_digest(hub_config(pin.seed), 60.0, pin.digest);
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
  expect_market_digest(cfg, 80.0, 0x20e51cb24854abd3ULL);
}

TEST(OwnerIndexEquivalence, MatchesNaiveScanAtHubDegreesUnderChurn) {
  // Churn on a dense overlay: joins attach many links at once and
  // departures strand index bits unless on_clear keeps the mirror exact —
  // at hub degrees every such slip would surface as a digest change.
  auto cfg = hub_config(53);
  cfg.churn.enabled = true;
  cfg.churn.arrival_rate = 1.0;
  cfg.churn.mean_lifespan = 40.0;
  cfg.churn.join_links = 70;  // arrivals become hubs immediately
  expect_market_digest(cfg, 100.0, 0xb15dcc977b3544f6ULL);
}

TEST(OwnerIndexEquivalence, MatchesNaiveScanSupplyLimited) {
  // The backlogged regime (capacity < stream rate): long shopping lists,
  // drained sellers, reserve-credit caps — the paths the owner index
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
  expect_market_digest(cfg, 80.0, 0xa7db6856dd24c5d2ULL);
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
  for (const Pinned pin : {Pinned{1, 0xf5a4a098a0486219ULL},
                           Pinned{17, 0x9900dde5f390f74bULL}}) {
    const auto out =
        expect_market_digest(book_config(pin.seed), 60.0, pin.digest);
    EXPECT_GT(out.book_fills, 0u);
  }
}

TEST(OwnerIndexBookEquivalence, AdaptiveBestAskMatchesNaiveScan) {
  const auto out = expect_market_digest(adaptive_book_config(3), 80.0,
                                        0x1c75844b49ef3dfeULL);
  EXPECT_GT(out.book_fills, 0u);
}

TEST(OwnerIndexBookEquivalence, FillWeightedMatchesNaiveScan) {
  const std::pair<ProtocolConfig, std::uint64_t> pins[] = {
      {book_config(7), 0xf24b0318a5300bddULL},
      {adaptive_book_config(8), 0x6658da6efc48bcefULL}};
  for (auto [cfg, digest] : pins) {
    cfg.book.cross = BookConfig::CrossStrategy::kFillWeighted;
    const auto out = expect_market_digest(cfg, 60.0, digest);
    EXPECT_GT(out.book_fills, 0u);
  }
}

TEST(OwnerIndexBookEquivalence, LimitWithRestingBidsMatchesNaiveScan) {
  // Adaptive asks climb above a limit of 2 on sellers that keep selling,
  // so crossings both fill and rest bids, and rested bids later match.
  auto cfg = adaptive_book_config(11);
  cfg.book.cross = BookConfig::CrossStrategy::kLimit;
  cfg.book.limit_price = 2;
  const auto out = expect_market_digest(cfg, 80.0, 0x70efeb049123383aULL);
  EXPECT_GT(out.book_fills, 0u);
  EXPECT_GT(out.book_bids_posted, 0u);
  EXPECT_GT(out.book_bids_matched, 0u);
}

TEST(OwnerIndexBookEquivalence, HalfSellerPoolMatchesNaiveScan) {
  // Only half the peers post asks: owners without an ask must never be
  // candidates, however many chunks they hold.
  const std::pair<ProtocolConfig, std::uint64_t> pins[] = {
      {book_config(13), 0xee00d32df2c5e034ULL},
      {adaptive_book_config(14), 0x6f685de267d64b6dULL}};
  for (auto [cfg, digest] : pins) {
    cfg.book.seller_fraction = 0.5;
    const auto out = expect_market_digest(cfg, 60.0, digest);
    EXPECT_GT(out.book_fills, 0u);
  }
}

TEST(OwnerIndexBookEquivalence, UnderChurnMatchesNaiveScan) {
  const std::pair<BookConfig::CrossStrategy, std::uint64_t> pins[] = {
      {BookConfig::CrossStrategy::kBestAsk, 0x7600a1674989f0bdULL},
      {BookConfig::CrossStrategy::kFillWeighted, 0xb45560c31527feb2ULL}};
  for (const auto& [cross, digest] : pins) {
    auto cfg = book_config(19);
    cfg.book.cross = cross;
    cfg.churn.enabled = true;
    cfg.churn.arrival_rate = 0.8;
    cfg.churn.mean_lifespan = 40.0;
    cfg.churn.join_links = 6;
    const auto out = expect_market_digest(cfg, 120.0, digest);
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
  const auto out = expect_market_digest(cfg, 120.0, 0x3a692a17e1f6fcfaULL);
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
  const std::pair<BookConfig::CrossStrategy, std::uint64_t> pins[] = {
      {BookConfig::CrossStrategy::kBestAsk, 0xe197b05ff42faa3eULL},
      {BookConfig::CrossStrategy::kFillWeighted, 0xeac69d8aea686aadULL}};
  for (const auto& [cross, digest] : pins) {
    cfg.book.cross = cross;
    const auto out = expect_market_digest(cfg, 30.0, digest);
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
