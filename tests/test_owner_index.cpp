// Tests for p2p/owner_index: the ownership view over the PeerTable's
// buffer arena behind the purchase phase, and the CandidateMasks built
// from it. The load-bearing properties are that the view reads exactly
// the bits the BufferMaps keep (seeding, purchases, window advances,
// resets); exact agreement of CandidateMasks with the per-chunk neighbor
// scan kept here as the oracle; and whole markets pinned to the digests
// they produced when the purchase phase still ran that scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>

#include "p2p/owner_index.hpp"
#include "p2p/protocol.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace creditflow::p2p {
namespace {

TEST(OwnerIndex, ReadsTheBufferArenaInPlace) {
  PeerTable peers(4, 48);
  const OwnerIndex index(peers);
  EXPECT_EQ(index.window_capacity(), 48u);
  EXPECT_EQ(index.words_per_peer(), 1u);
  BufferMap& buffer = peers.buffer(2);
  buffer.reset(5);
  buffer.set(5);   // the oldest chunk: bit 0
  buffer.set(47);  // bit 42
  buffer.set(52);  // the freshest chunk: bit 47
  EXPECT_FALSE(buffer.set(53));  // one past the window end
  EXPECT_EQ(index.owned(2)[0], std::uint64_t{1} | (std::uint64_t{1} << 42) |
                                   (std::uint64_t{1} << 47));
  EXPECT_EQ(index.owned(1)[0], 0u);
  EXPECT_EQ(index.owned(3)[0], 0u);
  buffer.reset(100);
  EXPECT_EQ(index.owned(2)[0], 0u);
}

TEST(OwnerIndex, WindowAdvanceEvictsInPlace) {
  PeerTable peers(2, 48);
  const OwnerIndex index(peers);
  BufferMap& buffer = peers.buffer(0);
  for (ChunkId c = 0; c < 48; ++c) buffer.set(c);
  EXPECT_EQ(buffer.advance(10), 10u);
  // Chunks 10..47 stay held and move down to bits 0..37; bits 38..47 are
  // the ten new, empty chunks 48..57.
  EXPECT_EQ(index.owned(0)[0], (std::uint64_t{1} << 38) - 1);
  // A jump past the whole window clears everything.
  EXPECT_EQ(buffer.advance(10 + 48), 38u);
  EXPECT_EQ(index.owned(0)[0], 0u);
}

TEST(OwnerIndex, MultiWordWindows) {
  PeerTable peers(2, 100);
  const OwnerIndex index(peers);
  EXPECT_EQ(index.words_per_peer(), 2u);
  BufferMap& buffer = peers.buffer(1);
  buffer.reset(70);
  buffer.set(70);   // age 0: word 0, bit 0
  buffer.set(140);  // age 70: word 1, bit 6
  EXPECT_EQ(index.owned(1)[0], 1u);
  EXPECT_EQ(index.owned(1)[1], std::uint64_t{1} << 6);
  EXPECT_EQ(index.owned(0)[0], 0u);
  EXPECT_EQ(index.owned(0)[1], 0u);
  EXPECT_EQ(buffer.advance(71), 1u);
  EXPECT_EQ(index.owned(1)[0], 0u);
  EXPECT_EQ(index.owned(1)[1], std::uint64_t{1} << 5);
  // Ten more: chunk 140 crosses into word 0 (age 59).
  EXPECT_EQ(buffer.advance(81), 0u);
  EXPECT_EQ(index.owned(1)[0], std::uint64_t{1} << 59);
  EXPECT_EQ(index.owned(1)[1], 0u);
}

/// The oracle: the per-chunk neighbor scan the purchase phase ran before
/// the owner index. A chunk's sellers are the eligible, undrained
/// neighbors that hold it, in neighbor-list order.
std::vector<PeerId> scan_sellers(std::span<const PeerId> neighbors,
                                 const PeerTable& peers,
                                 const std::vector<bool>& eligible,
                                 const std::vector<bool>& drained,
                                 ChunkId chunk) {
  std::vector<PeerId> out;
  for (const PeerId nbr : neighbors) {
    if (eligible[nbr] && !drained[nbr] && peers.buffer(nbr).has(chunk)) {
      out.push_back(nbr);
    }
  }
  return out;
}

/// One visit of the walk as the kernel saw it.
struct Visited {
  ChunkId chunk;
  std::vector<PeerId> sellers;  ///< for_each order
  std::optional<PeerId> dropped;
};

/// Every view of one chunk's masked sellers must agree with each other:
/// for_each order, size(), empty(), nth() and peer() at every position.
/// Returns the sellers in for_each order.
template <class Sellers>
std::vector<PeerId> walked_sellers(const Sellers& sellers) {
  std::vector<std::size_t> bits;
  sellers.for_each([&](std::size_t bit) { bits.push_back(bit); });
  EXPECT_EQ(sellers.size(), bits.size());
  EXPECT_FALSE(sellers.empty());
  std::vector<PeerId> out;
  for (std::size_t n = 0; n < bits.size(); ++n) {
    EXPECT_EQ(sellers.nth(n), bits[n]) << "position " << n;
    out.push_back(sellers.peer(bits[n]));
  }
  return out;
}

TEST(CandidateMasks, MatchesNeighborScanOracle) {
  util::Rng rng(2012);
  // Instantiations seen: [window 48, 96, 130 -> 1, 2, 3 words] x
  // [1, 2, >2 words of eligible sellers].
  std::size_t widths_seen[3][3] = {};
  std::size_t drops = 0;
  std::size_t stops = 0;
  std::size_t early_exits = 0;
  std::size_t drained_misses = 0;
  // One object for every trial, as in the protocol: each phase must reset
  // whatever an earlier phase, of another width or window, left behind.
  CandidateMasks masks;
  for (int trial = 0; trial < 360; ++trial) {
    constexpr std::size_t kWindows[] = {48, 96, 130};
    const std::size_t window = kWindows[(trial / 3) % 3];
    // Neighbor counts spread over one, two and more than two mask words.
    constexpr std::size_t kMaxDegree[] = {64, 128, 260};
    const std::size_t degree = 1 + rng.uniform_index(kMaxDegree[trial % 3]);
    const std::size_t peers = degree + 1 + rng.uniform_index(20);
    const ChunkId base = rng.uniform_index(1000);

    PeerTable table(peers, window);
    const OwnerIndex index(table);
    const double own = rng.uniform(0.05, 0.95);
    for (PeerId id = 0; id < peers; ++id) {
      BufferMap& buffer = table.buffer(id);
      buffer.reset(base);
      // The buyer (peer 0) holds fewer chunks, so it wants many.
      const double p = id == 0 ? rng.uniform(0.0, 0.6) : own;
      for (ChunkId c = base; c < base + window; ++c) {
        if (rng.bernoulli(p)) buffer.set(c);
      }
    }
    const PeerId buyer = 0;
    // A neighbor list in shuffled id order, so neighbor order and bit
    // order are not id order.
    std::vector<PeerId> ids;
    for (PeerId id = 1; id < peers; ++id) ids.push_back(id);
    rng.shuffle(ids);
    const auto neighbors = std::span<const PeerId>(ids).first(degree);
    std::vector<bool> eligible(peers);
    const double p_eligible = trial % 5 == 0 ? 1.0 : rng.uniform(0.3, 1.0);
    for (PeerId id = 0; id < peers; ++id) {
      eligible[id] = rng.bernoulli(p_eligible);
    }
    // The freshest max_wanted missing chunks, newest first.
    const std::size_t max_wanted = 1 + rng.uniform_index(window);
    std::vector<ChunkId> wanted = table.buffer(buyer).missing();
    std::reverse(wanted.begin(), wanted.end());
    if (wanted.size() > max_wanted) wanted.resize(max_wanted);
    // Drop hard in some trials so that every seller drains mid-walk, and
    // stop early in others, as a spent budget does.
    const double p_drop = trial % 4 == 0 ? 0.9 : 0.3;
    const std::size_t stop_after =
        trial % 7 == 0 ? rng.uniform_index(6) : wanted.size();

    const auto num_eligible = static_cast<std::size_t>(
        std::count_if(neighbors.begin(), neighbors.end(),
                      [&](PeerId s) { return eligible[s]; }));
    std::vector<Visited> visits;
    std::vector<std::size_t> dropped_bits;
    CandidateMasks::Misses miss;
    bool walked = false;
    with_width(index.words_per_peer(), [&](auto win) {
      constexpr std::size_t kWin = decltype(win)::value;
      EXPECT_EQ(masks.want<kWin>(index, buyer, max_wanted), wanted.size());
      EXPECT_EQ(masks.filter(neighbors, [&](PeerId s) { return eligible[s]; }),
                num_eligible);
      if (num_eligible == 0 || wanted.empty()) return;
      EXPECT_EQ(masks.words(), (num_eligible + 63) / 64);
      ++widths_seen[index.words_per_peer() - 1]
                   [std::min<std::size_t>(masks.words(), 3) - 1];
      with_width(masks.words(), [&](auto sel) {
        constexpr std::size_t kSel = decltype(sel)::value;
        masks.scatter<kWin, kSel>(index);
        walked = true;
        miss = masks.walk<kWin, kSel>(
            [&] { return visits.size() >= stop_after; },
            [&](std::size_t offset, const auto& sellers) {
              Visited v{base + offset, walked_sellers(sellers), {}};
              if (rng.bernoulli(p_drop)) {
                // Drop by bit position, as the kernel does.
                std::vector<std::size_t> bits;
                sellers.for_each([&](std::size_t b) { bits.push_back(b); });
                const std::size_t bit = bits[rng.uniform_index(bits.size())];
                v.dropped = sellers.peer(bit);
                masks.drop(bit);
                dropped_bits.push_back(bit);
                ++drops;
              }
              if (!dropped_bits.empty() && rng.bernoulli(0.05)) {
                // Dropping a seller twice changes nothing.
                masks.drop(dropped_bits[rng.uniform_index(dropped_bits.size())]);
              }
              visits.push_back(std::move(v));
            });
      });
    });
    if (!walked) continue;

    // Replay the phase against the scan: the same chunks visited in the
    // same order with the same sellers, and every other chunk charged to
    // the right cause until the stop test first holds.
    std::vector<bool> drained(peers);
    const std::vector<bool> none(peers);
    std::size_t next = 0;
    std::size_t num_drained = 0;
    CandidateMasks::Misses expect;
    for (const ChunkId c : wanted) {
      if (next >= stop_after) {
        ++stops;
        break;
      }
      if (num_drained == num_eligible) ++early_exits;
      const auto sellers = scan_sellers(neighbors, table, eligible, drained, c);
      if (sellers.empty()) {
        if (scan_sellers(neighbors, table, eligible, none, c).empty()) {
          ++expect.no_seller;
        } else {
          ++expect.drained;
        }
        continue;
      }
      ASSERT_LT(next, visits.size()) << "chunk " << c << " was not visited";
      EXPECT_EQ(visits[next].chunk, c);
      EXPECT_EQ(visits[next].sellers, sellers) << "chunk " << c;
      if (HasFailure()) return;  // one diverging chunk tells the story
      if (visits[next].dropped) {
        drained[*visits[next].dropped] = true;
        ++num_drained;
      }
      ++next;
    }
    EXPECT_EQ(next, visits.size());
    EXPECT_EQ(miss.no_seller, expect.no_seller);
    EXPECT_EQ(miss.drained, expect.drained);
    drained_misses += expect.drained;
    if (HasFailure()) return;
  }
  for (const auto& rows : widths_seen) {
    for (const std::size_t seen : rows) EXPECT_GT(seen, 0u);
  }
  EXPECT_GT(drops, 100u);
  EXPECT_GT(stops, 10u);
  EXPECT_GT(early_exits, 10u) << "no walk outlived its last seller";
  EXPECT_GT(drained_misses, 10u);
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
  // Churn on a dense overlay: joins attach many links at once, and
  // departures leave their stale ownership bits behind, which no buyer may
  // read — at hub degrees every such slip would surface as a digest change.
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

TEST(OwnerIndexInvariant, DepartedSlotsAreNobodysNeighbor) {
  // A departed peer's ownership row keeps stale bits; the index is sound
  // only because no alive peer still lists a departed one as a neighbor.
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
  const Overlay& overlay = proto.overlay();
  std::size_t departed = 0;
  for (PeerId id = 0; id < cfg.max_peers; ++id) {
    if (proto.peer(id).alive) {
      for (const PeerId nbr : overlay.neighbors(id)) {
        EXPECT_TRUE(proto.peer(nbr).alive) << "peer " << id << " -> " << nbr;
      }
    } else {
      EXPECT_EQ(overlay.degree(id), 0u) << "peer " << id;
      ++departed;
    }
  }
  EXPECT_GT(departed, 0u);
}

/// Σ over every buyer phase of its failed_availability increments, and the
/// three cause counters, after `horizon` seconds of `cfg`.
struct FailureSplit {
  std::uint64_t availability = 0;
  std::uint64_t no_seller = 0;
  std::uint64_t drained = 0;
  std::uint64_t above_limit = 0;
};

FailureSplit failure_split(const ProtocolConfig& cfg, double horizon) {
  sim::Simulator sim;
  StreamingProtocol proto(cfg, sim);
  // Per-slot counters are zeroed when churn recycles a slot (only between
  // rounds), so sum them round by round: a slot whose join time changed
  // since the last round counts from zero.
  std::vector<std::uint64_t> last(cfg.max_peers, 0);
  std::vector<double> joined(cfg.max_peers, -1.0);
  FailureSplit out;
  proto.set_round_hook([&](std::uint64_t, double) {
    for (PeerId id = 0; id < cfg.max_peers; ++id) {
      const PeerState p = proto.peer(id);
      const std::uint64_t before = p.join_time == joined[id] ? last[id] : 0;
      out.availability += p.failed_availability - before;
      last[id] = p.failed_availability;
      joined[id] = p.join_time;
    }
  });
  proto.start();
  sim.run_until(horizon);
  const auto& m = proto.metrics();
  out.no_seller = m.counter("purchase.fail_no_seller");
  out.drained = m.counter("purchase.fail_drained");
  out.above_limit = m.counter("purchase.fail_above_limit");
  return out;
}

TEST(PurchaseCounters, FailureCausesSumToAvailabilityFailures) {
  auto churn = base_config(3);
  churn.churn.enabled = true;
  churn.churn.arrival_rate = 0.8;
  churn.churn.mean_lifespan = 40.0;
  churn.churn.join_links = 6;
  churn.upload_capacity = 1.0;  // sellers drain mid-phase
  const FailureSplit direct = failure_split(churn, 120.0);
  EXPECT_GT(direct.no_seller, 0u);
  EXPECT_GT(direct.drained, 0u);
  EXPECT_EQ(direct.above_limit, 0u);
  EXPECT_EQ(direct.no_seller + direct.drained + direct.above_limit,
            direct.availability);

  // obk02 with book.cross=2, under churn: fixed-markup asks at 2 sit at
  // the default limit of 2, so nothing is refused.
  auto obk02 = book_config(19);
  obk02.book.cross = BookConfig::CrossStrategy::kLimit;
  obk02.churn = churn.churn;
  const FailureSplit fixed = failure_split(obk02, 120.0);
  EXPECT_GT(fixed.no_seller, 0u);
  EXPECT_EQ(fixed.above_limit, 0u);
  EXPECT_EQ(fixed.no_seller + fixed.drained + fixed.above_limit,
            fixed.availability);

  // Adaptive asks climb past the limit, so limit buyers do refuse.
  auto adaptive = adaptive_book_config(11);
  adaptive.book.cross = BookConfig::CrossStrategy::kLimit;
  adaptive.book.limit_price = 2;
  const FailureSplit book = failure_split(adaptive, 80.0);
  EXPECT_GT(book.no_seller, 0u);
  EXPECT_GT(book.above_limit, 0u);
  EXPECT_EQ(book.no_seller + book.drained + book.above_limit,
            book.availability);
}

}  // namespace
}  // namespace creditflow::p2p
