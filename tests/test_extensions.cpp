// Tests for the extension features: auction seller choice (paper future
// work) and periodic credit injection (the inflation remedy), plus
// randomized fuzz checks of the ledger and buffer map against reference
// implementations.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/market.hpp"
#include "p2p/chunk.hpp"
#include "p2p/ledger.hpp"
#include "util/rng.hpp"

namespace creditflow {
namespace {

core::MarketConfig base_config() {
  core::MarketConfig cfg;
  cfg.protocol.initial_peers = 64;
  cfg.protocol.max_peers = 64;
  cfg.protocol.initial_credits = 60;
  cfg.protocol.seed = 9;
  cfg.horizon = 200.0;
  cfg.snapshot_interval = 50.0;
  return cfg;
}

TEST(AuctionSellerChoice, RunsAndPaysLowerAveragePrices) {
  auto run_mean_price = [](p2p::ProtocolConfig::SellerChoice choice) {
    auto cfg = base_config();
    cfg.protocol.pricing.kind = econ::PricingKind::kPoisson;
    cfg.protocol.pricing.poisson_mean = 1.0;
    cfg.protocol.seller_choice = choice;
    core::CreditMarket market(cfg);
    const auto report = market.run();
    EXPECT_TRUE(report.ledger_conserved);
    EXPECT_GT(report.transactions, 0u);
    return static_cast<double>(report.volume) /
           static_cast<double>(report.transactions);
  };
  const double uniform_price = run_mean_price(
      p2p::ProtocolConfig::SellerChoice::kAvailabilityUniform);
  const double auction_price =
      run_mean_price(p2p::ProtocolConfig::SellerChoice::kCheapestAsk);
  // Buying from the cheapest owner strictly lowers the mean paid price.
  EXPECT_LT(auction_price, uniform_price);
}

TEST(CreditInjection, GrowsMoneySupplyAndIsAudited) {
  auto cfg = base_config();
  cfg.protocol.injection.enabled = true;
  cfg.protocol.injection.interval_seconds = 20.0;
  cfg.protocol.injection.credits_per_peer = 2;
  core::CreditMarket market(cfg);
  const auto report = market.run();
  EXPECT_TRUE(report.ledger_conserved);
  // 200 s / 20 s = 10 injections of 2 credits to 64 peers, on top of the
  // 64 * 60 endowment.
  const auto& ledger = market.protocol().ledger();
  EXPECT_EQ(ledger.total_minted(), 64u * 60u + 10u * 2u * 64u);
  EXPECT_GT(report.final_wealth.mean, 60.0);
}

TEST(CreditInjection, RejectsBadPolicy) {
  auto cfg = base_config();
  cfg.protocol.injection.enabled = true;
  cfg.protocol.injection.interval_seconds = 0.0;
  sim::Simulator sim;
  EXPECT_THROW(p2p::StreamingProtocol(cfg.protocol, sim),
               util::PreconditionError);
}

// ---- Fuzz: CreditLedger against a simple map-based reference ------------

TEST(LedgerFuzz, MatchesReferenceUnderRandomOperations) {
  util::Rng rng(4242);
  p2p::CreditLedger ledger(32);
  std::map<p2p::PeerId, std::uint64_t> reference;
  std::uint64_t ref_treasury = 0;
  std::uint64_t ref_minted = 0;
  std::uint64_t ref_burned = 0;

  for (int op = 0; op < 20000; ++op) {
    const auto peer = static_cast<p2p::PeerId>(rng.uniform_index(32));
    switch (rng.uniform_index(5)) {
      case 0: {  // mint
        const auto amount = rng.uniform_index(50);
        ledger.mint(peer, amount);
        reference[peer] += amount;
        ref_minted += amount;
        break;
      }
      case 1: {  // transfer
        const auto to = static_cast<p2p::PeerId>(rng.uniform_index(32));
        const auto amount = rng.uniform_index(80);
        const bool ok = ledger.transfer(peer, to, amount);
        if (reference[peer] >= amount) {
          EXPECT_TRUE(ok);
          reference[peer] -= amount;
          reference[to] += amount;
        } else {
          EXPECT_FALSE(ok);
        }
        break;
      }
      case 2: {  // burn
        const auto burned = ledger.burn_all(peer);
        EXPECT_EQ(burned, reference[peer]);
        ref_burned += reference[peer];
        reference[peer] = 0;
        break;
      }
      case 3: {  // tax
        const auto want = rng.uniform_index(30);
        const auto got = ledger.collect_tax(peer, want);
        const auto expected = std::min<std::uint64_t>(want, reference[peer]);
        EXPECT_EQ(got, expected);
        reference[peer] -= expected;
        ref_treasury += expected;
        break;
      }
      case 4: {  // redistribute when possible
        if (ref_treasury >= 32) {
          std::vector<p2p::PeerId> everyone;
          for (p2p::PeerId i = 0; i < 32; ++i) everyone.push_back(i);
          ledger.redistribute(everyone);
          for (p2p::PeerId i = 0; i < 32; ++i) ++reference[i];
          ref_treasury -= 32;
        }
        break;
      }
    }
    ASSERT_TRUE(ledger.audit());
  }
  for (p2p::PeerId i = 0; i < 32; ++i) {
    EXPECT_EQ(ledger.balance(i), reference[i]);
  }
  EXPECT_EQ(ledger.treasury(), ref_treasury);
  EXPECT_EQ(ledger.total_minted(), ref_minted);
  EXPECT_EQ(ledger.total_burned(), ref_burned);
}

// ---- Fuzz: BufferMap against a std::set reference ------------------------

TEST(BufferMapFuzz, MatchesSetReference) {
  util::Rng rng(777);
  p2p::BufferMap buffer(24);
  std::set<p2p::ChunkId> reference;
  p2p::ChunkId base = 0;

  for (int op = 0; op < 30000; ++op) {
    switch (rng.uniform_index(3)) {
      case 0: {  // set a chunk near the window
        const auto c = base + rng.uniform_index(30);
        const bool in_window = c >= base && c < base + 24;
        const bool fresh = in_window && reference.count(c) == 0;
        EXPECT_EQ(buffer.set(c), fresh);
        if (fresh) reference.insert(c);
        break;
      }
      case 1: {  // advance by a small step
        const auto step = rng.uniform_index(4);
        base += step;
        std::size_t evicted = 0;
        for (auto it = reference.begin(); it != reference.end();) {
          if (*it < base) {
            it = reference.erase(it);
            ++evicted;
          } else {
            ++it;
          }
        }
        EXPECT_EQ(buffer.advance(base), evicted);
        break;
      }
      case 2: {  // query
        const auto c = base + rng.uniform_index(30);
        EXPECT_EQ(buffer.has(c), reference.count(c) == 1);
        EXPECT_EQ(buffer.count(), reference.size());
        break;
      }
    }
  }
  // Final cross-check of the missing list.
  const auto missing = buffer.missing();
  for (const auto c : missing) EXPECT_EQ(reference.count(c), 0u);
  EXPECT_EQ(missing.size() + reference.size(), 24u);
}

}  // namespace
}  // namespace creditflow
