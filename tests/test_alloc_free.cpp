// Counting-allocator regression test: the steady-state simulation round
// loop must perform zero heap allocations once warmed up.
//
// Global operator new/delete are replaced with counting versions for this
// whole test binary; the test warms a market past the point where every
// scratch buffer, event-queue slot, and metric cell has reached its
// steady-state capacity, then asserts the allocation counter does not move
// across a block of further rounds. This pins the tentpole property of the
// allocation-free core end to end — window advance, seeding, the purchase
// phase, taxation, and the event queue's fire/reschedule cycle — not just
// one subsystem. Membership churn gets its own burst test: the overlay's
// fixed-size row arena makes join/leave heap-silent, so a warmed overlay
// must absorb sustained join/leave bursts at zero allocations.
// (The protocol's churn *events* still allocate one std::function per
// scheduled departure — simulator bookkeeping, not market state.)
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "graph/generators.hpp"
#include "p2p/overlay.hpp"
#include "p2p/protocol.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

// GCC pairs `new` expressions it inlines with our malloc-backed
// replacement delete and flags the malloc/free mismatch it cannot see
// through; the pairing is exactly what a replaced global allocator does.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size) == 0) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace creditflow {
namespace {

std::uint64_t allocations_during_rounds(p2p::ProtocolConfig cfg,
                                        double warmup_until,
                                        double measure_rounds) {
  sim::Simulator simulator;
  p2p::StreamingProtocol proto(cfg, simulator);
  proto.start();
  simulator.run_until(warmup_until);
  const std::uint64_t before = g_allocations.load();
  simulator.run_until(warmup_until + measure_rounds);
  return g_allocations.load() - before;
}

TEST(AllocationFreeCore, SteadyStateRoundLoopDoesNotAllocate) {
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = 300;
  cfg.max_peers = 300;
  cfg.initial_credits = 100;
  cfg.seed = 11;
  EXPECT_EQ(allocations_during_rounds(cfg, 100.0, 50.0), 0u)
      << "the steady-state round loop allocated";
}

TEST(AllocationFreeCore, TaxationRoundsDoNotAllocate) {
  // Taxation exercises the redistribution walk over the active span and
  // the cached tax.redistributions counter cell. The per-peer fractional
  // liability map stops inserting once every peer has earned at least
  // once, which the warm-up guarantees for this deterministic market.
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = 300;
  cfg.max_peers = 300;
  cfg.initial_credits = 100;
  cfg.seed = 12;
  cfg.tax.enabled = true;
  cfg.tax.rate = 0.1;
  cfg.tax.threshold = 50.0;
  EXPECT_EQ(allocations_during_rounds(cfg, 150.0, 50.0), 0u)
      << "the taxation round loop allocated";
}

TEST(AllocationFreeCore, OverlayJoinLeaveBurstsDoNotAllocate) {
  // The row-arena property head on: once the overlay has seen its
  // high-water population once (join-weight scratch at capacity),
  // arbitrary join/leave bursts — including the lowest-inactive-slot scan
  // every protocol arrival performs — and a hub row growing far past its
  // initial room move rows inside the arena and nothing else. Zero
  // allocations, not amortized.
  util::Rng rng(14);
  graph::ScaleFreeParams sf;
  sf.target_mean_degree = 20.0;
  const auto g = graph::scale_free(300, sf, rng);
  p2p::Overlay overlay(420);
  overlay.init_from_graph(g);
  // Warm-up: drive membership to the slot capacity once, then carve out
  // the churn headroom the burst will recycle.
  for (std::uint32_t p = 300; p < 420; ++p) overlay.join(p, 10, rng);
  for (std::uint32_t p = 350; p < 420; ++p) overlay.leave(p);

  const std::uint32_t hub = 7;
  const std::size_t hub_degree = overlay.degree(hub);
  const std::uint64_t before = g_allocations.load();
  for (int round = 0; round < 100; ++round) {
    for (int k = 0; k < 20; ++k) {
      const auto slot = overlay.lowest_inactive_slot();
      ASSERT_TRUE(slot.has_value());
      overlay.join(*slot, 10, rng);
    }
    for (std::uint32_t p = 350; p < 370; ++p) overlay.leave(p);
    // The hub links to three more bootstrap peers each round.
    for (std::uint32_t k = 0; k < 3; ++k) {
      (void)overlay.add_edge(hub, static_cast<std::uint32_t>(3 * round + k));
    }
  }
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << "join/leave burst allocated on the row arena";
  EXPECT_GT(overlay.degree(hub), 4 * hub_degree)
      << "the hub row never outgrew its initial room";
  EXPECT_EQ(overlay.edges_dropped(), 0u)
      << "row arena too small for the burst";
}

TEST(AllocationFreeCore, OrderBookSteadyStateDoesNotAllocate) {
  // The PR-8 acceptance property: with purchases routed through the order
  // book (posting, adaptive repricing, crossing, partial fills, drain
  // expiry every round), the warmed round loop still never touches the
  // heap — the book is pooled cells and intrusive lists, constructed once.
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = 300;
  cfg.max_peers = 300;
  cfg.initial_credits = 100;
  cfg.seed = 15;
  cfg.market_mode = p2p::ProtocolConfig::MarketMode::kOrderBook;
  cfg.book.ask_pricing =
      p2p::ProtocolConfig::OrderBookConfig::AskPricing::kAdaptive;
  cfg.book.base_price = 2;
  cfg.book.seller_fraction = 0.7;
  EXPECT_EQ(allocations_during_rounds(cfg, 100.0, 50.0), 0u)
      << "the order-book round loop allocated";
}

TEST(AllocationFreeCore, StrategyLayerSteadyStateDoesNotAllocate) {
  // The strategy-layer acceptance property: with every adversarial
  // population live at once — free-riders zeroing budgets, whitewashers
  // cycling identities through departure/re-activation, collusion rings
  // washing credit, and staked seeders locking/revalidating bonds — the
  // warmed round loop still never touches the heap. The colluder/staked
  // scratch vectors are reserved at construction; whitewash resets reuse
  // the churn path's pooled overlay slots. (Whitewash cycles do schedule
  // departure events only under timed churn, which is off here — the
  // strategy reset path itself is event-free.)
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = 300;
  cfg.max_peers = 300;
  cfg.initial_credits = 100;
  cfg.seed = 16;
  cfg.strat.free_rider_fraction = 0.1;
  cfg.strat.whitewash_fraction = 0.1;
  cfg.strat.whitewash_threshold = 40.0;
  cfg.strat.collude_fraction = 0.1;
  cfg.strat.collude_clique = 3;
  cfg.strat.collude_amount = 1;
  cfg.strat.staked_fraction = 0.1;
  cfg.strat.stake_amount = 20;
  cfg.strat.revalidate_rounds = 8;
  EXPECT_EQ(allocations_during_rounds(cfg, 100.0, 50.0), 0u)
      << "the strategy-enabled round loop allocated";
}

TEST(AllocationFreeCore, TracingEnabledSteadyStateDoesNotAllocate) {
  // With the span tracer live, steady-state rounds must still be
  // allocation-free: spans write into pre-reserved thread-local rings.
  // enable() happens before the warm-up so the one-time ring registration
  // (the only allocating step) lands outside the measured window.
  util::Tracer::instance().enable();
  p2p::ProtocolConfig cfg;
  cfg.initial_peers = 300;
  cfg.max_peers = 300;
  cfg.initial_credits = 100;
  cfg.seed = 13;
  EXPECT_EQ(allocations_during_rounds(cfg, 100.0, 50.0), 0u)
      << "the traced steady-state round loop allocated";
  util::Tracer::instance().disable();
  util::Tracer::instance().clear();
}

}  // namespace
}  // namespace creditflow
