// CreditFlow: the per-round chunk→owner index behind the streaming
// protocol's purchase phase, in both markets: the direct market's seller
// choice and the order book's crossing resolve their candidates through it
// (see "Both markets" below).
//
// The naive purchase loop rescans every neighbor for every missing chunk —
// O(window × degree) BufferMap::has calls per peer per round, the hot path
// called out in ROADMAP.md. The index replaces those scans with word-wide
// bit arithmetic: it mirrors every peer's window ownership as a 64-bit
// bitmap keyed by the same ring slot BufferMap uses (slot = chunk %
// window), maintained incrementally as chunks are seeded, purchased,
// evicted, and as peers join/leave. A buyer then resolves "which of my
// neighbors own chunk c and still have upload budget" for its whole
// shopping list at once: AND each eligible neighbor's ownership word(s)
// against the mask of wanted chunks and walk the set bits.
//
// Layout choice: the index is peer→chunk bitmaps, not a global chunk→owner
// list. A global owner list is the wrong shape twice over — in a healthy
// market most peers own most chunks (hundreds of owners per chunk vs a few
// dozen neighbors), and the protocol's tie-break contract (uniform choice /
// cheapest-ask over candidates *in the buyer's neighbor-list order*) would
// force a re-sort of every candidate set. Walking neighbors in list order
// and appending their owned-∧-wanted bits yields each chunk's candidate
// list already in neighbor order, so the indexed protocol reproduces the
// naive scan's RNG draws — and therefore its results — bit for bit.
//
// Both markets: a buyer phase first filters its neighbors down to the
// eligible sellers — upload budget left, and in the order book also a
// resting ask — then ANDs each eligible seller's ownership words with the
// wanted mask. A seller whose budget or ask drains mid-phase has its bit
// cleared from every wanted slot, so each chunk's crossing (best ask,
// fill-weighted, limit) or seller choice walks one slot mask instead of
// the neighbor list. The per-chunk neighbor scan survives only as the
// use_owner_index = false reference path the equivalence tests compare
// against.
//
// Slot-aliasing invariant: a bitmap slot only identifies a chunk relative
// to a window base, and the index stores no bases. That is sound because
// every alive peer shares the same window base whenever the index is
// queried (run_round advances all windows in lockstep before the purchase
// phase, and churn events never interleave with a round), and eviction
// clears bits before a slot is ever reused by a later chunk.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "p2p/chunk.hpp"
#include "p2p/ledger.hpp"

namespace creditflow::p2p {

class BufferMap;

/// Incrementally-maintained per-peer window-ownership bitmaps.
class OwnerIndex {
 public:
  /// Index for `max_peers` slots over windows of `window_capacity` chunks.
  OwnerIndex(std::size_t max_peers, std::size_t window_capacity);

  [[nodiscard]] std::size_t capacity() const { return max_peers_; }
  [[nodiscard]] std::size_t window_capacity() const { return window_; }
  /// 64-bit words per peer bitmap.
  [[nodiscard]] std::size_t words_per_peer() const { return words_; }

  /// Ring slot of a chunk id (identical to BufferMap's mapping).
  [[nodiscard]] std::size_t slot(ChunkId c) const {
    return static_cast<std::size_t>(c % window_);
  }

  // ---- Incremental maintenance (mirrors BufferMap mutations) -------------

  /// Peer now holds `c` (delivered, seeded, or warm-started). Inline: this
  /// runs once per chunk delivery, squarely on the hot path.
  void on_gain(PeerId peer, ChunkId c) {
    const std::size_t s = slot(c);
    bits_[peer * words_ + s / 64] |= std::uint64_t{1} << (s % 64);
  }
  /// Peer's window advanced from `old_base` to `new_base`: chunks falling
  /// out of the window are evicted (same clearing rule as
  /// BufferMap::advance).
  void on_advance(PeerId peer, ChunkId old_base, ChunkId new_base);
  /// Peer left the market or reset its window: drop all ownership bits.
  void on_clear(PeerId peer);

  // ---- Queries ------------------------------------------------------------

  /// The peer's ownership bitmap (words_per_peer() words; bit `slot(c)`
  /// set ⟺ the peer holds chunk c of the current window). Inline: the
  /// purchase phase reads one bitmap per neighbor per buyer.
  [[nodiscard]] std::span<const std::uint64_t> owned(PeerId peer) const {
    return {bits_.data() + peer * words_, words_};
  }

  /// True when the peer's bitmap matches the buffer's contents bit for bit
  /// (invariant check for tests; O(window)).
  [[nodiscard]] bool mirrors(PeerId peer, const BufferMap& buffer) const;

 private:
  std::size_t max_peers_;
  std::size_t window_;
  std::size_t words_;
  std::vector<std::uint64_t> bits_;  ///< max_peers_ × words_, row-major
};

}  // namespace creditflow::p2p
