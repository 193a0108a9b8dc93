// CreditFlow: the per-round chunk→owner index behind the streaming
// protocol's purchase phase, in both markets: the direct market's seller
// choice and the order book's crossing resolve their candidates through it
// (see "Both markets" below).
//
// A naive purchase loop rescans every neighbor for every missing chunk —
// O(window × degree) BufferMap::has calls per peer per round, the hot path
// called out in ROADMAP.md. The index replaces those scans with word-wide
// bit arithmetic. It keeps no bits of its own: every peer's BufferMap
// already stores its window as a ring bitmap (bit chunk % window set ⟺
// chunk held) in the PeerTable's word arena, one fixed-size row per slot,
// so the index is a view that hands out each peer's row of that arena in
// place. A buyer then resolves "which of my neighbors own chunk c and
// still have upload budget" for its whole shopping list at once: AND each
// eligible neighbor's ownership word(s) against the mask of wanted chunks
// and walk the set bits.
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
// resting ask — then CandidateMasks ANDs each eligible seller's ownership
// words with the wanted mask. A seller whose budget or ask drains mid-phase
// has its bit cleared from every wanted slot, so each chunk's crossing
// (best ask, fill-weighted, limit) or seller choice walks one slot mask
// instead of the neighbor list. The per-chunk neighbor scan this replaces
// lives on only in tests/test_owner_index.cpp, as the oracle CandidateMasks
// is checked against.
//
// Slot-aliasing invariant: a bitmap slot only identifies a chunk relative
// to a window base, and the index reads no bases. That is sound because
// every alive peer shares the same window base whenever the index is
// queried (run_round advances all windows in lockstep before the purchase
// phase, and churn events never interleave with a round), and eviction
// clears bits before a slot is ever reused by a later chunk. A departed
// peer's row keeps the bits it left with (its window stops advancing), but
// a departed peer holds no overlay edges, so no buyer's phase reads it; the
// slot's next occupant starts from BufferMap::reset, which clears the row.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "p2p/chunk.hpp"
#include "p2p/ledger.hpp"
#include "p2p/peer.hpp"
#include "util/assert.hpp"

namespace creditflow::p2p {

/// Every peer's window-ownership bitmap, read in place from the
/// PeerTable's buffer arena. Holds no bits of its own; valid as long as the
/// table it views.
class OwnerIndex {
 public:
  explicit OwnerIndex(const PeerTable& peers)
      : words_(peers.buffer_words()),
        window_(peers.window_chunks()),
        words_per_peer_(BufferMap::words_for(window_)) {}

  [[nodiscard]] std::size_t window_capacity() const { return window_; }
  /// 64-bit words per peer bitmap.
  [[nodiscard]] std::size_t words_per_peer() const { return words_per_peer_; }

  /// Ring slot of a chunk id (identical to BufferMap's mapping).
  [[nodiscard]] std::size_t slot(ChunkId c) const {
    return static_cast<std::size_t>(c % window_);
  }

  /// The peer's ownership bitmap (words_per_peer() words; bit `slot(c)`
  /// set ⟺ the peer holds chunk c of its current window). Inline: the
  /// purchase phase reads one bitmap per neighbor per buyer.
  [[nodiscard]] std::span<const std::uint64_t> owned(PeerId peer) const {
    return {words_ + peer * words_per_peer_, words_per_peer_};
  }

 private:
  const std::uint64_t* words_;
  std::size_t window_;
  std::size_t words_per_peer_;
};

/// One buyer phase's candidate sellers for each wanted chunk: one bitmask
/// per window slot over the phase's eligible sellers (bit j of slot s set
/// ⟺ eligible seller j owns the wanted chunk at slot s). Eligible sellers
/// keep the buyer's neighbor-list order, the tie-break order every seller
/// choice depends on, so ascending bit position IS neighbor order. The
/// buffers are kept across phases, so a warmed-up market builds its masks
/// without allocating.
class CandidateMasks {
 public:
  /// One wanted chunk's sellers as the set bits of its slot mask, kWords
  /// words wide (0: `words`, a run-time width). A walk of the mask visits
  /// the sellers in neighbor order.
  template <std::size_t kWords>
  struct Sellers {
    const std::uint64_t* mask;
    const PeerId* eligible;
    std::size_t words = kWords;

    [[nodiscard]] std::size_t width() const {
      if constexpr (kWords != 0) {
        return kWords;
      } else {
        return words;
      }
    }
    [[nodiscard]] bool empty() const {
      for (std::size_t w = 0; w < width(); ++w) {
        if (mask[w] != 0) return false;
      }
      return true;
    }
    [[nodiscard]] std::size_t size() const {
      std::size_t n = 0;
      for (std::size_t w = 0; w < width(); ++w) {
        n += static_cast<std::size_t>(std::popcount(mask[w]));
      }
      return n;
    }
    /// The n-th (0-based) seller: the n-th set bit across the words.
    [[nodiscard]] PeerId operator[](std::size_t n) const {
      for (std::size_t w = 0; w < width(); ++w) {
        const auto c = static_cast<std::size_t>(std::popcount(mask[w]));
        if (n < c) {
          std::uint64_t m = mask[w];
          for (; n > 0; --n) m &= m - 1;
          return eligible[w * 64 +
                          static_cast<std::size_t>(std::countr_zero(m))];
        }
        n -= c;
      }
      CF_ENSURES_MSG(false, "CandidateMasks: fewer sellers than requested");
      return 0;  // unreachable
    }
    template <class Fn>
    void for_each(Fn&& fn) const {
      for (std::size_t w = 0; w < width(); ++w) {
        std::uint64_t m = mask[w];
        while (m != 0) {
          fn(eligible[w * 64 + static_cast<std::size_t>(std::countr_zero(m))]);
          m &= m - 1;
        }
      }
    }
  };

  /// Start a phase: keep the `neighbors` for which `is_eligible(id)` holds,
  /// in order, and build the mask of every `wanted` chunk (all inside the
  /// window starting at `window_base`). Returns false, with no masks
  /// built, when no neighbor is eligible.
  template <class Eligible>
  bool build(const OwnerIndex& index, std::span<const PeerId> neighbors,
             std::span<const ChunkId> wanted, ChunkId window_base,
             Eligible&& is_eligible) {
    eligible_.clear();
    for (const PeerId nbr : neighbors) {
      if (is_eligible(nbr)) eligible_.push_back(nbr);
    }
    if (eligible_.empty()) return false;
    scatter(index, wanted, window_base);
    return true;
  }

  /// Eligible sellers of the last build().
  [[nodiscard]] std::size_t num_eligible() const { return eligible_.size(); }
  /// Words per slot mask of the last successful build().
  [[nodiscard]] std::size_t words() const { return words_; }

  /// Call `fn` with the sellers of wanted chunk `c` at the phase's mask
  /// width (Sellers<1>, Sellers<2>, or the run-time-width Sellers<0>) and
  /// return its result.
  template <class Fn>
  decltype(auto) visit(ChunkId c, Fn&& fn) const {
    const std::uint64_t* mask = masks_.data() + slot(c) * words_;
    switch (words_) {
      case 1:
        return fn(Sellers<1>{mask, eligible_.data()});
      case 2:
        return fn(Sellers<2>{mask, eligible_.data()});
      default:
        return fn(Sellers<0>{mask, eligible_.data(), words_});
    }
  }

  /// `seller` can no longer serve this phase (its upload budget or resting
  /// ask drained): clear its bit from every `wanted` slot so later chunks
  /// skip it. A no-op for a peer that is not eligible.
  void drop(PeerId seller, std::span<const ChunkId> wanted);

 private:
  /// OwnerIndex::slot without the per-chunk hardware divide: every chunk a
  /// phase touches sits in [base_, base_ + window_), so one wrapping add
  /// from the base slot (computed once per phase) suffices.
  [[nodiscard]] std::size_t slot(ChunkId c) const {
    std::size_t s = base_slot_ + static_cast<std::size_t>(c - base_);
    if (s >= window_) s -= window_;
    return s;
  }
  void scatter(const OwnerIndex& index, std::span<const ChunkId> wanted,
               ChunkId window_base);

  std::vector<PeerId> eligible_;       ///< in neighbor-list order
  std::vector<std::uint64_t> masks_;   ///< window_ × words_, row-major
  std::vector<std::uint64_t> wanted_;  ///< wanted-slot mask (owner-row wide)
  std::size_t words_ = 0;
  std::size_t window_ = 1;
  ChunkId base_ = 0;
  std::size_t base_slot_ = 0;
};

}  // namespace creditflow::p2p
