// CreditFlow: the per-round chunk→owner index behind the streaming
// protocol's purchase phase, in both markets: the direct market's seller
// choice and the order book's crossing resolve their candidates through it
// (see "Both markets" below).
//
// A naive purchase loop rescans every neighbor for every missing chunk —
// O(window × degree) BufferMap::has calls per peer per round, the hot path
// called out in ROADMAP.md. The index replaces those scans with word-wide
// bit arithmetic. It keeps no bits of its own: every peer's BufferMap
// already stores its window as an age-ordered bitmap (bit i set ⟺ chunk
// base + i held; see p2p/chunk.hpp) in the PeerTable's word arena, one
// fixed-size row per slot, so the index is a view that hands out each
// peer's row of that arena in place. A buyer then resolves "which of my
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
// One buyer phase, as CandidateMasks runs it, works on masks from start to
// end:
//  1. want: the complement of the buyer's own row, cut to its freshest
//     `max_wanted` bits. Walking it from the highest bit down is the
//     freshest-first purchase order.
//  2. filter: the neighbors that can sell (upload budget left, and in the
//     order book also a resting ask), compacted in neighbor-list order.
//     Eligible seller j is bit j of every seller mask, so ascending bit
//     position IS neighbor order. A `live` mask over them starts full.
//  3. scatter: each eligible seller's row ANDed with `want`; the results
//     ORed give `avail`, the wanted chunks some eligible seller owns, and
//     each of their bits is scattered into that chunk's slot mask.
//  4. walk: visit the bits of `want ∧ avail`, freshest first, with
//     candidates `slot mask ∧ live`. A seller whose budget or ask drains
//     mid-phase leaves by one bit of `live` (drop). Chunks outside `avail`
//     are charged as no-seller failures by popcount, without a visit, and
//     once `live` is empty every chunk left is charged the same way.
// Skipping is exact: an empty candidate set draws no RNG (the walk never
// hands one to a seller choice), and an availability failure changes
// neither the buyer's purchases nor its budget, so the caller's stop test
// gives the same answer at every chunk between two visited ones. The
// per-chunk neighbor scan this replaces lives on only in
// tests/test_owner_index.cpp, as the oracle CandidateMasks is checked
// against.
//
// Both markets: only the eligibility filter differs (the order book also
// needs a resting ask), so each chunk's crossing (best ask, fill-weighted,
// limit) or seller choice walks one slot mask instead of the neighbor list.
//
// Slot-aliasing invariant: a row's bit i only means "chunk base + i" for
// that row's own BufferMap::base(), and the index reads no bases. That is
// sound because every alive peer shares the same window base whenever the
// index is queried (run_round advances all windows in lockstep before the
// purchase phase, arrivals reset to the current base, and churn events
// never interleave with a round), so bit i of every row read names the same
// chunk. A departed peer's row keeps the bits it left with (its window
// stops advancing, so they go stale), but a departed peer holds no overlay
// edges, so no buyer's phase reads it; the slot's next occupant starts from
// BufferMap::reset, which clears the row.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>
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

  /// The peer's ownership bitmap (words_per_peer() words; bit i set ⟺ the
  /// peer holds chunk base + i of its current window). Inline: the
  /// purchase phase reads one bitmap per neighbor per buyer.
  [[nodiscard]] std::span<const std::uint64_t> owned(PeerId peer) const {
    return {words_ + peer * words_per_peer_, words_per_peer_};
  }

 private:
  const std::uint64_t* words_;
  std::size_t window_;
  std::size_t words_per_peer_;
};

/// Call `fn` with a mask width as a compile-time constant:
/// std::integral_constant<std::size_t, 1 or 2>, or 0 for every wider
/// (run-time) width. The purchase kernel is instantiated per pair of
/// window and seller widths through this.
template <class Fn>
decltype(auto) with_width(std::size_t words, Fn&& fn) {
  switch (words) {
    case 1:
      return fn(std::integral_constant<std::size_t, 1>{});
    case 2:
      return fn(std::integral_constant<std::size_t, 2>{});
    default:
      return fn(std::integral_constant<std::size_t, 0>{});
  }
}

/// One buyer phase's wanted chunks and their candidate sellers, as masks
/// (the four steps in the header comment). Seller masks are kSel words
/// over the phase's eligible sellers; window masks are kWin words over the
/// window's chunks by age. Each width is 1, 2, or 0 for a run-time width.
/// The buffers are kept across phases, so a warmed-up market runs its
/// phases without allocating.
class CandidateMasks {
 public:
  /// One wanted chunk's sellers: the set bits of `mask ∧ live`, kWords
  /// words wide (0: `words`, a run-time width). Sellers are named by bit
  /// position (their index among the eligible sellers); a walk of the mask
  /// visits them in neighbor order.
  template <std::size_t kWords>
  struct Sellers {
    const std::uint64_t* mask;
    const std::uint64_t* live;
    const PeerId* eligible;
    std::size_t words = kWords;

    [[nodiscard]] std::size_t width() const {
      if constexpr (kWords != 0) {
        return kWords;
      } else {
        return words;
      }
    }
    [[nodiscard]] std::uint64_t word(std::size_t w) const {
      return mask[w] & live[w];
    }
    [[nodiscard]] bool empty() const {
      for (std::size_t w = 0; w < width(); ++w) {
        if (word(w) != 0) return false;
      }
      return true;
    }
    [[nodiscard]] std::size_t size() const {
      std::size_t n = 0;
      for (std::size_t w = 0; w < width(); ++w) {
        n += static_cast<std::size_t>(std::popcount(word(w)));
      }
      return n;
    }
    /// Bit position of the n-th (0-based) seller: the n-th set bit across
    /// the words.
    [[nodiscard]] std::size_t nth(std::size_t n) const {
      for (std::size_t w = 0; w < width(); ++w) {
        std::uint64_t m = word(w);
        const auto c = static_cast<std::size_t>(std::popcount(m));
        if (n < c) {
          for (; n > 0; --n) m &= m - 1;
          return w * 64 + static_cast<std::size_t>(std::countr_zero(m));
        }
        n -= c;
      }
      CF_ENSURES_MSG(false, "CandidateMasks: fewer sellers than requested");
      return 0;  // unreachable
    }
    /// The seller at bit position `bit`.
    [[nodiscard]] PeerId peer(std::size_t bit) const { return eligible[bit]; }
    /// Call `fn(bit)` for every seller, in neighbor order.
    template <class Fn>
    void for_each(Fn&& fn) const {
      for (std::size_t w = 0; w < width(); ++w) {
        std::uint64_t m = word(w);
        while (m != 0) {
          fn(w * 64 + static_cast<std::size_t>(std::countr_zero(m)));
          m &= m - 1;
        }
      }
    }
  };

  /// Availability failures of one walk, by cause.
  struct Misses {
    /// No eligible seller owned the chunk when the phase started.
    std::uint64_t no_seller = 0;
    /// Every eligible owner of the chunk drained earlier in the phase.
    std::uint64_t drained = 0;
  };

  /// Step 1: the buyer's wanted chunks, the freshest `max_wanted` of those
  /// missing from its row in `index`. Returns how many.
  template <std::size_t kWin>
  std::size_t want(const OwnerIndex& index, PeerId buyer,
                   std::size_t max_wanted) {
    const std::size_t words = width<kWin>(index.words_per_peer());
    window_words_ = words;
    if (want_.size() < words) {
      want_.resize(words);
      avail_.resize(words);
    }
    const std::uint64_t* own = index.owned(buyer).data();
    const std::size_t tail = index.window_capacity() % 64;
    std::size_t n = 0;
    for (std::size_t w = 0; w < words; ++w) {
      want_[w] = ~own[w];
      n += static_cast<std::size_t>(std::popcount(want_[w]));
    }
    if (tail != 0) {
      const std::uint64_t beyond = ~std::uint64_t{0} << tail;
      n -= static_cast<std::size_t>(std::popcount(want_[words - 1] & beyond));
      want_[words - 1] &= ~beyond;
    }
    if (n > max_wanted) {
      // Keep the freshest max_wanted bits: clear from the oldest end.
      std::size_t excess = n - max_wanted;
      for (std::size_t w = 0; excess > 0; ++w) {
        const auto c = static_cast<std::size_t>(std::popcount(want_[w]));
        if (c <= excess) {
          want_[w] = 0;
          excess -= c;
        } else {
          for (; excess > 0; --excess) want_[w] &= want_[w] - 1;
        }
      }
      n = max_wanted;
    }
    return n;
  }

  /// Step 2: keep the `neighbors` for which `is_eligible(id)` holds, in
  /// order, and mark them all live. Returns how many.
  template <class Eligible>
  std::size_t filter(std::span<const PeerId> neighbors,
                     Eligible&& is_eligible) {
    if (eligible_.size() < neighbors.size()) {
      eligible_.resize(neighbors.size());
    }
    PeerId* out = eligible_.data();
    std::size_t n = 0;
    for (const PeerId nbr : neighbors) {
      out[n] = nbr;
      n += is_eligible(nbr) ? 1 : 0;
    }
    num_eligible_ = n;
    words_ = (n + 63) / 64;
    if (live_.size() < words_) live_.resize(words_);
    for (std::size_t w = 0; w < words_; ++w) {
      const std::size_t in_word = std::min<std::size_t>(n - w * 64, 64);
      live_[w] = in_word == 64 ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << in_word) - 1;
    }
    live_count_ = n;
    return n;
  }

  /// Words per seller mask of the last filter().
  [[nodiscard]] std::size_t words() const { return words_; }

  /// Step 3: the slot mask of every wanted chunk some eligible seller owns,
  /// and `avail`. Requires want() and a non-empty filter() first.
  template <std::size_t kWin, std::size_t kSel>
  void scatter(const OwnerIndex& index) {
    const std::size_t win = width<kWin>(window_words_);
    const std::size_t sel = width<kSel>(words_);
    const std::size_t needed = win * 64 * sel;
    if (masks_.size() < needed) masks_.resize(needed);
    std::uint64_t* masks = masks_.data();
    const std::uint64_t* want = want_.data();
    for (std::size_t w = 0; w < win; ++w) {
      avail_[w] = 0;
      for (std::uint64_t m = want[w]; m != 0; m &= m - 1) {
        const auto s = w * 64 + static_cast<std::size_t>(std::countr_zero(m));
        std::fill_n(masks + s * sel, sel, std::uint64_t{0});
      }
    }
    for (std::size_t j = 0; j < num_eligible_; ++j) {
      const std::uint64_t* row = index.owned(eligible_[j]).data();
      const std::uint64_t bit = std::uint64_t{1} << (j & 63);
      std::uint64_t* column = masks + (j >> 6);
      for (std::size_t w = 0; w < win; ++w) {
        std::uint64_t m = row[w] & want[w];
        avail_[w] |= m;
        while (m != 0) {
          const auto s =
              w * 64 + static_cast<std::size_t>(std::countr_zero(m));
          m &= m - 1;
          column[s * sel] |= bit;
        }
      }
    }
  }

  /// Step 4: walk the wanted chunks freshest first. At each chunk, first
  /// `stop()` may end the walk; then a chunk with candidates gets
  /// `visit(offset, sellers)` (offset = the chunk's age from the window
  /// base, sellers a non-empty Sellers<kSel>), and one without is charged
  /// to the returned Misses. Chunks no eligible seller owns are charged in
  /// runs between visits with a single stop() test for the run, and once
  /// every seller is dropped the rest is charged at once: exact as long
  /// as stop() only changes its answer inside a visit.
  template <std::size_t kWin, std::size_t kSel, class Stop, class Visit>
  Misses walk(Stop&& stop, Visit&& visit) {
    const std::size_t win = width<kWin>(window_words_);
    const std::size_t sel = width<kSel>(words_);
    const std::uint64_t* want = want_.data();
    const std::uint64_t* avail = avail_.data();
    Misses miss;
    for (std::size_t w = win; w-- > 0;) {
      std::uint64_t rem = want[w];
      while (rem != 0) {
        if (stop()) return miss;
        if (live_count_ == 0) {
          // Every seller drained: what is left fails without a visit.
          miss.drained += popcount(rem & avail[w]);
          miss.no_seller += popcount(rem & ~avail[w]);
          for (std::size_t v = 0; v < w; ++v) {
            miss.drained += popcount(want[v] & avail[v]);
            miss.no_seller += popcount(want[v] & ~avail[v]);
          }
          return miss;
        }
        const std::uint64_t hit = rem & avail[w];
        if (hit == 0) {
          miss.no_seller += popcount(rem);
          break;
        }
        const auto top = static_cast<std::size_t>(63 - std::countl_zero(hit));
        const std::uint64_t below = (std::uint64_t{1} << top) - 1;
        miss.no_seller += popcount(rem & ~below) - 1;  // skipped above top
        rem &= below;
        const std::size_t s = w * 64 + top;
        const Sellers<kSel> sellers{masks_.data() + s * sel, live_.data(),
                                    eligible_.data(), sel};
        if (sellers.empty()) {
          ++miss.drained;
          continue;
        }
        visit(s, sellers);
      }
    }
    return miss;
  }

  /// The seller at bit position `bit` can no longer serve this phase (its
  /// upload budget or resting ask drained): it leaves every candidate set.
  /// Dropping a seller twice is a no-op.
  void drop(std::size_t bit) {
    const std::uint64_t m = std::uint64_t{1} << (bit & 63);
    std::uint64_t& word = live_[bit >> 6];
    live_count_ -= (word & m) != 0 ? 1 : 0;
    word &= ~m;
  }

 private:
  template <std::size_t kWords>
  [[nodiscard]] static std::size_t width(std::size_t words) {
    if constexpr (kWords != 0) {
      return kWords;
    } else {
      return words;
    }
  }
  [[nodiscard]] static std::uint64_t popcount(std::uint64_t m) {
    return static_cast<std::uint64_t>(std::popcount(m));
  }

  std::vector<PeerId> eligible_;       ///< in neighbor-list order
  std::vector<std::uint64_t> masks_;   ///< window bits × words_, row-major
  std::vector<std::uint64_t> live_;    ///< undrained eligible sellers
  std::vector<std::uint64_t> want_;    ///< wanted chunks, by age
  std::vector<std::uint64_t> avail_;   ///< wanted ∧ owned by an eligible
  std::size_t num_eligible_ = 0;
  std::size_t live_count_ = 0;
  std::size_t words_ = 0;         ///< seller-mask words
  std::size_t window_words_ = 0;  ///< window-mask words
};

}  // namespace creditflow::p2p
