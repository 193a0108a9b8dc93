#include "p2p/overlay.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace creditflow::p2p {

namespace {

/// Default sizing: room for twice a paper-scale overlay's steady-state
/// degree, floored so tiny test overlays never starve.
std::size_t default_edge_cells(std::size_t max_peers) {
  return std::max<std::size_t>(256, max_peers * 64);
}

/// Room a row takes when it moves to the tail: twice its old room, and at
/// least this much, so a fresh row does not move on each of its first
/// links.
constexpr std::size_t kMinRowCapacity = 8;

/// Marks "no row needs an extra entry" in lay_out_rows.
constexpr std::uint32_t kNoPeer = 0xffffffffu;

}  // namespace

Overlay::Overlay(std::size_t max_peers, std::size_t edge_cells)
    : half_(edge_cells == 0 ? default_edge_cells(max_peers) : edge_cells),
      arena_(std::make_unique_for_overwrite<std::uint32_t[]>(2 * half_)),
      rows_(max_peers),
      active_words_((max_peers + 63) / 64, 0) {
  CF_EXPECTS(max_peers > 0);
  CF_EXPECTS(half_ >= 2);  // one undirected edge = two entries
  CF_EXPECTS_MSG(2 * half_ <= 0xffffffffu, "row arena exceeds 32-bit offsets");
  active_list_.reserve(max_peers);
}

void Overlay::lay_out_rows(std::size_t base, std::uint32_t grow, bool move) {
  const std::size_t live = cells_in_use_ + (grow == kNoPeer ? 0 : 1);
  CF_ENSURES(live <= half_);  // admission by count keeps this true
  // Slack is half a row's size while the half can spare it; otherwise it
  // is cut back pro rata, so at least half the free room stays at the tail.
  const std::size_t share = std::min(live, half_ - live);
  std::uint32_t* const arena = arena_.get();
  std::size_t w = base;
  for (std::uint32_t p = 0; p < rows_.size(); ++p) {
    Row& r = rows_[p];
    const std::size_t want = r.degree + (p == grow ? 1 : 0);
    if (move) std::copy_n(arena + r.begin, r.degree, arena + w);
    r.begin = static_cast<std::uint32_t>(w);
    const std::size_t slack = live == 0 ? 0 : want * share / (2 * live);
    r.capacity = static_cast<std::uint32_t>(want + slack);
    w += r.capacity;
  }
  half_base_ = base;
  tail_ = w;
}

void Overlay::grow_row(std::uint32_t peer) {
  Row& r = rows_[peer];
  const std::size_t cap =
      std::max<std::size_t>(2 * std::size_t{r.capacity}, kMinRowCapacity);
  if (tail_ + cap > half_base_ + half_) {
    // The live half is out of room: copy every row into the other half.
    lay_out_rows(half_base_ == 0 ? half_ : 0, peer, /*move=*/true);
    return;
  }
  std::copy_n(arena_.get() + r.begin, r.degree, arena_.get() + tail_);
  r.begin = static_cast<std::uint32_t>(tail_);
  r.capacity = static_cast<std::uint32_t>(cap);
  tail_ += cap;
}

void Overlay::row_push_back(std::uint32_t from, std::uint32_t to) {
  if (rows_[from].degree == rows_[from].capacity) grow_row(from);
  Row& r = rows_[from];
  arena_[r.begin + r.degree] = to;
  ++r.degree;
  ++cells_in_use_;
}

void Overlay::init_from_graph(const graph::Graph& g) {
  CF_EXPECTS(g.num_nodes() <= rows_.size());
  CF_EXPECTS_MSG(2 * g.num_edges() <= half_,
                 "edge arena smaller than the bootstrap graph");
  std::fill(rows_.begin(), rows_.end(), Row{});
  cells_in_use_ = 0;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    rows_[u].degree = static_cast<std::uint32_t>(g.neighbors(u).size());
    cells_in_use_ += rows_[u].degree;
  }
  lay_out_rows(0, kNoPeer, /*move=*/false);
  std::fill(active_words_.begin(), active_words_.end(), 0);
  active_list_.clear();
  free_word_hint_ = 0;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    set_active_bit(u, true);
    active_list_.push_back(u);
    const auto nbrs = g.neighbors(u);
    std::copy(nbrs.begin(), nbrs.end(), arena_.get() + rows_[u].begin);
  }
}

bool Overlay::is_active(std::uint32_t peer) const {
  CF_EXPECTS(peer < rows_.size());
  return (active_words_[peer / 64] >> (peer % 64)) & 1;
}

void Overlay::set_active_bit(std::uint32_t peer, bool value) {
  const std::uint64_t mask = std::uint64_t{1} << (peer % 64);
  if (value) {
    active_words_[peer / 64] |= mask;
  } else {
    active_words_[peer / 64] &= ~mask;
    // The freed slot's word may now be the lowest with a free bit.
    free_word_hint_ =
        std::min(free_word_hint_, static_cast<std::size_t>(peer / 64));
  }
}

void Overlay::list_insert(std::uint32_t peer) {
  const auto it =
      std::lower_bound(active_list_.begin(), active_list_.end(), peer);
  active_list_.insert(it, peer);
}

void Overlay::list_erase(std::uint32_t peer) {
  const auto it =
      std::lower_bound(active_list_.begin(), active_list_.end(), peer);
  CF_ENSURES(it != active_list_.end() && *it == peer);
  active_list_.erase(it);
}

std::optional<std::uint32_t> Overlay::lowest_inactive_slot() const {
  // Invariant: every word below free_word_hint_ is fully active, so the
  // scan may start there. Words it proves full advance the cursor, which
  // set_active_bit(false) rewinds — under heavy churn at large capacities
  // the scan touches O(1) words amortized instead of capacity/64.
  for (std::size_t w = free_word_hint_; w < active_words_.size(); ++w) {
    const std::uint64_t free = ~active_words_[w];
    if (free == 0) {
      free_word_hint_ = w + 1;
      continue;
    }
    const auto slot = static_cast<std::uint32_t>(
        w * 64 + static_cast<std::size_t>(std::countr_zero(free)));
    if (slot >= rows_.size()) break;  // padding bits of the last word
    free_word_hint_ = w;
    return slot;
  }
  return std::nullopt;
}

void Overlay::join(std::uint32_t peer, std::size_t target_links,
                   util::Rng& rng) {
  CF_EXPECTS(peer < rows_.size());
  CF_EXPECTS_MSG(!is_active(peer), "slot already active");
  set_active_bit(peer, true);
  list_insert(peer);
  if (active_list_.size() == 1) return;  // first peer has nobody to link to

  // Preferential attachment: sample candidates with weight degree+1.
  const std::span<const std::uint32_t> candidates = active_list_;
  join_weights_.clear();
  for (auto c : candidates) {
    join_weights_.push_back(
        c == peer ? 0.0 : static_cast<double>(rows_[c].degree) + 1.0);
  }
  const std::size_t want =
      std::min(target_links, active_list_.size() - 1);
  std::size_t added = 0;
  std::size_t attempts = 0;
  while (added < want && attempts < 20 * want + 40) {
    ++attempts;
    const std::size_t idx = rng.discrete(join_weights_);
    if (add_edge(peer, candidates[idx])) {
      ++added;
      join_weights_[idx] = 0.0;  // at most one edge per target
    }
  }
}

void Overlay::leave(std::uint32_t peer) {
  CF_EXPECTS(peer < rows_.size());
  CF_EXPECTS_MSG(is_active(peer), "slot not active");
  // Removals from other rows never move a row, so this span stays valid.
  for (const std::uint32_t nbr : neighbors(peer)) remove_directed(nbr, peer);
  cells_in_use_ -= rows_[peer].degree;
  rows_[peer].degree = 0;
  set_active_bit(peer, false);
  list_erase(peer);
}

bool Overlay::add_edge(std::uint32_t a, std::uint32_t b) {
  CF_EXPECTS(a < rows_.size() && b < rows_.size());
  CF_EXPECTS_MSG(is_active(a) && is_active(b),
                 "both endpoints must be active");
  if (a == b) return false;
  for (const std::uint32_t nbr : neighbors(a)) {
    if (nbr == b) return false;
  }
  if (cells_in_use_ + 2 > half_) {
    if (edges_dropped_ == 0) {
      CF_LOG_WARN("edge arena full (capacity "
                  << half_
                  << " entries); edge refused, further drops counted silently");
    }
    ++edges_dropped_;
    return false;
  }
  row_push_back(a, b);
  row_push_back(b, a);
  return true;
}

void Overlay::remove_directed(std::uint32_t from, std::uint32_t to) {
  // Swap-with-back removal: the back entry moves into the removed entry's
  // place, matching `*it = row.back(); row.pop_back()` exactly, which every
  // RNG-consuming neighbor walk depends on.
  Row& r = rows_[from];
  std::uint32_t* const row = arena_.get() + r.begin;
  for (std::uint32_t i = 0; i < r.degree; ++i) {
    if (row[i] != to) continue;
    row[i] = row[r.degree - 1];
    --r.degree;
    --cells_in_use_;
    return;
  }
}

double Overlay::mean_degree() const {
  if (active_list_.empty()) return 0.0;
  std::size_t total = 0;
  for (std::uint32_t p : active_list_) total += rows_[p].degree;
  return static_cast<double>(total) /
         static_cast<double>(active_list_.size());
}

}  // namespace creditflow::p2p
