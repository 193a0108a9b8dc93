// CreditFlow: dynamic overlay management.
//
// The static case wraps a generated scale-free graph. Under churn, joining
// peers attach preferentially by degree (preserving the scale-free shape, as
// in the measurement study the paper builds on) and departures remove all
// incident edges.
//
// Membership is tracked three ways, kept in sync by join/leave:
//  * a word-packed activity bitmap (O(1) is_active, amortized-O(1) lowest
//    free slot via a word cursor hint),
//  * a dense active-peer array in ascending id order, handed out as a span
//    so the round loop iterates the population without copying it, and
//  * the adjacency rows themselves.
// The dense array is kept *ordered* (binary-search insert/erase, O(active)
// memmove per membership change) rather than swap-remove compacted: churn
// events are thousands of times rarer than active-set iterations, and the
// ascending order is what keeps every RNG-consuming walk over the
// population — seeding, taxation, snapshots — bit-identical to the
// pre-span engine that rebuilt the sorted vector on every call.
//
// Adjacency lives in one ROW ARENA of neighbor ids sized at construction
// and never resized, so joins and leaves allocate nothing: the
// million-peer market's churn path is heap-silent end to end. Each peer's
// row is contiguous (CSR with slack: a begin offset, a degree and a
// capacity per peer), so neighbors() is a span straight into the arena and
// the purchase phase reads a buyer's neighbors in place. Rows keep the
// retired vector<vector> engine's order EXACTLY: appends go to the back,
// and a removal moves the back entry into the removed entry's place
// (swap-with-back + pop). Every RNG-consuming walk over a neighbor list —
// candidate masks, seller picks, join weights — sees the same sequence as
// before, bit for bit.
//
// The arena holds two halves of edge_cell_capacity() entries each, 8 bytes
// per admissible entry; pages of the idle half are not touched until a
// re-layout moves rows there. Rows live in one half. A row that fills up
// moves to the half's tail with twice the room; a leave keeps the departed
// peer's room for the slot's next occupant. When the tail runs out, every
// row is copied, in id order, into the other half, each with its degree
// plus up to half again as slack (cut back pro rata when the half cannot
// spare it, so at least half of the free room is left at the new tail).
// Admission is by count: at most edge_cell_capacity() entries are live, so
// the copy always fits.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace creditflow::p2p {

/// Slot-addressed adjacency with join/leave support.
class Overlay {
 public:
  /// Create with a fixed slot capacity; all slots start inactive.
  /// `edge_cells` fixes how many directed entries may be live at once (one
  /// undirected edge takes two); 0 picks a generous default for
  /// paper-scale overlays. The arena never grows — at that count
  /// add_edge() refuses the edge (logged once, counted) instead of
  /// allocating.
  explicit Overlay(std::size_t max_peers, std::size_t edge_cells = 0);

  /// Activate slots 0..g.num_nodes()-1 with the edges of `g`.
  void init_from_graph(const graph::Graph& g);

  [[nodiscard]] std::size_t capacity() const { return rows_.size(); }
  [[nodiscard]] std::size_t num_active() const { return active_list_.size(); }
  [[nodiscard]] bool is_active(std::uint32_t peer) const;
  [[nodiscard]] std::size_t degree(std::uint32_t peer) const {
    CF_EXPECTS(peer < rows_.size());
    return rows_[peer].degree;
  }

  /// The peer's neighbors in row order (identical to the retired vector
  /// engine's iteration order), read in place.
  ///
  /// LIFETIME: the span aliases the row arena; any join(), leave(),
  /// add_edge() or init_from_graph() may move rows and invalidates it.
  [[nodiscard]] std::span<const std::uint32_t> neighbors(
      std::uint32_t peer) const {
    CF_EXPECTS(peer < rows_.size());
    const Row& r = rows_[peer];
    return {arena_.get() + r.begin, r.degree};
  }

  /// Active peer ids in ascending order, O(1), no copy.
  ///
  /// LIFETIME: the span aliases the overlay's internal dense array; any
  /// join(), leave(), or init_from_graph() — and destruction — invalidates
  /// it. Consume it (or copy it) before the membership can change; never
  /// hold one across a simulated event boundary.
  [[nodiscard]] std::span<const std::uint32_t> active_peers() const {
    return active_list_;
  }

  /// Lowest-numbered inactive slot, or nullopt when the overlay is full.
  /// Amortized O(1) under churn: the scan starts from a word cursor below
  /// which every word is known-full (leaves rewind it, scans advance it),
  /// instead of re-walking all capacity/64 words from zero on every
  /// arrival. The result is the exact lowest-index free slot — identical
  /// to the from-zero scan, bit for bit.
  [[nodiscard]] std::optional<std::uint32_t> lowest_inactive_slot() const;

  /// Activate a slot and attach `target_links` edges by preferential
  /// attachment over current degrees (degree+1 weighting so isolated peers
  /// remain reachable). Requires the slot to be inactive.
  void join(std::uint32_t peer, std::size_t target_links, util::Rng& rng);

  /// Deactivate a slot, removing all incident edges. The slot keeps its
  /// row's room for its next occupant.
  void leave(std::uint32_t peer);

  /// Add one undirected edge between active peers; false on duplicates/self
  /// (and, loudly, when edge_cell_capacity() entries are already live).
  bool add_edge(std::uint32_t a, std::uint32_t b);

  [[nodiscard]] double mean_degree() const;

  /// Entry accounting (tests and capacity planning).
  [[nodiscard]] std::size_t edge_cell_capacity() const { return half_; }
  [[nodiscard]] std::size_t edge_cells_in_use() const { return cells_in_use_; }
  /// Edges refused because edge_cell_capacity() entries were live.
  [[nodiscard]] std::uint64_t edges_dropped() const { return edges_dropped_; }

 private:
  /// One peer's row: arena_[begin, begin + degree) holds its neighbors,
  /// and the row may grow in place up to `capacity` entries.
  struct Row {
    std::uint32_t begin = 0;
    std::uint32_t degree = 0;
    std::uint32_t capacity = 0;
  };

  void remove_directed(std::uint32_t from, std::uint32_t to);
  void set_active_bit(std::uint32_t peer, bool value);
  /// Ordered insert into / erase from the dense active array.
  void list_insert(std::uint32_t peer);
  void list_erase(std::uint32_t peer);
  /// Append `to` at the back of `from`'s row (vector push_back order).
  void row_push_back(std::uint32_t from, std::uint32_t to);
  /// Give a full row room for one more entry: move it to the tail, or
  /// re-lay every row into the other half when the tail is out of room.
  void grow_row(std::uint32_t peer);
  /// Lay every row out in id order from arena_[base], each with room for
  /// its degree (one more for `grow`) plus slack, and make that the live
  /// half. `move` copies the rows' entries over; without it the entries
  /// are left for the caller to write.
  void lay_out_rows(std::size_t base, std::uint32_t grow, bool move);

  std::size_t half_;                          ///< entries per arena half
  std::unique_ptr<std::uint32_t[]> arena_;    ///< two halves, fixed size
  std::size_t half_base_ = 0;                 ///< first entry of live half
  std::size_t tail_ = 0;                      ///< first free entry after rows
  std::size_t cells_in_use_ = 0;              ///< sum of degrees
  std::uint64_t edges_dropped_ = 0;
  std::vector<Row> rows_;                     ///< per-peer row placement
  std::vector<std::uint64_t> active_words_;   ///< ceil(capacity/64) words
  std::vector<std::uint32_t> active_list_;    ///< active ids, ascending
  std::vector<double> join_weights_;          ///< scratch for join()
  /// Free-slot scan cursor: every word below it is fully active. Mutable
  /// because the scan (const) advances it past words it proves full.
  mutable std::size_t free_word_hint_ = 0;
};

}  // namespace creditflow::p2p
