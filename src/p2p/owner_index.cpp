#include "p2p/owner_index.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace creditflow::p2p {

void CandidateMasks::scatter(const OwnerIndex& index,
                             std::span<const ChunkId> wanted,
                             ChunkId window_base) {
  window_ = index.window_capacity();
  base_ = window_base;
  base_slot_ = index.slot(window_base);
  words_ = (eligible_.size() + 63) / 64;
  const std::size_t needed = window_ * words_;
  if (masks_.size() < needed) masks_.resize(needed);

  if (index.words_per_peer() == 1 && words_ == 1) {
    // Dominant configuration (window <= 64 chunks, <= 64 eligible sellers):
    // every mask is one word, so the scatter loop runs without the generic
    // path's per-word indexing. Same candidate sets, same neighbor-order
    // bit layout.
    std::uint64_t miss = 0;
    for (const ChunkId c : wanted) {
      const std::size_t s = slot(c);
      miss |= std::uint64_t{1} << s;
      masks_[s] = 0;
    }
    for (std::size_t j = 0; j < eligible_.size(); ++j) {
      std::uint64_t m = index.owned(eligible_[j])[0] & miss;
      const std::uint64_t bit = std::uint64_t{1} << j;
      while (m != 0) {
        masks_[static_cast<std::size_t>(std::countr_zero(m))] |= bit;
        m &= m - 1;
      }
    }
    return;
  }

  wanted_.assign(index.words_per_peer(), 0);
  for (const ChunkId c : wanted) {
    const std::size_t s = slot(c);
    wanted_[s / 64] |= std::uint64_t{1} << (s % 64);
    std::fill_n(masks_.data() + s * words_, words_, std::uint64_t{0});
  }
  for (std::size_t j = 0; j < eligible_.size(); ++j) {
    const auto row = index.owned(eligible_[j]);
    const std::uint64_t bit = std::uint64_t{1} << (j & 63);
    const std::size_t word_j = j >> 6;
    for (std::size_t w = 0; w < row.size(); ++w) {
      std::uint64_t m = row[w] & wanted_[w];
      while (m != 0) {
        const auto s = w * 64 + static_cast<std::size_t>(std::countr_zero(m));
        m &= m - 1;
        masks_[s * words_ + word_j] |= bit;
      }
    }
  }
}

void CandidateMasks::drop(PeerId seller, std::span<const ChunkId> wanted) {
  // Rare (a seller drains at most once per buyer phase), so a linear scan
  // for its bit position is fine.
  std::size_t j = 0;
  while (j < eligible_.size() && eligible_[j] != seller) ++j;
  if (j == eligible_.size()) return;
  const std::uint64_t clear = ~(std::uint64_t{1} << (j & 63));
  const std::size_t word_j = j >> 6;
  for (const ChunkId c : wanted) masks_[slot(c) * words_ + word_j] &= clear;
}

}  // namespace creditflow::p2p
