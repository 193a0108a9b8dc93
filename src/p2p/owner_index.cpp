#include "p2p/owner_index.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace creditflow::p2p {

OwnerIndex::OwnerIndex(std::size_t max_peers, std::size_t window_capacity)
    : max_peers_(max_peers),
      window_(window_capacity),
      words_((window_capacity + 63) / 64),
      bits_(max_peers * words_, 0) {
  CF_EXPECTS(max_peers > 0);
  CF_EXPECTS(window_capacity > 0);
}

void OwnerIndex::on_advance(PeerId peer, ChunkId old_base, ChunkId new_base) {
  CF_EXPECTS(peer < max_peers_);
  CF_EXPECTS(new_base >= old_base);
  if (new_base >= old_base + window_) {
    on_clear(peer);
    return;
  }
  std::uint64_t* row = bits_.data() + peer * words_;
  for (ChunkId c = old_base; c < new_base; ++c) {
    const std::size_t s = slot(c);
    row[s / 64] &= ~(std::uint64_t{1} << (s % 64));
  }
}

void OwnerIndex::on_clear(PeerId peer) {
  CF_EXPECTS(peer < max_peers_);
  std::fill_n(bits_.begin() + static_cast<std::ptrdiff_t>(peer * words_),
              words_, std::uint64_t{0});
}

bool OwnerIndex::mirrors(PeerId peer, const BufferMap& buffer) const {
  CF_EXPECTS(peer < max_peers_);
  if (buffer.capacity() != window_) return false;
  const std::uint64_t* row = bits_.data() + peer * words_;
  for (ChunkId c = buffer.base(); c < buffer.end(); ++c) {
    const std::size_t s = slot(c);
    const bool bit = (row[s / 64] >> (s % 64)) & 1;
    if (bit != buffer.has(c)) return false;
  }
  return true;
}

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
