#include "p2p/chunk.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/assert.hpp"

namespace creditflow::p2p {

BufferMap::BufferMap(std::size_t capacity)
    : own_(words_for(capacity), 0), words_(own_.data()), capacity_(capacity) {
  CF_EXPECTS(capacity > 0);
}

BufferMap::BufferMap(std::size_t capacity, std::uint64_t* words)
    : words_(words), capacity_(capacity) {
  CF_EXPECTS(capacity > 0);
  CF_EXPECTS(words != nullptr);
  std::fill(words_, words_ + words_for(capacity_), std::uint64_t{0});
}

BufferMap::BufferMap(const BufferMap& other)
    : own_(other.words_, other.words_ + words_for(other.capacity_)),
      words_(own_.data()),
      capacity_(other.capacity_),
      base_(other.base_),
      count_(other.count_) {}

BufferMap& BufferMap::operator=(const BufferMap& other) {
  if (this == &other) return *this;
  own_.assign(other.words_, other.words_ + words_for(other.capacity_));
  words_ = own_.data();
  capacity_ = other.capacity_;
  base_ = other.base_;
  count_ = other.count_;
  return *this;
}

BufferMap::BufferMap(BufferMap&& other) noexcept
    : own_(std::move(other.own_)),
      words_(own_.empty() ? other.words_ : own_.data()),
      capacity_(other.capacity_),
      base_(other.base_),
      count_(other.count_) {
  other.words_ = nullptr;
}

BufferMap& BufferMap::operator=(BufferMap&& other) noexcept {
  if (this == &other) return *this;
  own_ = std::move(other.own_);
  words_ = own_.empty() ? other.words_ : own_.data();
  capacity_ = other.capacity_;
  base_ = other.base_;
  count_ = other.count_;
  other.words_ = nullptr;
  return *this;
}

double BufferMap::fill() const {
  return static_cast<double>(count_) / static_cast<double>(capacity_);
}

std::size_t BufferMap::advance(ChunkId new_base) {
  CF_EXPECTS_MSG(new_base >= base_, "window cannot move backwards");
  const std::size_t words = words_for(capacity_);
  std::size_t evicted = 0;
  if (new_base - base_ >= capacity_) {
    // The whole window left: every held chunk is evicted.
    evicted = count_;
    std::fill(words_, words_ + words, std::uint64_t{0});
  } else {
    // Shift every word right by the distance moved: the bits shifted out
    // of word 0's bottom are the evicted chunks, and the top bits that
    // come in are zero (nothing past the old window end was held).
    const auto shift = static_cast<std::size_t>(new_base - base_);
    const std::size_t word_shift = shift / 64;
    const std::size_t bit_shift = shift % 64;
    for (std::size_t w = 0; w < word_shift; ++w) {
      evicted += static_cast<std::size_t>(std::popcount(words_[w]));
    }
    if (bit_shift != 0) {
      evicted += static_cast<std::size_t>(std::popcount(
          words_[word_shift] & ((std::uint64_t{1} << bit_shift) - 1)));
    }
    for (std::size_t w = 0; w + word_shift < words; ++w) {
      std::uint64_t v = words_[w + word_shift] >> bit_shift;
      if (bit_shift != 0 && w + word_shift + 1 < words) {
        v |= words_[w + word_shift + 1] << (64 - bit_shift);
      }
      words_[w] = v;
    }
    std::fill(words_ + (words - word_shift), words_ + words,
              std::uint64_t{0});
  }
  count_ -= evicted;
  base_ = new_base;
  return evicted;
}

std::vector<ChunkId> BufferMap::missing(std::size_t max_results) const {
  const std::size_t cap = max_results == 0 ? capacity_ : max_results;
  std::vector<ChunkId> out;
  out.reserve(std::min(cap, capacity_ - count_));
  // Bit i is chunk base_ + i, so an ascending bit walk of the complement
  // yields the missing chunks in ascending id order.
  const std::size_t words = words_for(capacity_);
  for (std::size_t w = 0; w < words && out.size() < cap; ++w) {
    std::uint64_t gaps = ~words_[w];
    if ((w + 1) * 64 > capacity_) {
      gaps &= (std::uint64_t{1} << (capacity_ % 64)) - 1;
    }
    while (gaps != 0 && out.size() < cap) {
      out.push_back(base_ + w * 64 +
                    static_cast<std::size_t>(std::countr_zero(gaps)));
      gaps &= gaps - 1;
    }
  }
  return out;
}

void BufferMap::reset(ChunkId new_base) {
  std::fill(words_, words_ + words_for(capacity_), std::uint64_t{0});
  base_ = new_base;
  count_ = 0;
}

}  // namespace creditflow::p2p
