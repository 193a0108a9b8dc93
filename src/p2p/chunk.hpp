// CreditFlow: stream chunks and per-peer availability windows.
//
// A live stream is an unbounded sequence of chunks 0,1,2,… emitted at a
// fixed rate. Peers hold a sliding playback window; the BufferMap tracks
// which chunks inside the window a peer currently has.
//
// Age layout: bit i of a window's words is set ⟺ chunk base() + i is held,
// so bit 0 is the oldest chunk (next to be evicted) and the highest bit the
// freshest. A chunk's bit is one subtraction away (no modulo), advancing
// the window is one multi-word right shift, and a buyer's wanted set is the
// complement of its row, already ordered by age. Two rows read at the same
// base() line up bit for bit, which is what OwnerIndex relies on.
#pragma once

#include <cstdint>
#include <vector>

namespace creditflow::p2p {

using ChunkId = std::uint64_t;

/// Sliding-window chunk availability bitmap in the age layout above
/// (64-bit words under the hood, so missing-chunk extraction and eviction
/// are word operations, not per-chunk branches). Bits at and above
/// capacity() in the last word are always zero.
///
/// Word storage comes in two flavors: self-owned (the standalone
/// constructor, used by tests and ad-hoc callers) or externally provided
/// (the arena constructor) — the market backs every peer's window with one
/// contiguous arena sized at construction, so a million BufferMaps cost one
/// allocation and their words pack densely in peer-slot order. Copies always
/// deep-copy into owned storage (a snapshot must not alias the live arena).
class BufferMap {
 public:
  /// Number of 64-bit words backing a window of `capacity` slots.
  [[nodiscard]] static std::size_t words_for(std::size_t capacity) {
    return (capacity + 63) / 64;
  }

  /// Window of `capacity` consecutive chunk slots starting at chunk 0,
  /// with self-owned word storage.
  explicit BufferMap(std::size_t capacity);

  /// Arena-backed flavor: `words` must point at words_for(capacity) words
  /// that outlive this map; they are zeroed here.
  BufferMap(std::size_t capacity, std::uint64_t* words);

  BufferMap(const BufferMap& other);
  BufferMap& operator=(const BufferMap& other);
  BufferMap(BufferMap&& other) noexcept;
  BufferMap& operator=(BufferMap&& other) noexcept;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// First chunk id inside the window.
  [[nodiscard]] ChunkId base() const { return base_; }
  /// One-past-last chunk id inside the window.
  [[nodiscard]] ChunkId end() const { return base_ + capacity_; }
  /// Number of chunks currently held.
  [[nodiscard]] std::size_t count() const { return count_; }
  /// Fill ratio in [0,1].
  [[nodiscard]] double fill() const;

  // Inline: has/set/in_window run once per purchase candidate / delivery,
  // millions of times per simulated run.
  [[nodiscard]] bool in_window(ChunkId c) const {
    return c >= base_ && c < base_ + capacity_;
  }
  /// True when the peer holds chunk c (false outside the window).
  [[nodiscard]] bool has(ChunkId c) const {
    if (!in_window(c)) return false;
    return bit(slot(c));
  }
  /// Mark chunk c as held; returns false if c is outside the window or
  /// already held.
  bool set(ChunkId c) {
    if (!in_window(c)) return false;
    const std::size_t s = slot(c);
    if (bit(s)) return false;
    words_[s / 64] |= std::uint64_t{1} << (s % 64);
    ++count_;
    return true;
  }

  /// Advance the window base to `new_base` (>= current base), evicting
  /// chunks that fall out: the words shift right by the distance moved.
  /// Returns the number of held chunks evicted.
  std::size_t advance(ChunkId new_base);

  /// Chunk ids in the window the peer is missing, ascending (most urgent
  /// first for playback), capped at `max_results` (0 = no cap).
  [[nodiscard]] std::vector<ChunkId> missing(std::size_t max_results = 0) const;

  /// Reset to an empty window at the given base.
  void reset(ChunkId new_base);

 private:
  /// Bit position of an in-window chunk: its age from the base.
  [[nodiscard]] std::size_t slot(ChunkId c) const {
    return static_cast<std::size_t>(c - base_);
  }
  [[nodiscard]] bool bit(std::size_t s) const {
    return (words_[s / 64] >> (s % 64)) & 1;
  }

  /// Self-owned storage; empty when arena-backed. words_ points at
  /// whichever backing is live and is what every accessor reads.
  std::vector<std::uint64_t> own_;
  std::uint64_t* words_ = nullptr;  ///< words_for(capacity_) words
  std::size_t capacity_;
  ChunkId base_ = 0;
  std::size_t count_ = 0;
};

}  // namespace creditflow::p2p
