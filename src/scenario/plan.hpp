// CreditFlow scenario engine: SweepPlan — the pure, enumerable run list of
// a sweep.
//
// A plan is (base spec × sweep grid × seeds) viewed as an indexed sequence
// of fully-instantiated runs. It performs no execution: executors
// (executor.hpp) run its entries, the run store (store.hpp) caches them by
// key, and SweepRunner (runner.hpp) composes all three. Every entry carries
// a stable content-addressed RunKey — a 128-bit hash of the instantiated
// spec's bit-exact text serialization combined with the run index — so a
// run computed today is recognizably "the same run" in any later process,
// on any machine, which is what makes cross-restart caching and
// shard-and-merge partitioning sound.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"

namespace creditflow::scenario {

struct RunResult;  // executor.hpp

/// Content address of one run: 128 bits of FNV-1a/SplitMix64 over
/// (ScenarioSpec::serialize() of the instantiated spec ‖ run_index).
/// Identical across processes and platforms; two runs collide only if
/// their instantiated specs serialize identically AND they share a run
/// index — i.e. they are the same run.
struct RunKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  [[nodiscard]] bool operator==(const RunKey&) const = default;
  [[nodiscard]] bool operator<(const RunKey& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }

  /// 32 lowercase hex characters; the on-disk cache address.
  [[nodiscard]] std::string hex() const;
  /// Inverse of hex(); nullopt unless exactly 32 hex characters.
  [[nodiscard]] static std::optional<RunKey> from_hex(std::string_view text);

  /// Key of `run_index` within a sweep whose instantiated spec serializes
  /// to `spec_text`.
  [[nodiscard]] static RunKey of(std::string_view spec_text,
                                 std::size_t run_index);
};

/// The enumerable run list of one sweep. Immutable after construction;
/// every accessor is a pure function of (base, sweep, run_index), so plans
/// built in different processes from the same inputs agree on every entry.
class SweepPlan {
 public:
  SweepPlan(ScenarioSpec base, SweepSpec sweep);

  [[nodiscard]] const ScenarioSpec& base() const { return base_; }
  [[nodiscard]] const SweepSpec& sweep() const { return sweep_; }

  /// Total runs (= sweep().num_runs()).
  [[nodiscard]] std::size_t size() const { return sweep_.num_runs(); }

  /// The fully-instantiated spec of run `run_index` (axes applied, per-run
  /// seed derived). run_index < size().
  [[nodiscard]] ScenarioSpec spec(std::size_t run_index) const;

  /// Content address of run `run_index`.
  [[nodiscard]] RunKey key(std::size_t run_index) const;

  /// A RunResult shell with all plan-derived metadata filled in —
  /// run/point/seed indices, axis params, derived seed — and no outcome.
  /// Executors execute into it; cache hits merge stored outcomes into it.
  [[nodiscard]] RunResult labelled_result(std::size_t run_index) const;

  /// Every run index, in order.
  [[nodiscard]] std::vector<std::size_t> all_runs() const;

  /// Expected simulation cost of run `run_index`, in peer-rounds: the
  /// round count (horizon / round_seconds) times the mean alive
  /// population. Without churn that population is initial_peers N0; with
  /// churn (arrival rate λ, mean lifespan L, horizon T) it is the
  /// Little's-law steady state λL plus the decaying bootstrap cohort,
  ///   λL + (N0 − λL)·(L/T)·(1 − e^(−T/L)),
  /// since bootstrap peers draw exponential lifespans too. A pure function
  /// of the instantiated spec (the derived seed never enters), so every
  /// replication of a grid point gets the same estimate.
  [[nodiscard]] double expected_peer_rounds(std::size_t run_index) const;

  /// Dispatch order for `runs` (entries of this plan): the positions
  /// 0..runs.size()-1 sorted costliest-first by expected_peer_rounds
  /// (longest processing time first), ties kept in list order. Executors
  /// hand runs out in this order so the long runs of an unequal grid start
  /// first instead of stretching the tail; results still land by position.
  /// A grid whose runs all tie (seeds-only, or axes that leave horizon and
  /// population alone) keeps its list order exactly.
  [[nodiscard]] std::vector<std::size_t> dispatch_order(
      std::span<const std::size_t> runs) const;

  /// Strided partition for distributed execution: shard i of N owns run
  /// indices {j : j mod N == i}, so every shard receives a similar mix of
  /// grid points regardless of axis ordering. The union over i of
  /// shard(i, N) is exactly all_runs(); partial result sets merged by
  /// run_index reproduce the single-process output byte for byte.
  /// Requires shard_index < shard_count.
  [[nodiscard]] std::vector<std::size_t> shard(std::size_t shard_index,
                                               std::size_t shard_count) const;

 private:
  ScenarioSpec base_;
  SweepSpec sweep_;
};

}  // namespace creditflow::scenario
