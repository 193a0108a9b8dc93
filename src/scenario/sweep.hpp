// CreditFlow scenario engine: parameter grids and their expansion.
//
// A SweepSpec is a list of axes over the scenario parameter namespace plus
// a replication count. Axes expand as a cartesian product (first axis
// slowest), and each grid point is replicated `seeds` times with
// independent derived RNG streams; run k of a sweep is a pure function of
// (base spec, sweep spec, k), never of thread scheduling.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/spec.hpp"

namespace creditflow::scenario {

/// Most values one range axis ("key=lo:hi:step") may expand to. A range
/// whose count is larger (or not finite) is rejected before anything is
/// allocated: the parser also reads the sweep text a worker receives over
/// the wire, so the count is untrusted input.
inline constexpr std::size_t kMaxSweepAxisValues = 1'000'000;

/// One sweep dimension: a parameter key and its values.
struct SweepAxis {
  std::string param;
  std::vector<double> values;

  /// Parse "key=lo:hi:step" (inclusive arithmetic range), "key=a,b,c"
  /// (explicit list), or "key=v" (one value). Throws on malformed text,
  /// unknown keys, empty ranges, or ranges of more than
  /// kMaxSweepAxisValues values.
  [[nodiscard]] static SweepAxis parse(const std::string& text);
};

/// A full sweep: the cartesian grid of the axes × `seeds` replications.
struct SweepSpec {
  std::vector<SweepAxis> axes;  ///< empty → the single base point
  std::size_t seeds = 1;        ///< replications per grid point

  /// Grid points and runs (points × seeds). Throw util::PreconditionError
  /// when the count overflows size_t.
  [[nodiscard]] std::size_t num_points() const;
  [[nodiscard]] std::size_t num_runs() const;

  /// Line-oriented text form ("seeds N" + one "axis key=v1,v2,…" line per
  /// axis, values in shortest round-trip form). parse(serialize())
  /// reproduces the sweep bit-exactly — the distributed-sweep wire format,
  /// with the same cross-process stability contract as
  /// ScenarioSpec::serialize.
  [[nodiscard]] std::string serialize() const;
  /// Inverse of serialize(); throws util::PreconditionError on malformed
  /// input, unknown axis parameters, or a run count that overflows.
  [[nodiscard]] static SweepSpec parse(const std::string& text);

  /// Axis values at grid point `point` (size == axes.size(); first axis
  /// varies slowest). point < num_points().
  [[nodiscard]] std::vector<double> point(std::size_t point_index) const;

  /// The spec for one run: base with the grid point's axis values applied
  /// and the protocol seed derived from (base seed, run_index). run_index
  /// = point_index * seeds + seed_index.
  [[nodiscard]] ScenarioSpec instantiate(const ScenarioSpec& base,
                                         std::size_t run_index) const;
};

}  // namespace creditflow::scenario
