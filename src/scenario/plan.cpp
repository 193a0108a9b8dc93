#include "scenario/plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "scenario/executor.hpp"
#include "scenario/params.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace creditflow::scenario {

std::string RunKey::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

std::optional<RunKey> RunKey::from_hex(std::string_view text) {
  if (text.size() != 32) return std::nullopt;
  std::uint64_t words[2] = {0, 0};
  for (std::size_t w = 0; w < 2; ++w) {
    for (std::size_t i = 0; i < 16; ++i) {
      const char c = text[w * 16 + i];
      std::uint64_t digit = 0;
      if (c >= '0' && c <= '9') digit = static_cast<std::uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') digit = 10u + (c - 'a');
      else if (c >= 'A' && c <= 'F') digit = 10u + (c - 'A');
      else return std::nullopt;
      words[w] = (words[w] << 4) | digit;
    }
  }
  return RunKey{words[0], words[1]};
}

RunKey RunKey::of(std::string_view spec_text, std::size_t run_index) {
  // Two independent FNV-1a streams over the spec text (standard basis and a
  // decorrelated one), each folded with the run index through the same
  // SplitMix64 finalization the seed derivation uses. Both halves depend on
  // every byte of the spec and on the index.
  const std::uint64_t h1 = util::fnv1a64(spec_text);
  const std::uint64_t h2 =
      util::fnv1a64(spec_text, 0x9d2c5680cafe4321ULL);
  return RunKey{util::derive_seed(h1, run_index),
                util::derive_seed(h2 ^ 0x6a09e667f3bcc909ULL, run_index)};
}

SweepPlan::SweepPlan(ScenarioSpec base, SweepSpec sweep)
    : base_(std::move(base)), sweep_(std::move(sweep)) {
  CF_EXPECTS(sweep_.seeds >= 1);
  (void)sweep_.num_runs();  // rejects a run count that overflows size_t
  // Every RunKey, cache entry and worker's copy of the plan derives from
  // the base spec's text form, so the base seed must survive it exactly.
  const std::string seed_error = find_param("seed")->check(
      static_cast<double>(base_.config.protocol.seed));
  CF_EXPECTS_MSG(seed_error.empty(), seed_error);
}

ScenarioSpec SweepPlan::spec(std::size_t run_index) const {
  return sweep_.instantiate(base_, run_index);
}

RunKey SweepPlan::key(std::size_t run_index) const {
  // Keyed off the serialized *instantiated* spec: any change that alters
  // what the run would actually simulate — an axis value, a base parameter,
  // the derived per-run seed — changes the key, and nothing else does.
  return RunKey::of(spec(run_index).serialize(), run_index);
}

RunResult SweepPlan::labelled_result(std::size_t run_index) const {
  CF_EXPECTS(run_index < size());
  RunResult result;
  result.run_index = run_index;
  result.point_index = run_index / sweep_.seeds;
  result.seed_index = run_index % sweep_.seeds;

  const auto values = sweep_.point(result.point_index);
  for (std::size_t k = 0; k < sweep_.axes.size(); ++k) {
    result.params.emplace_back(sweep_.axes[k].param, values[k]);
  }
  return result;
}

std::vector<std::size_t> SweepPlan::all_runs() const {
  std::vector<std::size_t> indices(size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  return indices;
}

double SweepPlan::expected_peer_rounds(std::size_t run_index) const {
  const ScenarioSpec run = spec(run_index);
  const core::MarketConfig& cfg = run.config;
  const p2p::ProtocolConfig& protocol = cfg.protocol;
  const double horizon = cfg.horizon;
  const auto initial = static_cast<double>(protocol.initial_peers);
  double alive = initial;
  if (protocol.churn.enabled) {
    const double lifespan = protocol.churn.mean_lifespan;
    const double steady = protocol.churn.arrival_rate * lifespan;
    // Mean over [0, T] of the bootstrap cohort's survival e^(−t/L), i.e.
    // (L/T)(1 − e^(−T/L)); expm1 keeps it exact when T ≪ L.
    const double survival =
        -(lifespan / horizon) * std::expm1(-horizon / lifespan);
    alive = steady + (initial - steady) * survival;
  }
  const double cost = horizon / protocol.round_seconds * alive;
  // A spec the market would reject (non-positive horizon, lifespan or
  // round length) costs nothing to dispatch; NaN must never reach a sort.
  return std::isfinite(cost) && cost > 0.0 ? cost : 0.0;
}

std::vector<std::size_t> SweepPlan::dispatch_order(
    std::span<const std::size_t> runs) const {
  std::vector<double> cost(runs.size());
  for (std::size_t k = 0; k < runs.size(); ++k) {
    cost[k] = expected_peer_rounds(runs[k]);
  }
  std::vector<std::size_t> order(runs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cost[a] > cost[b];
                   });
  return order;
}

std::vector<std::size_t> SweepPlan::shard(std::size_t shard_index,
                                          std::size_t shard_count) const {
  CF_EXPECTS(shard_count >= 1);
  CF_EXPECTS_MSG(shard_index < shard_count,
                 "shard index must be < shard count");
  std::vector<std::size_t> indices;
  indices.reserve(size() / shard_count + 1);
  for (std::size_t i = shard_index; i < size(); i += shard_count) {
    indices.push_back(i);
  }
  return indices;
}

}  // namespace creditflow::scenario
