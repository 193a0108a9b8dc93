// perfbench workloads: runs one benchmark workload against the creditflow
// library's public API and prints its raw measurements as one JSON object
// on the last line of stdout. perfbench/run.py builds this binary, runs it,
// turns the raw samples into the metrics named in BENCHMARK.json and checks
// the output digests; this file only measures and verifies.
//
//   perfbench_workloads --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR
//
// Every layer is timed from outside: around calls into SweepRunner,
// Coordinator/run_worker, RunStore, ResultSink and StreamingProtocol, plus
// the readouts the program already exposes (RunTelemetry, phase
// accumulators, MetricsRegistry cells, run metrics, getrusage). Nothing in
// the library is modified or instrumented for the benchmark.
//
// Spans (--trace 1) are recorded by this file only, kept in memory and
// emitted with the result; the program's own util::Tracer stays disabled in
// every run, because enabling it also switches on per-buyer clock reads in
// the purchase phase and would change what is measured.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "p2p/protocol.hpp"
#include "scenario/coordinator.hpp"
#include "scenario/registry.hpp"
#include "scenario/result.hpp"
#include "scenario/runner.hpp"
#include "scenario/store.hpp"
#include "scenario/worker.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

namespace fs = std::filesystem;
namespace sc = creditflow::scenario;
using creditflow::p2p::ProtocolConfig;
using creditflow::p2p::StreamingProtocol;
using Clock = std::chrono::steady_clock;

/// Every spec and sweep seed of a workload is derived from this base and the
/// workload seed, so the program only ever sees generated specs.
constexpr std::uint64_t kBaseSeed = 2012;

/// The protocol seed of a workload. Kept below 2^53: ScenarioSpec's text
/// form carries the seed as a double, and a coordinator rejects every
/// record of a plan whose seed does not survive that round trip.
std::uint64_t workload_seed(std::uint64_t seed) {
  return creditflow::util::derive_seed(kBaseSeed, seed) >> 11;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---- Minimal JSON emission ------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string str(const std::string& s) {
  return "\"" + sc::json_escape(s) + "\"";
}

/// A JSON array of already-rendered items.
std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ",";
    out += items[i];
  }
  return out + "]";
}

std::string arr(const std::vector<double>& v) {
  std::vector<std::string> items;
  for (double x : v) items.push_back(num(x));
  return json_array(items);
}

/// Ordered key → raw JSON text; rendered as one object.
class JsonObject {
 public:
  JsonObject& set(const std::string& key, std::string raw) {
    fields_.emplace_back(key, std::move(raw));
    return *this;
  }
  JsonObject& set(const std::string& key, double v) { return set(key, num(v)); }
  [[nodiscard]] std::string render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) out += ",";
      out += str(fields_[i].first) + ":" + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ---- Spans ----------------------------------------------------------------

/// In-memory span log of the benchmark's own calls into each layer. Spans
/// carry name, layer, start/end (seconds since the log's origin), the index
/// of the span that caused them and optional numeric args (phase
/// accumulator and counter deltas taken at the same boundary). Disabled
/// logs record nothing and cost one branch per call.
class SpanLog {
 public:
  SpanLog(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] double now() const {
    return seconds_between(origin_, Clock::now());
  }

  /// Open a span starting now; returns its id (-1 when disabled).
  int open(const char* name, const char* layer, int parent) {
    return add(name, layer, parent, now(), -1.0);
  }
  void close(int id, std::vector<std::pair<std::string, double>> args = {}) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now();
    spans_[static_cast<std::size_t>(id)].args = std::move(args);
  }
  /// Record a finished span with explicit bounds.
  int add(const char* name, const char* layer, int parent, double start,
          double end, std::vector<std::pair<std::string, double>> args = {}) {
    if (!enabled_) return -1;
    spans_.push_back({name, layer, start, end, parent, std::move(args)});
    return static_cast<int>(spans_.size()) - 1;
  }

  [[nodiscard]] std::string render() const {
    std::vector<std::string> items;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonObject args;
      for (const auto& [k, v] : s.args) args.set(k, v);
      items.push_back(JsonObject()
                          .set("id", static_cast<double>(i))
                          .set("name", str(s.name))
                          .set("layer", str(s.layer))
                          .set("start", s.start)
                          .set("end", s.end)
                          .set("parent", static_cast<double>(s.parent))
                          .set("args", args.render())
                          .render());
    }
    return json_array(items);
  }

 private:
  struct Span {
    std::string name;
    std::string layer;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::vector<std::pair<std::string, double>> args;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---- Workload context -----------------------------------------------------

struct Context {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  fs::path work_dir;
  std::size_t nproc = 1;
  SpanLog spans;
  int root_span = -1;

  // Operations attempted / failed and the first few failure messages.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  JsonObject out;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 10) errors.push_back(why);
  }
  /// Count one checked operation; `ok == false` records a failure.
  void check(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) fail(why);
  }
};

/// Verify one sweep's results: one result per plan entry, in run order,
/// no duplicate or missing index, no error, the ledger conserved.
void check_results(Context& ctx, const std::vector<sc::RunResult>& results,
                   std::size_t plan_size, const std::string& what) {
  std::vector<int> seen(plan_size, 0);
  for (const auto& r : results) {
    ++ctx.attempted;
    if (r.run_index >= plan_size) {
      ctx.fail(what + ": run index out of range");
      continue;
    }
    if (++seen[r.run_index] > 1) {
      ctx.fail(what + ": duplicate record for run " +
               std::to_string(r.run_index));
    } else if (!r.error.empty()) {
      ctx.fail(what + ": run " + std::to_string(r.run_index) + ": " + r.error);
    } else if (r.metric("ledger_conserved") != 1.0) {
      ctx.fail(what + ": run " + std::to_string(r.run_index) +
               " broke ledger conservation");
    } else if (r.telemetry.churn_arrivals_dropped != 0 ||
               r.telemetry.overlay_edges_dropped != 0) {
      // A full peer or edge pool skews the arrival process the workload is
      // meant to model.
      ctx.fail(what + ": run " + std::to_string(r.run_index) +
               " ran out of peer slots or overlay edges");
    }
  }
  for (std::size_t i = 0; i < plan_size; ++i) {
    if (seen[i] == 0) {
      ++ctx.attempted;
      ctx.fail(what + ": missing record for run " + std::to_string(i));
    }
  }
}

double metric_or_zero(const sc::RunResult& r, const char* name) {
  const double v = r.metric(name);
  return std::isnan(v) ? 0.0 : v;
}

/// Per-pass sums over a set of run results (telemetry + run metrics).
struct RunSums {
  double runs = 0, rounds = 0, run_s = 0, purchase_s = 0, seed_s = 0,
         tax_s = 0, peer_rounds = 0, tx = 0, churn_events = 0,
         book_fills = 0, book_posted = 0, asks_expired = 0, bids_posted = 0,
         whitewash_resets = 0, stake_slashed = 0;
  /// Each run's mean round time (ms) and its rounds: the round-weighted
  /// samples behind a sweep's round_ms percentiles.
  std::vector<double> round_ms, round_weight;

  void add(const sc::RunResult& r) {
    const auto& t = r.telemetry;
    const double rr = static_cast<double>(t.rounds);
    runs += 1;
    rounds += rr;
    run_s += t.wall_seconds;
    purchase_s += t.purchase_phase_seconds;
    seed_s += t.seed_phase_seconds;
    tax_s += t.tax_phase_seconds;
    // alive_final stands in for the run's mean population (the report's
    // per-round alive series is dropped with keep_reports = false).
    peer_rounds += rr * metric_or_zero(r, "alive_final");
    tx += metric_or_zero(r, "transactions");
    churn_events += metric_or_zero(r, "churn_arrivals") +
                    metric_or_zero(r, "churn_departures");
    const double fills = metric_or_zero(r, "book_fills");
    const double ratio = metric_or_zero(r, "fill_ratio");
    book_fills += fills;
    if (ratio > 0.0) book_posted += fills / ratio;
    asks_expired += metric_or_zero(r, "book_asks_expired");
    bids_posted += metric_or_zero(r, "book_bids_posted");
    whitewash_resets += metric_or_zero(r, "whitewash_resets");
    stake_slashed += metric_or_zero(r, "stake_slashed");
    if (t.rounds > 0) {
      round_ms.push_back(t.wall_seconds * 1e3 / rr);
      round_weight.push_back(rr);
    }
  }

  void emit(JsonObject& o) const {
    o.set("runs", runs)
        .set("rounds", rounds)
        .set("run_s_sum", run_s)
        .set("purchase_s", purchase_s)
        .set("seed_s", seed_s)
        .set("tax_s", tax_s)
        .set("peer_rounds", peer_rounds)
        .set("tx", tx)
        .set("churn_events", churn_events)
        .set("book_fills", book_fills)
        .set("book_posted", book_posted)
        .set("asks_expired", asks_expired)
        .set("bids_posted", bids_posted)
        .set("whitewash_resets", whitewash_resets)
        .set("stake_slashed", stake_slashed)
        .set("round_ms", arr(round_ms))
        .set("round_weight", arr(round_weight));
  }
};

/// Fold results into a ResultSink the way market_cli does and return the
/// aggregate CSV (the workload's output bytes).
std::string aggregate_csv(std::vector<sc::RunResult> results,
                          std::size_t seeds) {
  sc::ResultSink sink;
  sink.set_expected_replications(seeds);
  sink.add_all(std::move(results));
  return sink.aggregate_csv();
}

/// One sweep's wall time, run completion times (seconds since the sweep
/// started) and worker count: the input of the makespan-tail figure.
std::string sweep_json(double wall_s, const std::vector<double>& completions,
                       std::size_t workers) {
  return JsonObject()
      .set("wall_s", wall_s)
      .set("completions", arr(completions))
      .set("workers", static_cast<double>(workers))
      .render();
}

/// Loop `pass` until the measurement window is spent: always one pass, and
/// another while at least half of it is expected to fit inside `seconds`.
template <typename Pass>
void run_passes(Context& ctx, Pass&& pass) {
  const Clock::time_point begin = Clock::now();
  double last = 0.0;
  std::size_t k = 0;
  do {
    const Clock::time_point t0 = Clock::now();
    pass(k++);
    last = seconds_between(t0, Clock::now());
  } while (seconds_between(begin, Clock::now()) + 0.5 * last <= ctx.seconds);
}

/// Time `sample(thread)` `per_thread` times on each of `threads` threads at
/// once and return every duration it reports. A lone thread's timing follows
/// whichever CPU it lands on; sampling on every CPU at once averages over
/// the machine. `sample` must touch no shared state.
template <typename Sample>
std::vector<double> sample_on_all_cpus(std::size_t threads, int per_thread,
                                       const Sample& sample) {
  std::vector<std::vector<double>> got(threads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < per_thread; ++i) got[t].push_back(sample(t));
    });
  }
  for (auto& th : pool) th.join();
  std::vector<double> all;
  for (const auto& g : got) all.insert(all.end(), g.begin(), g.end());
  return all;
}

/// Mean of one sampling on every CPU. A thread's set-up time sits in one of
/// a few modes, set by the CPU it lands on and what shares that CPU's core;
/// the median of the samples jumps between modes as the host's load shifts,
/// while the mean moves with the share of threads in each.
double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// ---- Round timer ----------------------------------------------------------

/// A market the benchmark drives round by round: the simulator and the
/// protocol scheduled on it (declared in that order, destroyed in reverse).
struct Market {
  explicit Market(const ProtocolConfig& cfg) : proto(cfg, sim) {}
  creditflow::sim::Simulator sim;
  StreamingProtocol proto;
};

/// Phase accumulators and registry cells of one protocol — the readouts a
/// sweep's run records do not carry.
struct Readout {
  double purchase = 0, seed = 0, tax = 0, tx = 0, liquidity_failures = 0,
         churn = 0, one_word = 0, two_word = 0, generic = 0,
         candidates_sum = 0, candidates_count = 0, queue_depth_sum = 0,
         queue_depth_count = 0;

  static Readout of(StreamingProtocol& p) {
    const auto& reg = p.metrics();
    auto c = [&reg](const char* name) {
      return static_cast<double>(reg.counter(name));
    };
    auto h = [&reg](const char* name, bool count) {
      const auto* hist = reg.histogram(name);
      if (hist == nullptr) return 0.0;
      return count ? static_cast<double>(hist->count()) : hist->sum();
    };
    return {p.purchase_phase_seconds(),
            p.seed_phase_seconds(),
            p.tax_phase_seconds(),
            c("market.transactions"),
            c("market.liquidity_failures"),
            c("churn.arrivals") + c("churn.departures"),
            c("purchase.phase_one_word"),
            c("purchase.phase_two_word"),
            c("purchase.phase_generic"),
            h("purchase.candidates", false),
            h("purchase.candidates", true),
            h("sim.queue_depth", false),
            h("sim.queue_depth", true)};
  }
  /// this += (b - a), field by field.
  void add_delta(const Readout& a, const Readout& b) {
    purchase += b.purchase - a.purchase;
    seed += b.seed - a.seed;
    tax += b.tax - a.tax;
    tx += b.tx - a.tx;
    liquidity_failures += b.liquidity_failures - a.liquidity_failures;
    churn += b.churn - a.churn;
    one_word += b.one_word - a.one_word;
    two_word += b.two_word - a.two_word;
    generic += b.generic - a.generic;
    candidates_sum += b.candidates_sum - a.candidates_sum;
    candidates_count += b.candidates_count - a.candidates_count;
    queue_depth_sum += b.queue_depth_sum - a.queue_depth_sum;
    queue_depth_count += b.queue_depth_count - a.queue_depth_count;
  }
};

/// Timed rounds of every market a workload drives directly, pooled.
struct RoundSamples {
  std::vector<double> round_ms;  ///< one wall-time sample per round
  std::vector<double> start_s;   ///< StreamingProtocol::start per market
  double peer_rounds = 0.0;      ///< sum of alive peers over timed rounds
  Readout delta;                 ///< readout deltas over the timed rounds

  /// Registry readouts and start() times; with `rounds`, the per-round
  /// samples too.
  void emit(Context& ctx, bool rounds) const {
    if (rounds) ctx.out.set("round_ms", arr(round_ms));
    ctx.out.set("start_s", arr(start_s));
    JsonObject r;
    r.set("rounds", static_cast<double>(round_ms.size()))
        .set("peer_rounds", peer_rounds)
        .set("purchase_s", delta.purchase)
        .set("seed_s", delta.seed)
        .set("tax_s", delta.tax)
        .set("tx", delta.tx)
        .set("liquidity_failures", delta.liquidity_failures)
        .set("churn_events", delta.churn)
        .set("phase_one_word", delta.one_word)
        .set("phase_two_word", delta.two_word)
        .set("phase_generic", delta.generic)
        .set("candidates_sum", delta.candidates_sum)
        .set("candidates_count", delta.candidates_count)
        .set("queue_depth_sum", delta.queue_depth_sum)
        .set("queue_depth_count", delta.queue_depth_count);
    ctx.out.set("registry", r.render());
  }
};

/// Construct and start a market; records the start() time.
std::unique_ptr<Market> start_market(Context& ctx, const ProtocolConfig& cfg,
                                     RoundSamples& out, int parent) {
  const int span = ctx.spans.open("setup", "p2p", parent);
  auto m = std::make_unique<Market>(cfg);
  const Clock::time_point s0 = Clock::now();
  const int start_span = ctx.spans.open("start", "graph", span);
  m->proto.start();
  ctx.spans.close(start_span);
  out.start_s.push_back(seconds_between(s0, Clock::now()));
  ctx.spans.close(span);
  return m;
}

/// Run `m` one round at a time — at least `min_rounds`, and on until
/// `seconds` have passed — timing each run_until call. Every round's ledger
/// is audited (outside the timer). `after_round(k)` runs after timed round
/// k (1-based), outside the timer too.
template <typename AfterRound>
void time_rounds(Context& ctx, Market& m, std::size_t min_rounds,
                 double seconds, int parent, RoundSamples& out,
                 AfterRound&& after_round) {
  StreamingProtocol& proto = m.proto;
  const Readout before = Readout::of(proto);
  const Clock::time_point begin = Clock::now();
  for (std::size_t k = 1;
       k <= min_rounds || seconds_between(begin, Clock::now()) < seconds;
       ++k) {
    const double alive = static_cast<double>(proto.num_alive());
    const Readout r0 = ctx.spans.enabled() ? Readout::of(proto) : Readout{};
    const int span = ctx.spans.open("round", "p2p", parent);
    const Clock::time_point t0 = Clock::now();
    m.sim.run_until(m.sim.now() + proto.config().round_seconds);
    const Clock::time_point t1 = Clock::now();
    if (span >= 0) {
      const Readout r1 = Readout::of(proto);
      ctx.spans.close(span, {{"alive", alive},
                             {"purchase_s", r1.purchase - r0.purchase},
                             {"seed_s", r1.seed - r0.seed},
                             {"tax_s", r1.tax - r0.tax},
                             {"tx", r1.tx - r0.tx}});
    }
    out.round_ms.push_back(seconds_between(t0, t1) * 1e3);
    out.peer_rounds += alive;
    ctx.check(proto.ledger().audit(), "ledger audit failed after a round");
    after_round(k);
  }
  out.delta.add_delta(before, Readout::of(proto));
  ctx.check(proto.metrics().counter("churn.arrivals_dropped") == 0 &&
                proto.metrics().counter("overlay.edges_dropped") == 0,
            "a driven market ran out of peer slots or overlay edges");
}

/// The registry probe of a sweep workload (traced runs only): one of its
/// plan entries driven directly, one round at a time, after the sweeps, for
/// the readouts that run records do not carry.
void probe_registry(Context& ctx, const sc::ScenarioSpec& spec,
                    double warm_rounds, std::size_t timed_rounds) {
  RoundSamples out;
  const int span = ctx.spans.open("probe", "p2p", ctx.root_span);
  const ProtocolConfig cfg = spec.materialize().protocol;
  auto m = start_market(ctx, cfg, out, span);
  m->sim.run_until(warm_rounds * cfg.round_seconds);
  time_rounds(ctx, *m, timed_rounds, 0.0, span, out, [](std::size_t) {});
  ctx.spans.close(span);
  out.emit(ctx, false);
}

// ---- Grid workloads (fig11_grid, book_grid) -------------------------------

struct GridSweep {
  sc::ScenarioSpec base;
  sc::SweepSpec sweep;
};

sc::SweepAxis axis(const std::string& text) { return sc::SweepAxis::parse(text); }

sc::ScenarioSpec preset(const char* name, std::uint64_t seed) {
  sc::ScenarioSpec spec = sc::ScenarioRegistry::builtin().get(name);
  spec.config.protocol.seed = workload_seed(seed);
  return spec;
}

std::vector<GridSweep> fig11_grid(std::uint64_t seed) {
  // The fig11_churn open-market grid at its published horizon.
  GridSweep g{preset("fig11_churn", seed), {}};
  g.sweep.axes = {axis("churn.arrival_rate=1,2"),
                  axis("churn.mean_lifespan=100,200,500")};
  g.sweep.seeds = 2;
  return {g};
}

std::vector<GridSweep> book_grid(std::uint64_t seed) {
  // The order-book and strategy presets at a shortened horizon: the book
  // crossing, repricing, stake and whitewash paths do most of the work. A
  // book market's round cost depends on its seed, so each point gets eight
  // short replications rather than a few long ones.
  auto shorten = [seed](const char* name) {
    sc::ScenarioSpec spec = preset(name, seed);
    spec.config.horizon = 400.0;
    spec.config.snapshot_interval = 100.0;
    return spec;
  };
  std::vector<GridSweep> grids;
  grids.push_back({shorten("obk01_clearing"), {}});
  grids.back().sweep.seeds = 8;
  grids.push_back({shorten("obk02_markup"), {}});
  grids.back().sweep.axes = {axis("book.cross=0,1,2")};
  grids.back().sweep.seeds = 8;
  grids.push_back({shorten("adv03_stake"), {}});
  grids.back().sweep.seeds = 8;
  return grids;
}

/// Plan construction: every plan entry instantiated and content-addressed,
/// the work the runner and coordinator do before executing anything.
double time_plans(const std::vector<GridSweep>& grids) {
  const Clock::time_point t0 = Clock::now();
  for (const auto& g : grids) {
    const sc::SweepPlan plan(g.base, g.sweep);
    for (std::size_t i = 0; i < plan.size(); ++i) (void)plan.key(i);
  }
  return seconds_between(t0, Clock::now());
}

/// One warm replay of every grid from the store at `cache`.
struct Replay {
  double runs = 0.0;   ///< runs answered
  double hits = 0.0;   ///< of which from the store
  std::string error;   ///< first problem found; empty when all is well
};

/// Replay the grids from the store: every run must come back from the
/// store, successful, once per plan entry and in order, and the aggregate
/// output must equal the cold pass's `expected_csv`. Touches no shared
/// state, so replayers run concurrently.
Replay replay_grids(const std::vector<GridSweep>& grids,
                    const fs::path& cache, const std::string& expected_csv) {
  Replay out;
  std::string csv;
  for (const GridSweep& g : grids) {
    sc::SweepRunner::Options opt;
    opt.keep_reports = false;
    opt.cache_dir = cache.string();
    sc::SweepRunner runner(g.base, g.sweep, std::move(opt));
    std::vector<sc::RunResult> results = runner.run();
    const std::size_t n = g.sweep.num_runs();
    out.runs += static_cast<double>(n);
    out.hits += static_cast<double>(runner.cache_hits());
    bool ok = results.size() == n && runner.cache_hits() == n;
    for (std::size_t i = 0; ok && i < results.size(); ++i) {
      ok = results[i].run_index == i && results[i].error.empty() &&
           results[i].metric("ledger_conserved") == 1.0;
    }
    if (!ok && out.error.empty()) {
      out.error = "replay " + g.base.name + ": a run was missing, failed " +
                  "or not answered from the store";
    }
    csv += aggregate_csv(std::move(results), g.sweep.seeds);
  }
  if (csv != expected_csv && out.error.empty()) {
    out.error = "replayed output differs from the cold pass";
  }
  return out;
}

/// The raw figures of one replay measurement: runs answered in `wall_s`.
std::string replay_json(double runs, double wall_s) {
  return JsonObject().set("runs", runs).set("wall_s", wall_s).render();
}

/// Runs a pass's warm replay answers from the store, spread over one
/// replayer per CPU: about a second of store reads per pass, so the replay
/// figure rests on more than a moment of the host's time.
constexpr double kReplayRunsPerPass = 20000.0;

/// Run `replay()` (returns a Replay, touches no shared state) on every CPU
/// at once, enough times per thread to answer about kReplayRunsPerPass runs
/// of `runs_per_replay` each; fold the outcomes into `ctx` and return the
/// replay_json of the whole block. A lone thread's speed follows whichever
/// CPU it lands on; nproc of them average over the machine, as the sweep
/// does.
template <typename ReplayFn>
std::string replay_on_all_cpus(Context& ctx, double runs_per_replay,
                               const ReplayFn& replay, double& hits,
                               double& total) {
  const std::size_t threads = ctx.nproc;
  const int per_thread = std::max(
      1, static_cast<int>(std::ceil(kReplayRunsPerPass /
                                    (runs_per_replay * threads))));
  std::vector<std::vector<Replay>> done(threads);
  std::vector<std::thread> replayers;
  const Clock::time_point r0 = Clock::now();
  for (std::size_t t = 0; t < threads; ++t) {
    replayers.emplace_back([&, t] {
      for (int rep = 0; rep < per_thread; ++rep) {
        try {
          done[t].push_back(replay());
        } catch (const std::exception& e) {
          done[t].push_back({0.0, 0.0, std::string("replay threw: ") + e.what()});
        }
      }
    });
  }
  for (auto& r : replayers) r.join();
  const double wall = seconds_between(r0, Clock::now());
  double runs = 0.0;
  for (const auto& per : done) {
    for (const Replay& r : per) {
      runs += r.runs;
      hits += r.hits;
      ctx.attempted += static_cast<std::uint64_t>(r.runs);
      if (!r.error.empty()) ctx.fail(r.error);
    }
  }
  total += runs;
  return replay_json(runs, wall);
}

void run_grid(Context& ctx, const std::vector<GridSweep>& grids) {
  const std::size_t jobs = ctx.nproc;

  // Set-up: plan construction, sampled on every CPU before the first pass
  // and after every pass so the median spans the whole run; it is
  // sub-millisecond. Each sampling contributes its mean (see mean()).
  std::vector<double> setup, plan_ms;
  auto sample_setup = [&] {
    const int span = ctx.spans.open("setup", "scenario", ctx.root_span);
    const std::vector<double> got =
        sample_on_all_cpus(jobs, 25, [&](std::size_t) { return time_plans(grids); });
    ctx.spans.close(span);
    setup.push_back(mean(got));
    for (double s : got) plan_ms.push_back(s * 1e3);
  };
  sample_setup();

  std::vector<std::string> passes, replays;
  double replay_hits = 0.0, replay_total = 0.0;
  std::string first_digest;
  run_passes(ctx, [&](std::size_t k) {
    const fs::path cache = ctx.work_dir / ("grid_pass" + std::to_string(k));
    RunSums sums;
    std::vector<std::string> sweeps;
    double wall = 0.0, aggregate_s = 0.0;
    std::string csv;
    for (const GridSweep& g : grids) {
      const std::size_t n = g.sweep.num_runs();
      const int sweep_span = ctx.spans.open("sweep", "scenario", ctx.root_span);
      const Clock::time_point t0 = Clock::now();
      std::vector<double> done_at;
      sc::SweepRunner::Options opt;
      opt.jobs = jobs;
      opt.keep_reports = false;
      opt.cache_dir = cache.string();
      opt.on_result = [&](const sc::RunResult& r) {
        const double now = seconds_between(t0, Clock::now());
        done_at.push_back(now);
        const double base = ctx.spans.enabled() ? ctx.spans.now() : 0.0;
        const auto& t = r.telemetry;
        ctx.spans.add("run", "p2p", sweep_span, base - t.wall_seconds, base,
                      {{"rounds", static_cast<double>(t.rounds)},
                       {"purchase_s", t.purchase_phase_seconds},
                       {"seed_s", t.seed_phase_seconds},
                       {"tax_s", t.tax_phase_seconds}});
      };
      sc::SweepRunner runner(g.base, g.sweep, std::move(opt));
      std::vector<sc::RunResult> results = runner.run();
      const double sweep_wall = seconds_between(t0, Clock::now());
      ctx.spans.close(sweep_span);
      check_results(ctx, results, n, "sweep " + g.base.name);
      ctx.check(runner.executed() == n, "cold sweep answered from cache");
      for (const auto& r : results) sums.add(r);

      const int agg_span = ctx.spans.open("aggregate", "scenario", ctx.root_span);
      const Clock::time_point a0 = Clock::now();
      csv += aggregate_csv(std::move(results), g.sweep.seeds);
      const double agg = seconds_between(a0, Clock::now());
      ctx.spans.close(agg_span);
      aggregate_s += agg;
      wall += sweep_wall + agg;

      sweeps.push_back(sweep_json(sweep_wall, done_at, jobs));
    }
    const std::string digest = hex64(creditflow::util::fnv1a64(csv));
    if (first_digest.empty()) first_digest = digest;
    ctx.check(digest == first_digest, "aggregate output changed between passes");

    // Warm replay: the same plans answered entirely from the store.
    {
      std::size_t runs_per_replay = 0;
      for (const GridSweep& g : grids) runs_per_replay += g.sweep.num_runs();
      const int span = ctx.spans.open("replay", "scenario", ctx.root_span);
      replays.push_back(replay_on_all_cpus(
          ctx, static_cast<double>(runs_per_replay),
          [&] { return replay_grids(grids, cache, csv); }, replay_hits,
          replay_total));
      ctx.spans.close(span);
    }
    fs::remove_all(cache);
    sample_setup();

    JsonObject p;
    p.set("wall_s", wall)
        .set("aggregate_ms", aggregate_s * 1e3)
        .set("sweeps", json_array(sweeps))
        .set("jobs", static_cast<double>(jobs));
    sums.emit(p);
    passes.push_back(p.render());
  });

  ctx.out.set("passes", json_array(passes));
  ctx.out.set("setup_s", arr(setup));
  ctx.out.set("plan_ms", arr(plan_ms));
  ctx.out.set("replays", json_array(replays));
  ctx.out.set("replay_hits", replay_hits);
  ctx.out.set("replay_total", replay_total);
  ctx.out.set("digest", str(first_digest));
  ctx.out.set("jobs", static_cast<double>(jobs));
  ctx.out.set("sessions", 0.0);
}

// ---- large_market ---------------------------------------------------------

/// One 10^5-peer open market driven round by round. The configuration is
/// the BM_SimulationCoreScale point: arrival 2/s, lifespan N/2, the fig11
/// window and degree (the protocol defaults).
ProtocolConfig large_config(std::uint64_t seed) {
  constexpr std::size_t n = 100000;
  ProtocolConfig cfg;
  cfg.initial_peers = n;
  cfg.max_peers = n + n / 8 + 16;
  cfg.initial_credits = 100;
  cfg.seed = workload_seed(seed);
  cfg.heterogeneity.spend_rate_cv = 0.3;
  cfg.churn.enabled = true;
  cfg.churn.arrival_rate = 2.0;
  cfg.churn.mean_lifespan = static_cast<double>(n) / 2.0;
  return cfg;
}

void run_large(Context& ctx) {
  constexpr int kSetups = 3;
  constexpr double kWarmRounds = 10.0;
  constexpr std::size_t kDigestRounds = 100;  // >= 100 samples for a p90
  const ProtocolConfig cfg = large_config(ctx.seed);

  // Set-up (construct + start) several times; the last market is measured.
  RoundSamples samples;
  std::vector<double> setup;
  std::unique_ptr<Market> m;
  Clock::time_point run_begin;
  for (int i = 0; i < kSetups; ++i) {
    m.reset();
    run_begin = Clock::now();
    m = start_market(ctx, cfg, samples, ctx.root_span);
    setup.push_back(seconds_between(run_begin, Clock::now()));
  }
  {
    const int span = ctx.spans.open("warmup", "p2p", ctx.root_span);
    m->sim.run_until(kWarmRounds * cfg.round_seconds);
    ctx.spans.close(span);
  }

  // Replay: the warm-up run, stored under the content address of its spec
  // (horizon = the warm-up), answered back from a freshly loaded RunStore —
  // a few times after every timed round, so the samples spread over the
  // whole measurement.
  sc::ScenarioSpec spec;
  spec.name = "large_market";
  spec.config.protocol = cfg;
  spec.config.horizon = kWarmRounds * cfg.round_seconds;
  const sc::RunKey key = sc::RunKey::of(spec.serialize(), 0);
  const double warm_tx = static_cast<double>(
      m->proto.metrics().counter("market.transactions"));
  const fs::path store_dir = ctx.work_dir / "large_store";
  {
    sc::RunResult record;
    record.seed = cfg.seed;
    record.metrics = {{"transactions", warm_tx},
                      {"ledger_conserved", m->proto.ledger().audit() ? 1.0 : 0.0}};
    record.telemetry.wall_seconds = seconds_between(run_begin, Clock::now());
    record.telemetry.rounds = static_cast<std::uint64_t>(kWarmRounds);
    sc::RunStore(store_dir.string()).put(key, record);
  }
  constexpr int kReplaysPerRound = 20;
  double replay_s = 0.0, replay_hits = 0.0, replay_total = 0.0;

  double full_run_s = 0.0;
  std::string digest;
  time_rounds(ctx, *m, kDigestRounds, ctx.seconds, ctx.root_span, samples,
              [&](std::size_t k) {
                for (int rep = 0; rep < kReplaysPerRound; ++rep) {
                  const Clock::time_point r0 = Clock::now();
                  const sc::RunStore store(store_dir.string());
                  const sc::RunResult* hit = store.find(key);
                  replay_s += seconds_between(r0, Clock::now());
                  replay_total += 1.0;
                  if (hit != nullptr) replay_hits += 1.0;
                  ctx.check(hit != nullptr &&
                                hit->metric("transactions") == warm_tx,
                            "stored large-market run not answered from the "
                            "store");
                }
                if (k != kDigestRounds) return;
                full_run_s = seconds_between(run_begin, Clock::now());
                const auto& reg = m->proto.metrics();
                const auto& l = m->proto.ledger();
                std::ostringstream text;
                text << "tx=" << reg.counter("market.transactions")
                     << ";volume=" << reg.counter("market.volume")
                     << ";liquidity_failures="
                     << reg.counter("market.liquidity_failures")
                     << ";arrivals=" << reg.counter("churn.arrivals")
                     << ";departures=" << reg.counter("churn.departures")
                     << ";alive=" << m->proto.num_alive()
                     << ";minted=" << l.total_minted()
                     << ";burned=" << l.total_burned();
                digest = hex64(creditflow::util::fnv1a64(text.str()));
              });
  fs::remove_all(store_dir);

  samples.emit(ctx, true);
  ctx.out.set("setup_s", arr(setup));
  ctx.out.set("full_run_s", full_run_s);
  ctx.out.set("replays", json_array({replay_json(replay_total, replay_s)}));
  ctx.out.set("replay_hits", replay_hits);
  ctx.out.set("replay_total", replay_total);
  ctx.out.set("digest", str(digest));
  ctx.out.set("jobs", 1.0);
  ctx.out.set("sessions", 0.0);
}

// ---- farm_small_runs ------------------------------------------------------

GridSweep farm_grid(std::uint64_t seed) {
  // 10^3 small, short open-market runs: the farm's per-run costs (leases,
  // record serialize/parse, store and journal appends, key hashing) are a
  // large share of each run here and nowhere else.
  GridSweep g{preset("fig11_churn", seed), {}};
  g.base.config.protocol.initial_peers = 100;
  g.base.config.protocol.max_peers = 256;
  g.base.config.horizon = 200.0;
  g.base.config.snapshot_interval = 50.0;
  g.sweep.axes = {axis("churn.arrival_rate=0.1:1:0.1"),
                  axis("churn.mean_lifespan=20:200:20")};
  g.sweep.seeds = 10;
  return g;
}

std::uintmax_t file_bytes(const fs::path& p) {
  std::error_code ec;
  const auto n = fs::file_size(p, ec);
  return ec ? 0 : n;
}

/// One warm pass of the farm: a coordinator over the cold pass's store,
/// every run a cache hit, folded into the aggregate output, which must equal
/// the cold pass's `expected_csv`. No worker attaches, so drain_seconds = 0
/// keeps the coordinator from sleeping out its straggler window. Touches no
/// shared state, so warm passes run concurrently.
Replay replay_farm(const GridSweep& g, const fs::path& store,
                   const std::string& expected_csv) {
  const std::size_t n = g.sweep.num_runs();
  sc::Coordinator::Options opt;
  opt.cache_dir = store.string();
  opt.drain_seconds = 0.0;
  sc::Coordinator warm(g.base, g.sweep, opt);
  std::vector<sc::RunResult> results = warm.run();
  Replay out{static_cast<double>(n), static_cast<double>(warm.cache_hits()), {}};
  bool ok = results.size() == n && warm.cache_hits() == n && warm.executed() == 0;
  for (std::size_t i = 0; ok && i < results.size(); ++i) {
    ok = results[i].run_index == i && results[i].error.empty() &&
         results[i].metric("ledger_conserved") == 1.0;
  }
  if (!ok) {
    out.error = "farm warm pass: a run was missing, failed or not answered "
                "from the store";
  } else if (aggregate_csv(std::move(results), g.sweep.seeds) != expected_csv) {
    out.error = "farm warm pass: replayed output differs from the cold pass";
  }
  return out;
}

void run_farm(Context& ctx, const GridSweep& g) {
  const std::size_t n = g.sweep.num_runs();
  const std::size_t sessions = std::max<std::size_t>(1, ctx.nproc - 1);

  std::vector<double> setup, plan_ms, store_load_ms;
  std::vector<std::string> replays;
  double replay_hits = 0.0, replay_total = 0.0;
  std::vector<std::string> passes;
  std::string first_digest;
  run_passes(ctx, [&](std::size_t k) {
    const fs::path dir = ctx.work_dir / ("farm_pass" + std::to_string(k));
    plan_ms.push_back(time_plans({g}) * 1e3);

    // Cold pass: coordinator with store and journal, one in-process worker
    // of nproc - 1 sessions over loopback.
    RunSums sums;
    sc::Coordinator::Options opt;
    int serve_span = -1;
    Clock::time_point w0;
    std::vector<double> done_at;
    opt.on_result = [&](const sc::RunResult& r) {
      done_at.push_back(seconds_between(w0, Clock::now()));
      const double end = ctx.spans.enabled() ? ctx.spans.now() : 0.0;
      ctx.spans.add("run", "p2p", serve_span, end - r.telemetry.wall_seconds,
                    end, {{"rounds", static_cast<double>(r.telemetry.rounds)}});
    };
    // Set-up (plan keys, store and journal open, bind): one coordinator
    // per CPU at once, each on fresh files, timed and closed, their mean the
    // pass's sample; then the coordinator that serves.
    {
      const int span = ctx.spans.open("coordinator_setup", "scenario",
                                      ctx.root_span);
      setup.push_back(mean(sample_on_all_cpus(ctx.nproc, 1, [&](std::size_t t) {
        sc::Coordinator::Options o;
        const fs::path d = dir / ("setup" + std::to_string(t));
        o.cache_dir = (d / "store").string();
        o.journal_path = (d / "journal.jsonl").string();
        const Clock::time_point c0 = Clock::now();
        const sc::Coordinator c(g.base, g.sweep, o);
        return seconds_between(c0, Clock::now());
      })));
      ctx.spans.close(span);
    }
    const fs::path serve_dir = dir / "serve";
    opt.cache_dir = (serve_dir / "store").string();
    opt.journal_path = (serve_dir / "journal.jsonl").string();
    auto coord = std::make_unique<sc::Coordinator>(g.base, g.sweep, opt);

    serve_span = ctx.spans.open("serve", "scenario", ctx.root_span);
    w0 = Clock::now();
    sc::WorkerReport report;
    std::thread worker([&] {
      sc::WorkerOptions wopt;
      wopt.sessions = sessions;
      report = sc::run_worker("127.0.0.1", coord->port(), wopt);
      if (!report.completed) {
        // The coordinator would wait for a worker forever; end the process
        // instead of hanging (a failed run, reported by the exit code).
        std::cerr << "perfbench_workloads: worker gave up: " << report.error
                  << "\n";
        std::_Exit(3);
      }
    });
    std::vector<sc::RunResult> results;
    try {
      results = coord->run();
    } catch (...) {
      worker.join();
      throw;
    }
    worker.join();
    const double cold_wall = seconds_between(w0, Clock::now());
    ctx.spans.close(serve_span);
    check_results(ctx, results, n, "farm cold pass");
    ctx.check(report.completed && report.error.empty(),
              "worker did not finish the sweep: " + report.error);
    ctx.check(coord->executed() == n && coord->cache_hits() == 0,
              "cold pass did not execute every run");
    for (const auto& r : results) sums.add(r);
    const double requeued = static_cast<double>(coord->requeued());
    const double duplicates = static_cast<double>(coord->duplicates());
    coord.reset();

    const int agg_span = ctx.spans.open("aggregate", "scenario", ctx.root_span);
    const Clock::time_point a0 = Clock::now();
    const std::string csv = aggregate_csv(std::move(results), g.sweep.seeds);
    const double agg_s = seconds_between(a0, Clock::now());
    ctx.spans.close(agg_span);
    const std::string digest = hex64(creditflow::util::fnv1a64(csv));
    if (first_digest.empty()) first_digest = digest;
    ctx.check(digest == first_digest, "aggregate output changed between passes");

    // Store read path alone.
    {
      const int span = ctx.spans.open("store_load", "scenario", ctx.root_span);
      const Clock::time_point l0 = Clock::now();
      const sc::RunStore store((serve_dir / "store").string());
      store_load_ms.push_back(seconds_between(l0, Clock::now()) * 1e3);
      ctx.spans.close(span);
      ctx.check(store.size() == n, "store does not hold every run");
    }

    // Warm pass: the same plan, every run a cache hit.
    {
      const int span = ctx.spans.open("replay", "scenario", ctx.root_span);
      replays.push_back(replay_on_all_cpus(
          ctx, static_cast<double>(n),
          [&] { return replay_farm(g, serve_dir / "store", csv); }, replay_hits,
          replay_total));
      ctx.spans.close(span);
    }

    JsonObject p;
    p.set("wall_s", cold_wall)
        .set("aggregate_ms", agg_s * 1e3)
        .set("jobs", static_cast<double>(sessions))
        .set("sweeps", json_array({sweep_json(cold_wall, done_at, sessions)}))
        .set("wait_retries", static_cast<double>(report.wait_retries))
        .set("requeued", requeued)
        .set("duplicates", duplicates + static_cast<double>(report.duplicates))
        .set("store_bytes",
             static_cast<double>(file_bytes(serve_dir / "store" / "runs.jsonl")))
        .set("journal_bytes",
             static_cast<double>(file_bytes(serve_dir / "journal.jsonl")));
    sums.emit(p);
    passes.push_back(p.render());
    fs::remove_all(dir);
  });

  ctx.out.set("passes", json_array(passes));
  ctx.out.set("setup_s", arr(setup));
  ctx.out.set("plan_ms", arr(plan_ms));
  ctx.out.set("replays", json_array(replays));
  ctx.out.set("replay_hits", replay_hits);
  ctx.out.set("replay_total", replay_total);
  ctx.out.set("store_load_ms", arr(store_load_ms));
  ctx.out.set("digest", str(first_digest));
  ctx.out.set("jobs", static_cast<double>(sessions));
  ctx.out.set("sessions", static_cast<double>(sessions));
}

// ---- main -----------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_workloads: " << why
            << "\nusage: perfbench_workloads --workload "
               "fig11_grid|book_grid|large_market|farm_small_runs --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n";
  std::exit(64);
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point origin = Clock::now();
  std::string workload, work_dir;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") workload = value;
      else if (flag == "--seed") seed = std::stoull(value);
      else if (flag == "--seconds") seconds = std::stod(value);
      else if (flag == "--trace") trace = std::stoi(value);
      else if (flag == "--work-dir") work_dir = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (argc % 2 == 0) usage("flags take one value each");
  if (workload.empty() || work_dir.empty() || seconds <= 0.0 ||
      (trace != 0 && trace != 1)) {
    usage("missing or invalid arguments");
  }

  Context ctx{seed, seconds, work_dir, online_cpus(),
              SpanLog(trace == 1, origin), -1, 0, 0, {}, {}};
  fs::create_directories(ctx.work_dir);
  ctx.root_span = ctx.spans.open("workload", "bench", -1);

  try {
    // Registry probes (traced runs): fig11's costliest grid point (arrival
    // 2, lifespan 500) past its early growth; obk01, the book preset whose
    // round cost varies least with the seed; the farm's largest small run.
    if (workload == "fig11_grid") {
      const auto grids = fig11_grid(seed);
      run_grid(ctx, grids);
      const sc::SweepPlan plan(grids[0].base, grids[0].sweep);
      if (ctx.spans.enabled()) probe_registry(ctx, plan.spec(plan.size() - 1), 500, 1000);
    } else if (workload == "book_grid") {
      const auto grids = book_grid(seed);
      run_grid(ctx, grids);
      const sc::SweepPlan plan(grids[0].base, grids[0].sweep);
      if (ctx.spans.enabled()) probe_registry(ctx, plan.spec(0), 100, 300);
    } else if (workload == "large_market") {
      run_large(ctx);
    } else if (workload == "farm_small_runs") {
      const GridSweep g = farm_grid(seed);
      run_farm(ctx, g);
      const sc::SweepPlan plan(g.base, g.sweep);
      if (ctx.spans.enabled()) probe_registry(ctx, plan.spec(plan.size() - 1), 20, 180);
    } else {
      usage("unknown workload " + workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_workloads: " << workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  ctx.spans.close(ctx.root_span);
  // The program's span tracer must never have been on: it would add clock
  // reads inside the purchase phase.
  const bool tracer_on = creditflow::util::Tracer::enabled();
  ctx.check(!tracer_on, "the program's util::Tracer was enabled");

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double cpu_s = static_cast<double>(ru.ru_utime.tv_sec) +
                       static_cast<double>(ru.ru_utime.tv_usec) * 1e-6 +
                       static_cast<double>(ru.ru_stime.tv_sec) +
                       static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  std::vector<std::string> errors;
  for (const std::string& e : ctx.errors) errors.push_back(str(e));
  ctx.out.set("nproc", static_cast<double>(ctx.nproc))
      .set("build_type", str(PERFBENCH_BUILD_TYPE))
      .set("compiler", str(PERFBENCH_COMPILER))
      .set("program_tracer_enabled", tracer_on ? 1.0 : 0.0)
      .set("process_wall_s", seconds_between(origin, Clock::now()))
      .set("cpu_s", cpu_s)
      .set("maxrss_kb", static_cast<double>(ru.ru_maxrss))
      .set("minor_faults", static_cast<double>(ru.ru_minflt))
      .set("invol_ctx_switches", static_cast<double>(ru.ru_nivcsw))
      .set("attempted", static_cast<double>(ctx.attempted))
      .set("failed", static_cast<double>(ctx.failed))
      .set("errors", json_array(errors))
      .set("spans", ctx.spans.render());
  std::cout << ctx.out.render() << std::endl;
  return 0;
}
