// Tests for the work-stealing sweep coordinator and its socket workers:
// the determinism-under-chaos contract. An in-process coordinator serves a
// plan to worker threads over loopback TCP, and in every scenario — clean
// multi-worker execution, a warm RunStore, a worker killed mid-run, a
// worker whose heartbeats stall past the lease timeout, duplicate and
// corrupt deliveries — the merged run-record set and the aggregate
// CSV/JSON must be byte-identical to a single-process ThreadPoolExecutor
// run of the same spec, with exactly one record per RunKey.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "scenario/scenario.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"

namespace creditflow::scenario {
namespace {

ScenarioSpec tiny_base() {
  ScenarioSpec spec;
  spec.name = "tiny";
  spec.config.protocol.initial_peers = 40;
  spec.config.protocol.max_peers = 40;
  spec.config.protocol.initial_credits = 30;
  spec.config.protocol.seed = 2012;
  spec.config.horizon = 60.0;
  spec.config.snapshot_interval = 15.0;
  return spec;
}

SweepSpec tiny_sweep() {
  SweepSpec sweep;
  sweep.axes.push_back(SweepAxis::parse("credits=20,40"));
  sweep.axes.push_back(SweepAxis::parse("tax.rate=0,0.2"));
  sweep.seeds = 2;
  return sweep;
}

/// A fresh (pre-cleaned) per-test scratch directory.
std::filesystem::path scratch_dir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   "creditflow_coordinator" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Every rendering whose bytes the distributed path must reproduce.
struct Rendered {
  std::string records;  ///< the merged run-record set, in run_index order
  std::string runs_csv;
  std::string aggregate_csv;
  std::string aggregate_json;
};

Rendered render(const ScenarioSpec& base, const SweepSpec& sweep,
                const std::vector<RunResult>& results) {
  const SweepPlan plan(base, sweep);
  Rendered out;
  for (const auto& r : results) {
    // Wall-clock/RSS telemetry is honestly machine- and run-dependent (two
    // executions of the same run never time identically); every other
    // record byte — key, metadata, params, metrics, rounds, error — must
    // reproduce exactly, so zero the timing fields and compare the rest.
    RunResult deterministic = r;
    deterministic.telemetry.wall_seconds = 0.0;
    deterministic.telemetry.purchase_phase_seconds = 0.0;
    deterministic.telemetry.seed_phase_seconds = 0.0;
    deterministic.telemetry.tax_phase_seconds = 0.0;
    deterministic.telemetry.peak_rss_bytes = 0;
    deterministic.telemetry.from_cache = false;
    out.records += serialize_run_record(plan.key(r.run_index), deterministic);
    out.records += '\n';
  }
  ResultSink sink;
  sink.add_all(results);
  out.runs_csv = sink.runs_csv();
  out.aggregate_csv = sink.aggregate_csv();
  out.aggregate_json = sink.aggregate_json();
  return out;
}

void expect_identical(const Rendered& a, const Rendered& b) {
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.runs_csv, b.runs_csv);
  EXPECT_EQ(a.aggregate_csv, b.aggregate_csv);
  EXPECT_EQ(a.aggregate_json, b.aggregate_json);
}

/// The single-process reference: the in-process thread-pool executor.
std::vector<RunResult> reference_results(const ScenarioSpec& base,
                                         const SweepSpec& sweep) {
  SweepRunner::Options options;
  options.jobs = 1;
  options.keep_reports = false;
  SweepRunner runner(base, sweep, options);
  return runner.run();
}

/// Runs Coordinator::run() on its own thread, capturing the results (or
/// the error) for the test body to join on.
class ServeThread {
 public:
  explicit ServeThread(Coordinator& coordinator)
      : thread_([this, &coordinator] {
          try {
            results_ = coordinator.run();
          } catch (const std::exception& e) {
            error_ = e.what();
          }
        }) {}

  std::vector<RunResult> join() {
    thread_.join();
    EXPECT_EQ(error_, "");
    return std::move(results_);
  }

  /// Join a run() expected to throw (crash injection); returns the error.
  std::string join_error() {
    thread_.join();
    return error_;
  }

 private:
  std::vector<RunResult> results_;
  std::string error_;
  std::thread thread_;
};

/// A hand-driven protocol client for fault injection: it speaks just
/// enough of the wire format to take leases, deliver (or withhold, or
/// duplicate, or corrupt) results, and vanish abruptly.
class RawClient {
 public:
  explicit RawClient(std::uint16_t port)
      : socket_(util::Socket::connect("127.0.0.1", port, 5.0)),
        reader_(socket_) {}

  /// HELLO → PLAN; returns the plan the coordinator transmitted. The v2
  /// header carries the series cadence and this session's resume token.
  SweepPlan handshake() {
    EXPECT_TRUE(socket_.send_all(std::string("HELLO ") +
                                 kSweepProtocolVersion + "\n"));
    const std::string header = read_line();
    long long lease_ms = 0;
    std::size_t spec_len = 0;
    std::size_t sweep_len = 0;
    char token[64] = {0};
    EXPECT_EQ(std::sscanf(header.c_str(), "PLAN %lld %zu %zu %zu %63s",
                          &lease_ms, &spec_len, &sweep_len, &series_every_,
                          token),
              5)
        << header;
    token_ = token;
    EXPECT_EQ(token_.size(), 16u) << header;
    std::string spec_text;
    std::string sweep_text;
    EXPECT_EQ(reader_.read_exact(spec_text, spec_len, 5.0),
              util::IoStatus::kOk);
    EXPECT_EQ(reader_.read_exact(sweep_text, sweep_len, 5.0),
              util::IoStatus::kOk);
    return SweepPlan(ScenarioSpec::parse(spec_text),
                     SweepSpec::parse(sweep_text));
  }

  /// The session token the coordinator issued in PLAN.
  [[nodiscard]] const std::string& token() const { return token_; }
  /// The series cadence announced in PLAN.
  [[nodiscard]] std::size_t series_every() const { return series_every_; }

  /// RESUME a previous session's token; returns the reclaimed run indices.
  std::vector<std::size_t> resume(const std::string& token) {
    const std::string reply = request("RESUME " + token);
    EXPECT_EQ(reply.rfind("RESUMED ", 0), 0u) << reply;
    std::vector<std::size_t> indices;
    std::istringstream in(reply.substr(8));
    std::size_t count = 0;
    in >> count;
    std::size_t idx = 0;
    while (in >> idx) indices.push_back(idx);
    EXPECT_EQ(indices.size(), count) << reply;
    return indices;
  }

  /// Send one line, read one reply line.
  std::string request(const std::string& line) {
    EXPECT_TRUE(socket_.send_all(line + "\n"));
    return read_line();
  }

  /// NEXT until a lease batch is granted (skipping WAIT); returns all the
  /// granted run indices.
  std::vector<std::size_t> lease_batch() {
    for (int attempt = 0; attempt < 100; ++attempt) {
      const std::string reply = request("NEXT");
      if (reply.rfind("RUN ", 0) == 0) {
        std::vector<std::size_t> indices;
        std::istringstream in(reply.substr(4));
        std::size_t idx = 0;
        while (in >> idx) indices.push_back(idx);
        EXPECT_FALSE(indices.empty()) << reply;
        return indices;
      }
      EXPECT_EQ(reply, "WAIT");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "no lease granted after 100 attempts";
    return {};
  }

  /// lease_batch(), expecting (and returning) a single run index.
  std::size_t lease() {
    const auto batch = lease_batch();
    EXPECT_EQ(batch.size(), 1u);
    return batch.empty() ? 0 : batch.front();
  }

  /// Deliver a pre-serialized run record (plus an optional series blob);
  /// returns the coordinator's reply (OK / DUP / ERR ...).
  std::string deliver(const std::string& record,
                      const std::string& series = "") {
    EXPECT_TRUE(socket_.send_all("RESULT " + std::to_string(record.size()) +
                                 " " + std::to_string(series.size()) + "\n" +
                                 record + series));
    return read_line();
  }

  /// Abrupt disconnect — the "kill -9 mid-run" a dead worker looks like.
  void vanish() { socket_.close(); }

 private:
  std::string read_line() {
    std::string line;
    EXPECT_EQ(reader_.read_line(line, 5.0), util::IoStatus::kOk);
    return line;
  }

  util::Socket socket_;
  util::SocketReader reader_;
  std::string token_;
  std::size_t series_every_ = 0;
};

/// Compute the honest run record a correct worker would deliver for
/// `run_index` of `plan`.
std::string honest_record(const SweepPlan& plan, std::size_t run_index) {
  ThreadPoolExecutor executor;
  ExecuteOptions options;
  options.jobs = 1;
  options.keep_reports = false;
  const std::size_t indices[1] = {run_index};
  const auto results = executor.execute(plan, indices, options);
  return serialize_run_record(plan.key(run_index), results.at(0));
}

// ---- Clean distributed execution -----------------------------------------

TEST(Coordinator, MultiWorkerRunIsByteIdenticalToThreadPool) {
  const auto reference = reference_results(tiny_base(), tiny_sweep());

  Coordinator::Options options;
  options.lease_timeout_seconds = 30.0;
  Coordinator coordinator(tiny_base(), tiny_sweep(), options);
  ServeThread serve(coordinator);

  // An asymmetric fleet: one two-session worker and one single-session
  // worker, all stealing from the same queue.
  WorkerOptions two_sessions;
  two_sessions.sessions = 2;
  WorkerOptions one_session;
  one_session.sessions = 1;
  WorkerReport report_a;
  WorkerReport report_b;
  std::thread worker_a([&] {
    report_a = run_worker("127.0.0.1", coordinator.port(), two_sessions);
  });
  std::thread worker_b([&] {
    report_b = run_worker("127.0.0.1", coordinator.port(), one_session);
  });
  worker_a.join();
  worker_b.join();
  const auto results = serve.join();

  EXPECT_TRUE(report_a.completed) << report_a.error;
  EXPECT_TRUE(report_b.completed) << report_b.error;
  EXPECT_EQ(report_a.runs_executed + report_b.runs_executed, 8u);
  EXPECT_EQ(coordinator.executed(), 8u);
  EXPECT_EQ(coordinator.cache_hits(), 0u);
  EXPECT_EQ(coordinator.duplicates(), 0u);
  EXPECT_EQ(coordinator.workers_seen(), 3u);  // three sessions connected

  ASSERT_EQ(results.size(), reference.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].run_index, i);
  }
  expect_identical(render(tiny_base(), tiny_sweep(), results),
                   render(tiny_base(), tiny_sweep(), reference));
}

TEST(Coordinator, Fig11ChurnSweepMatchesThePinnedGoldenHashes) {
  // The strongest cross-check available: the distributed path must land on
  // the *same* pinned golden constants as test_golden_outputs.cpp does for
  // the single-process engine — one coordinator, two workers, churn-heavy
  // open-market runs, and not a byte of drift end to end.
  const ScenarioSpec* preset =
      ScenarioRegistry::builtin().find("fig11_churn");
  ASSERT_NE(preset, nullptr);
  ScenarioSpec spec = *preset;
  spec.set("horizon", 400.0);
  spec.set("snapshot_interval", 100.0);
  SweepSpec sweep;
  sweep.axes.push_back(SweepAxis::parse("churn.arrival_rate=1,2"));
  sweep.axes.push_back(SweepAxis::parse("churn.mean_lifespan=100,200"));
  sweep.seeds = 2;

  Coordinator coordinator(spec, sweep, Coordinator::Options{});
  ServeThread serve(coordinator);
  WorkerOptions worker_options;
  worker_options.sessions = 1;
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&] {
      const auto report =
          run_worker("127.0.0.1", coordinator.port(), worker_options);
      EXPECT_TRUE(report.completed) << report.error;
    });
  }
  for (auto& t : workers) t.join();
  const auto results = serve.join();

  ResultSink sink;
  sink.add_all(results);
  EXPECT_EQ(util::fnv1a64(sink.aggregate_csv()), 0xbd9622db89f1920bULL);
  EXPECT_EQ(util::fnv1a64(sink.aggregate_json()), 0x1d7620dbf7cda782ULL);
  EXPECT_EQ(util::fnv1a64(sink.runs_csv()), 0xc27d93ece3617262ULL);
}

// ---- Live status endpoint ------------------------------------------------

TEST(Coordinator, StatusEndpointServesLiveAndDrainedState) {
  Coordinator::Options options;
  options.status_port = 0;  // ephemeral second listener
  options.drain_seconds = 5.0;
  Coordinator coordinator(tiny_base(), tiny_sweep(), options);
  ASSERT_NE(coordinator.status_port(), 0);
  ASSERT_NE(coordinator.status_port(), coordinator.port());
  ServeThread serve(coordinator);

  // One HTTP request per connection; the coordinator closes after the body.
  const auto fetch = [&](const std::string& request_line) {
    util::Socket s =
        util::Socket::connect("127.0.0.1", coordinator.status_port(), 5.0);
    EXPECT_TRUE(s.send_all(request_line + "\r\n\r\n"));
    std::string response;
    while (s.recv_some(response, 5.0) == util::IoStatus::kOk) {
    }
    return response;
  };
  const auto has = [](const std::string& haystack, const std::string& needle) {
    return haystack.find(needle) != std::string::npos;
  };

  // Mid-flight, before any worker connects: the plan is visible, nothing
  // has completed, and the response is a well-formed HTTP/JSON exchange.
  const std::string before = fetch("GET /status HTTP/1.0");
  EXPECT_TRUE(has(before, "HTTP/1.0 200 OK")) << before;
  EXPECT_TRUE(has(before, "Content-Type: application/json")) << before;
  EXPECT_TRUE(has(before, "\"plan_runs\":8")) << before;
  EXPECT_TRUE(has(before, "\"completed\":0")) << before;
  EXPECT_TRUE(has(before, "\"done\":false")) << before;
  EXPECT_TRUE(has(before, "\"workers\":[]")) << before;

  // Unknown paths get a 404, not a hang or a protocol error.
  const std::string lost = fetch("GET /nope HTTP/1.0");
  EXPECT_TRUE(has(lost, "404")) << lost;
  EXPECT_TRUE(has(lost, "try GET /status")) << lost;

  WorkerReport report;
  std::thread worker([&] {
    report = run_worker("127.0.0.1", coordinator.port(), WorkerOptions{});
  });
  worker.join();
  EXPECT_TRUE(report.completed) << report.error;

  // The workers are gone, but within the drain window a final scrape still
  // observes the drained terminal state — that is the whole point of
  // keeping the loop alive when the endpoint is enabled.
  const std::string after = fetch("GET /status HTTP/1.0");
  EXPECT_TRUE(has(after, "HTTP/1.0 200 OK")) << after;
  EXPECT_TRUE(has(after, "\"completed\":8")) << after;
  EXPECT_TRUE(has(after, "\"executed\":8")) << after;
  EXPECT_TRUE(has(after, "\"pending\":0")) << after;
  EXPECT_TRUE(has(after, "\"leased\":0")) << after;
  EXPECT_TRUE(has(after, "\"done\":true")) << after;
  EXPECT_TRUE(has(after, "\"eta_seconds\":0")) << after;
  EXPECT_TRUE(has(after, "\"lease_wall_ms\":{\"count\":8")) << after;

  const auto results = serve.join();
  EXPECT_EQ(results.size(), 8u);
  expect_identical(render(tiny_base(), tiny_sweep(), results),
                   render(tiny_base(), tiny_sweep(),
                          reference_results(tiny_base(), tiny_sweep())));
}

// ---- Warm RunStore -------------------------------------------------------

TEST(Coordinator, WarmRunStoreExecutesZeroRuns) {
  const auto dir = scratch_dir("warm_store");
  const auto reference = reference_results(tiny_base(), tiny_sweep());

  auto distributed_run = [&](std::size_t& executed, std::size_t& hits) {
    Coordinator::Options options;
    options.cache_dir = dir.string();
    options.drain_seconds = 5.0;  // generous: the worker must reach DONE
    Coordinator coordinator(tiny_base(), tiny_sweep(), options);
    ServeThread serve(coordinator);
    WorkerReport report;
    std::thread worker([&] {
      report = run_worker("127.0.0.1", coordinator.port(), WorkerOptions{});
    });
    worker.join();
    const auto results = serve.join();
    EXPECT_TRUE(report.completed) << report.error;
    executed = coordinator.executed();
    hits = coordinator.cache_hits();
    return results;
  };

  std::size_t cold_executed = 0;
  std::size_t cold_hits = 0;
  const auto cold = distributed_run(cold_executed, cold_hits);
  EXPECT_EQ(cold_executed, 8u);
  EXPECT_EQ(cold_hits, 0u);

  // Second sweep over the now-warm shared store: zero runs execute, every
  // result is recalled, and the output bytes do not move.
  std::size_t warm_executed = 0;
  std::size_t warm_hits = 0;
  const auto warm = distributed_run(warm_executed, warm_hits);
  EXPECT_EQ(warm_executed, 0u);
  EXPECT_EQ(warm_hits, 8u);
  for (const auto& r : warm) {
    EXPECT_TRUE(r.telemetry.from_cache) << r.run_index;
  }

  expect_identical(render(tiny_base(), tiny_sweep(), cold),
                   render(tiny_base(), tiny_sweep(), reference));
  expect_identical(render(tiny_base(), tiny_sweep(), warm),
                   render(tiny_base(), tiny_sweep(), reference));
}

// ---- Fault injection -----------------------------------------------------

TEST(CoordinatorFaults, AbruptWorkerDeathMidRunRequeuesItsLease) {
  const auto reference = reference_results(tiny_base(), tiny_sweep());

  Coordinator::Options options;
  options.lease_timeout_seconds = 60.0;  // death is detected, not timed out
  Coordinator coordinator(tiny_base(), tiny_sweep(), options);
  ServeThread serve(coordinator);

  // The victim takes a lease and dies without a word — exactly what the
  // coordinator sees when a worker process is SIGKILLed mid-run.
  {
    RawClient victim(coordinator.port());
    (void)victim.handshake();
    const std::size_t leased = victim.lease();
    EXPECT_LT(leased, 8u);
    victim.vanish();
  }

  // A healthy worker then completes the whole sweep, including the
  // re-queued run.
  WorkerReport report;
  std::thread worker([&] {
    report = run_worker("127.0.0.1", coordinator.port(), WorkerOptions{});
  });
  worker.join();
  const auto results = serve.join();

  EXPECT_TRUE(report.completed) << report.error;
  EXPECT_EQ(report.runs_executed, 8u);
  EXPECT_GE(coordinator.requeued(), 1u);
  EXPECT_EQ(coordinator.executed(), 8u);
  expect_identical(render(tiny_base(), tiny_sweep(), results),
                   render(tiny_base(), tiny_sweep(), reference));
}

/// Executor decorator that stalls before computing — a worker too slow for
/// its lease.
class SlowExecutor final : public Executor {
 public:
  explicit SlowExecutor(double delay_seconds) : delay_(delay_seconds) {}

  std::vector<RunResult> execute(const SweepPlan& plan,
                                 std::span<const std::size_t> run_indices,
                                 const ExecuteOptions& options) override {
    std::this_thread::sleep_for(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::duration<double>(delay_)));
    return inner_.execute(plan, run_indices, options);
  }

 private:
  double delay_;
  ThreadPoolExecutor inner_;
};

TEST(CoordinatorFaults, StalledHeartbeatLosesTheLeaseAndTheRunIsStolen) {
  const auto reference = reference_results(tiny_base(), tiny_sweep());

  Coordinator::Options options;
  options.lease_timeout_seconds = 0.3;
  options.drain_seconds = 5.0;  // outlive the slow worker's late delivery
  Coordinator coordinator(tiny_base(), tiny_sweep(), options);
  ServeThread serve(coordinator);

  // The laggard: heartbeats effectively disabled, every run stalled well
  // past the lease timeout. Its leases expire mid-run; its deliveries
  // arrive after the thief's and must be discarded as duplicates.
  SlowExecutor slow(1.0);
  WorkerOptions slow_options;
  slow_options.sessions = 1;
  slow_options.executor = &slow;
  slow_options.heartbeat_seconds = 1000.0;
  WorkerReport slow_report;
  std::thread laggard([&] {
    slow_report = run_worker("127.0.0.1", coordinator.port(), slow_options);
  });

  // Give the laggard time to take its first lease and stall, then unleash
  // a healthy heartbeating worker that steals the expired lease.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  WorkerReport fast_report;
  std::thread healthy([&] {
    fast_report = run_worker("127.0.0.1", coordinator.port(), WorkerOptions{});
  });

  laggard.join();
  healthy.join();
  const auto results = serve.join();

  EXPECT_TRUE(fast_report.completed) << fast_report.error;
  EXPECT_GE(coordinator.requeued(), 1u);   // the stalled lease was revoked
  EXPECT_GE(coordinator.duplicates(), 1u); // the late twin was discarded
  EXPECT_EQ(coordinator.executed(), 8u);   // …and exactly 8 runs recorded
  expect_identical(render(tiny_base(), tiny_sweep(), results),
                   render(tiny_base(), tiny_sweep(), reference));
}

TEST(CoordinatorFaults, DuplicateDeliveryOfAStoredKeyIsDiscarded) {
  const auto reference = reference_results(tiny_base(), tiny_sweep());

  Coordinator coordinator(tiny_base(), tiny_sweep(), Coordinator::Options{});
  ServeThread serve(coordinator);

  {
    RawClient client(coordinator.port());
    const SweepPlan plan = client.handshake();
    const std::size_t leased = client.lease();
    const std::string record = honest_record(plan, leased);
    EXPECT_EQ(client.deliver(record), "OK");
    // The same completion again — a worker double-reporting after a retry.
    EXPECT_EQ(client.deliver(record), "DUP");
    client.vanish();
  }

  WorkerReport report;
  std::thread worker([&] {
    report = run_worker("127.0.0.1", coordinator.port(), WorkerOptions{});
  });
  worker.join();
  const auto results = serve.join();

  EXPECT_TRUE(report.completed) << report.error;
  EXPECT_EQ(coordinator.duplicates(), 1u);
  EXPECT_EQ(coordinator.executed(), 8u);
  expect_identical(render(tiny_base(), tiny_sweep(), results),
                   render(tiny_base(), tiny_sweep(), reference));
}

TEST(CoordinatorFaults, MismatchedRunKeyIsRejectedNotRecorded) {
  const auto reference = reference_results(tiny_base(), tiny_sweep());

  Coordinator coordinator(tiny_base(), tiny_sweep(), Coordinator::Options{});
  ServeThread serve(coordinator);

  {
    RawClient saboteur(coordinator.port());
    const SweepPlan plan = saboteur.handshake();
    const std::size_t leased = saboteur.lease();
    // A record whose key belongs to a *different* run index — what a
    // worker on a mismatched plan (or binary) would deliver.
    const std::size_t other = (leased + 1) % plan.size();
    RunResult forged = plan.labelled_result(leased);
    forged.metrics = {{"converged_gini", 0.0}};
    const std::string bad_record =
        serialize_run_record(plan.key(other), forged);
    const std::string reply = saboteur.deliver(bad_record);
    EXPECT_EQ(reply.rfind("ERR", 0), 0u) << reply;
  }

  WorkerReport report;
  std::thread worker([&] {
    report = run_worker("127.0.0.1", coordinator.port(), WorkerOptions{});
  });
  worker.join();
  const auto results = serve.join();

  EXPECT_TRUE(report.completed) << report.error;
  EXPECT_EQ(report.runs_executed, 8u);  // the forgery contributed nothing
  expect_identical(render(tiny_base(), tiny_sweep(), results),
                   render(tiny_base(), tiny_sweep(), reference));
}

// ---- Lease order ---------------------------------------------------------

/// tiny_base() as an open market over a churn grid whose runs differ in
/// expected cost: points (0.5,20) (0.5,80) (1,20) (1,80), one seed each.
ScenarioSpec tiny_churn_base() {
  ScenarioSpec spec = tiny_base();
  spec.config.protocol.max_peers = 256;
  spec.config.protocol.churn.enabled = true;
  return spec;
}

SweepSpec unequal_sweep() {
  SweepSpec sweep;
  sweep.axes.push_back(SweepAxis::parse("churn.arrival_rate=0.5,1"));
  sweep.axes.push_back(SweepAxis::parse("churn.mean_lifespan=20,80"));
  return sweep;
}

TEST(CoordinatorLeaseOrder, FirstGrantIsTheCostliestRun) {
  const SweepPlan plan(tiny_churn_base(), unequal_sweep());
  ASSERT_EQ(plan.dispatch_order(plan.all_runs()).front(), 3u);

  Coordinator::Options options;
  options.resume_grace_seconds = 0.0;
  Coordinator coordinator(tiny_churn_base(), unequal_sweep(), options);
  ServeThread serve(coordinator);
  {
    RawClient client(coordinator.port());
    (void)client.handshake();
    EXPECT_EQ(client.lease(), 3u);  // λ=1, L=80 — plan order would say 0
    EXPECT_EQ(client.lease(), 1u);  // λ=0.5, L=80 next
    client.vanish();
  }
  WorkerReport report;
  std::thread worker([&] {
    report = run_worker("127.0.0.1", coordinator.port(), WorkerOptions{});
  });
  worker.join();
  const auto results = serve.join();
  EXPECT_TRUE(report.completed) << report.error;
  EXPECT_EQ(coordinator.executed(), 4u);
  expect_identical(
      render(tiny_churn_base(), unequal_sweep(), results),
      render(tiny_churn_base(), unequal_sweep(),
             reference_results(tiny_churn_base(), unequal_sweep())));
}

TEST(CoordinatorLeaseOrder, TimedOutLeaseIsRequeuedAtTheHead) {
  Coordinator::Options options;
  options.lease_timeout_seconds = 0.2;
  options.resume_grace_seconds = 0.0;
  Coordinator coordinator(tiny_churn_base(), unequal_sweep(), options);
  ServeThread serve(coordinator);
  {
    // The staller takes the costliest run and goes silent on an open
    // connection; once its lease expires, the run is granted again ahead
    // of every run never leased.
    RawClient staller(coordinator.port());
    (void)staller.handshake();
    EXPECT_EQ(staller.lease(), 3u);
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    RawClient thief(coordinator.port());
    (void)thief.handshake();
    EXPECT_EQ(thief.lease(), 3u);
    thief.vanish();
    staller.vanish();
  }
  WorkerReport report;
  std::thread worker([&] {
    report = run_worker("127.0.0.1", coordinator.port(), WorkerOptions{});
  });
  worker.join();
  (void)serve.join();
  EXPECT_TRUE(report.completed) << report.error;
  // The counters are read once run() has returned: the serving thread
  // writes them unsynchronized.
  EXPECT_GE(coordinator.requeued(), 1u);
  EXPECT_EQ(coordinator.executed(), 4u);
}

// ---- Protocol v2: RESUME, batched leases, crash recovery -----------------

TEST(CoordinatorResume, VanishedSessionReclaimsItsLeaseViaResume) {
  const auto reference = reference_results(tiny_base(), tiny_sweep());

  Coordinator::Options options;
  options.resume_grace_seconds = 30.0;  // reclaim must beat the requeue
  Coordinator coordinator(tiny_base(), tiny_sweep(), options);
  ServeThread serve(coordinator);

  // A session takes a lease, computes the run, and loses its connection
  // before delivering — then comes back under the same token.
  std::string token;
  std::size_t leased = 0;
  std::string record;
  {
    RawClient first(coordinator.port());
    const SweepPlan plan = first.handshake();
    token = first.token();
    leased = first.lease();
    record = honest_record(plan, leased);
    first.vanish();
  }
  {
    RawClient returned(coordinator.port());
    (void)returned.handshake();
    EXPECT_NE(returned.token(), token);  // fresh connection, fresh token
    const auto reclaimed = returned.resume(token);
    ASSERT_EQ(reclaimed.size(), 1u);
    EXPECT_EQ(reclaimed.front(), leased);
    // The reclaimed lease is live again: delivering its run is a first
    // completion, not a duplicate or an expired-lease discard.
    EXPECT_EQ(returned.deliver(record), "OK");
    returned.vanish();
  }

  WorkerReport report;
  std::thread worker([&] {
    report = run_worker("127.0.0.1", coordinator.port(), WorkerOptions{});
  });
  worker.join();
  const auto results = serve.join();

  EXPECT_TRUE(report.completed) << report.error;
  EXPECT_EQ(coordinator.leases_resumed(), 1u);
  EXPECT_EQ(coordinator.requeued(), 0u);  // nothing was forfeited
  EXPECT_EQ(coordinator.executed(), 8u);
  expect_identical(render(tiny_base(), tiny_sweep(), results),
                   render(tiny_base(), tiny_sweep(), reference));
}

TEST(CoordinatorResume, UnknownTokenResumesNothing) {
  Coordinator coordinator(tiny_base(), tiny_sweep(), Coordinator::Options{});
  ServeThread serve(coordinator);
  {
    RawClient client(coordinator.port());
    (void)client.handshake();
    // RESUMED 0, not ERR: the worker simply starts fresh.
    EXPECT_TRUE(client.resume("0123456789abcdef").empty());
    client.vanish();
  }
  WorkerReport report;
  std::thread worker([&] {
    report = run_worker("127.0.0.1", coordinator.port(), WorkerOptions{});
  });
  worker.join();
  (void)serve.join();
  EXPECT_TRUE(report.completed) << report.error;
  EXPECT_EQ(coordinator.leases_resumed(), 0u);
}

TEST(Coordinator, AdaptiveLeaseBatchGrowsWithMeasuredThroughput) {
  Coordinator::Options options;
  options.lease_batch_max = 4;
  Coordinator coordinator(tiny_base(), tiny_sweep(), options);
  ServeThread serve(coordinator);

  {
    RawClient client(coordinator.port());
    const SweepPlan plan = client.handshake();
    // A fresh connection has no throughput history: the first grant is a
    // single run, so a straggler's failure forfeits at most one.
    const auto first = client.lease_batch();
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(client.deliver(honest_record(plan, first.front())), "OK");
    // One instant completion measures as enormous throughput: the next
    // grant fills the whole batch ceiling.
    const auto second = client.lease_batch();
    EXPECT_EQ(second.size(), 4u);
    for (const auto idx : second) {
      EXPECT_EQ(client.deliver(honest_record(plan, idx)), "OK");
    }
    client.vanish();
  }

  WorkerReport report;
  std::thread worker([&] {
    report = run_worker("127.0.0.1", coordinator.port(), WorkerOptions{});
  });
  worker.join();
  (void)serve.join();
  EXPECT_TRUE(report.completed) << report.error;
}

TEST(CoordinatorResume, CrashedCoordinatorResumesByteIdenticalToGolden) {
  // The tentpole contract end to end: a coordinator crash-injected (the
  // deterministic SIGKILL stand-in) after 3 completions, restarted with
  // --resume on the same journal + cache, must finish the sweep executing
  // only the missing runs — and land on the *same pinned golden hashes*
  // the single-process engine and the uninterrupted distributed sweep do.
  const ScenarioSpec* preset =
      ScenarioRegistry::builtin().find("fig11_churn");
  ASSERT_NE(preset, nullptr);
  ScenarioSpec spec = *preset;
  spec.set("horizon", 400.0);
  spec.set("snapshot_interval", 100.0);
  SweepSpec sweep;
  sweep.axes.push_back(SweepAxis::parse("churn.arrival_rate=1,2"));
  sweep.axes.push_back(SweepAxis::parse("churn.mean_lifespan=100,200"));
  sweep.seeds = 2;

  const auto dir = scratch_dir("journal_resume");
  const std::string journal = (dir / "sweep.journal").string();
  const std::string cache = (dir / "cache").string();

  // Phase 1: crash after the third fresh completion, worker attached.
  {
    Coordinator::Options options;
    options.cache_dir = cache;
    options.journal_path = journal;
    options.abort_after_executed = 3;
    Coordinator coordinator(spec, sweep, options);
    ServeThread serve(coordinator);
    WorkerOptions worker_options;
    worker_options.reconnect = false;  // this worker dies with the crash
    WorkerReport report;
    std::thread worker([&] {
      report = run_worker("127.0.0.1", coordinator.port(), worker_options);
    });
    const std::string error = serve.join_error();
    EXPECT_NE(error.find("injected crash"), std::string::npos) << error;
    worker.join();
    EXPECT_FALSE(report.completed);
    EXPECT_EQ(coordinator.executed(), 3u);
  }

  // A *fresh* coordinator must refuse the stale journal loudly...
  {
    Coordinator::Options options;
    options.cache_dir = cache;
    options.journal_path = journal;
    EXPECT_THROW(Coordinator(spec, sweep, options), util::PreconditionError);
  }

  // ...and a resumed one recalls the 3 completed runs, re-creates the
  // orphaned leases, and executes exactly the 5 missing ones.
  Coordinator::Options options;
  options.cache_dir = cache;
  options.journal_path = journal;
  options.resume = true;
  options.resume_grace_seconds = 0.2;  // phase 1's worker is not coming back
  Coordinator coordinator(spec, sweep, options);
  ServeThread serve(coordinator);
  WorkerReport report;
  std::thread worker([&] {
    report = run_worker("127.0.0.1", coordinator.port(), WorkerOptions{});
  });
  worker.join();
  const auto results = serve.join();

  EXPECT_TRUE(report.completed) << report.error;
  EXPECT_EQ(coordinator.cache_hits(), 3u);
  EXPECT_EQ(coordinator.executed(), 5u);
  EXPECT_GE(coordinator.journal_orphans(), 1u);  // phase 1 died mid-lease
  ASSERT_EQ(results.size(), 8u);

  ResultSink sink;
  sink.add_all(results);
  EXPECT_EQ(util::fnv1a64(sink.aggregate_csv()), 0xbd9622db89f1920bULL);
  EXPECT_EQ(util::fnv1a64(sink.aggregate_json()), 0x1d7620dbf7cda782ULL);
  EXPECT_EQ(util::fnv1a64(sink.runs_csv()), 0xc27d93ece3617262ULL);
}

// ---- Remote series streaming ---------------------------------------------

TEST(Coordinator, RemoteSeriesFilesAreByteIdenticalToLocalExecution) {
  const auto dir = scratch_dir("remote_series");
  const SweepPlan plan(tiny_base(), tiny_sweep());

  // Reference: the local thread-pool executor writing its own files.
  {
    ThreadPoolExecutor executor;
    ExecuteOptions exec;
    exec.jobs = 1;
    exec.keep_reports = false;
    exec.series_every = 2;
    exec.series_out_prefix = (dir / "local").string();
    std::vector<std::size_t> all(plan.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    (void)executor.execute(plan, all, exec);
  }

  // Distributed: workers collect the series and stream it back with each
  // RESULT; the coordinator writes the files.
  Coordinator::Options options;
  options.series_every = 2;
  options.series_out_prefix = (dir / "dist").string();
  Coordinator coordinator(tiny_base(), tiny_sweep(), options);
  ServeThread serve(coordinator);
  WorkerReport report;
  std::thread worker([&] {
    report = run_worker("127.0.0.1", coordinator.port(), WorkerOptions{});
  });
  worker.join();
  (void)serve.join();
  EXPECT_TRUE(report.completed) << report.error;

  const auto slurp = [](const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };
  for (std::size_t idx = 0; idx < plan.size(); ++idx) {
    const std::string suffix = ".run" + std::to_string(idx) + ".csv";
    const std::string local = slurp(dir / ("local" + suffix));
    EXPECT_FALSE(local.empty()) << idx;
    EXPECT_EQ(slurp(dir / ("dist" + suffix)), local) << idx;
  }
}

// ---- Worker backoff telemetry --------------------------------------------

TEST(Coordinator, StarvedSessionsReportWaitRetries) {
  // One run, two sessions: whichever session leases it stalls in a slow
  // executor while the other polls NEXT → WAIT through the backoff
  // schedule until DONE. The retries surface in the worker report.
  SweepSpec one_run;
  one_run.axes.push_back(SweepAxis::parse("credits=30"));
  one_run.seeds = 1;
  Coordinator coordinator(tiny_base(), one_run, Coordinator::Options{});
  ServeThread serve(coordinator);

  SlowExecutor slow(0.5);
  WorkerOptions options;
  options.sessions = 2;
  options.executor = &slow;
  WorkerReport report;
  std::thread worker([&] {
    report = run_worker("127.0.0.1", coordinator.port(), options);
  });
  worker.join();
  (void)serve.join();

  EXPECT_TRUE(report.completed) << report.error;
  EXPECT_EQ(report.runs_executed, 1u);
  EXPECT_GE(report.wait_retries, 1u);
}

}  // namespace
}  // namespace creditflow::scenario
