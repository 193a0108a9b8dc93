#include "scenario/coordinator.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <optional>
#include <sstream>

#include "scenario/journal.hpp"
#include "scenario/store.hpp"
#include "util/assert.hpp"
#include "util/fsio.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"
#include "util/stats.hpp"

namespace creditflow::scenario {

namespace {

using Clock = std::chrono::steady_clock;

/// Ceiling on a RESULT payload announcement: a run record is a few hundred
/// bytes and a series CSV a few MiB at pathological cadences, so anything
/// past this is a corrupt or hostile header.
constexpr std::size_t kMaxResultBytes = std::size_t{16} * 1024 * 1024;

/// Batch sizing window: a worker is granted roughly the number of runs it
/// completes in this many seconds (clamped to [1, lease_batch_max]), so
/// batches stay well inside the lease timeout.
double batch_window_seconds(double lease_timeout_seconds) {
  return std::clamp(lease_timeout_seconds / 4.0, 0.25, 2.0);
}

}  // namespace

struct Coordinator::Impl {
  SweepPlan plan;
  Options options;
  /// "PLAN <lease_ms> <spec_len> <sweep_len> <series_every> " — the
  /// per-session token is appended at handshake time.
  std::string plan_header_prefix;
  /// spec text ‖ sweep text, sent verbatim after the PLAN header.
  std::string plan_payload;
  /// Binds journal state to this exact plan (spec ‖ sweep ‖ size).
  std::string fingerprint;
  std::vector<RunKey> keys;  ///< keys[i] = plan.key(i), for validation
  std::optional<RunStore> store;
  std::optional<Journal> journal;
  util::Listener listener;

  /// One connected worker session.
  struct Conn {
    util::Socket socket;
    std::string inbuf;
    bool hello = false;
    std::string session;  ///< token issued at HELLO (or adopted via RESUME)
    std::size_t payload_remaining = 0;  ///< >0 → mid-RESULT payload
    std::size_t payload_record_bytes = 0;  ///< record prefix of the payload
    std::string payload;
    // Status-endpoint bookkeeping; runs_completed also sizes lease batches.
    std::size_t runs_completed = 0;
    Clock::time_point connected_at;
    Clock::time_point last_traffic;
  };
  std::map<int, Conn> conns;  ///< keyed by descriptor

  /// One status-endpoint client mid-request (served and closed per query).
  struct StatusConn {
    util::Socket socket;
    std::string inbuf;
  };
  std::map<int, StatusConn> status_conns;
  util::Listener status_listener;  ///< invalid unless status_port >= 0

  struct Lease {
    int fd = -1;  ///< -1 → orphaned: owner disconnected, RESUME may reclaim
    std::string session;
    Clock::time_point deadline;
    Clock::time_point granted;  ///< for the per-lease wall-time histogram
  };
  std::deque<std::size_t> pending;        ///< grantable run indices
  std::map<std::size_t, Lease> leases;    ///< outstanding grants
  std::vector<RunResult> results;
  std::vector<char> have;                 ///< results[i] filled?
  std::size_t completed = 0;
  bool done = false;
  Clock::time_point drain_deadline;
  Clock::time_point started_at;           ///< run() entry, for elapsed/ETA
  /// Expected peer-rounds of the runs the store did not answer, and of
  /// those completed since: the /status ETA prices the rest by them, since
  /// costliest-first leasing makes the first completions the slowest.
  double fresh_cost = 0.0;
  double executed_cost = 0.0;
  util::Log2Histogram lease_wall_ms;      ///< grant → first completion
  bool ran = false;

  /// Session-token stream: unique across restarts (wall-clock seeded) and
  /// across sessions (counter mixed in); purely an identifier, no secrecy.
  std::uint64_t token_state;
  std::uint64_t token_counter = 0;

  [[nodiscard]] std::string next_token() {
    const std::uint64_t raw = util::derive_seed(token_state, ++token_counter);
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(raw));
    return std::string(buf);
  }

  Impl(ScenarioSpec base, SweepSpec sweep, Options opts)
      : plan(std::move(base), std::move(sweep)), options(std::move(opts)) {
    CF_EXPECTS_MSG(options.lease_timeout_seconds > 0.0,
                   "lease timeout must be positive");
    CF_EXPECTS_MSG(options.lease_batch_max >= 1,
                   "lease batch size must be at least 1");
    CF_EXPECTS_MSG(options.journal_path.empty() || !options.cache_dir.empty(),
                   "--journal requires a run cache (results must be as "
                   "durable as the scheduling state)");
    const std::string spec_text = plan.base().serialize();
    const std::string sweep_text = plan.sweep().serialize();
    fingerprint = RunKey::of(spec_text + sweep_text, plan.size()).hex();
    const auto lease_ms = static_cast<long long>(
        options.lease_timeout_seconds * 1000.0 + 0.5);
    plan_header_prefix = "PLAN " + std::to_string(lease_ms) + " " +
                         std::to_string(spec_text.size()) + " " +
                         std::to_string(sweep_text.size()) + " " +
                         std::to_string(options.series_every) + " ";
    plan_payload = spec_text + sweep_text;
    keys.reserve(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) keys.push_back(plan.key(i));
    results.resize(plan.size());
    have.assign(plan.size(), 0);
    token_state = static_cast<std::uint64_t>(
        std::chrono::system_clock::now().time_since_epoch().count());
    if (!options.cache_dir.empty()) {
      store.emplace(options.cache_dir, RunStore::Options{options.fsync});
    }
    if (!options.journal_path.empty()) {
      journal.emplace(options.journal_path,
                      Journal::Options{options.fsync});
      const JournalReplay& replay = journal->replayed();
      CF_EXPECTS_MSG(options.resume || replay.events == 0,
                     "journal " + options.journal_path +
                         " already holds a sweep; pass --resume to "
                         "continue it (or point at a fresh journal)");
      if (replay.has_plan) {
        CF_EXPECTS_MSG(replay.fingerprint == fingerprint,
                       "journal " + options.journal_path +
                           " belongs to a different sweep (plan "
                           "fingerprint mismatch)");
      }
      journal->record_plan(fingerprint, plan.size());
    }
    listener = util::Listener::bind(options.host, options.port);
    if (options.status_port >= 0) {
      status_listener = util::Listener::bind(
          options.host, static_cast<std::uint16_t>(options.status_port));
    }
  }
};

Coordinator::Coordinator(ScenarioSpec base, SweepSpec sweep, Options options)
    : impl_(std::make_unique<Impl>(std::move(base), std::move(sweep),
                                   std::move(options))) {}

Coordinator::~Coordinator() = default;

std::uint16_t Coordinator::port() const { return impl_->listener.port(); }

std::uint16_t Coordinator::status_port() const {
  return impl_->status_listener.valid() ? impl_->status_listener.port() : 0;
}

std::vector<RunResult> Coordinator::run() {
  Impl& im = *impl_;
  CF_EXPECTS_MSG(!im.ran, "Coordinator::run may only be called once");
  im.ran = true;
  im.started_at = Clock::now();

  // Resolve cache hits up front — exactly the SweepRunner recall path, so
  // warm-store output is byte-identical to the uncached sweep. A resumed
  // coordinator's previously-executed runs come back this way: the store
  // holds their bytes, the journal holds their scheduling history.
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < im.plan.size(); ++i) {
    const RunResult* cached =
        im.store ? im.store->find(im.keys[i]) : nullptr;
    if (cached == nullptr) {
      misses.push_back(i);
      continue;
    }
    RunResult hit = im.plan.labelled_result(i);
    hit.seed = cached->seed;
    hit.metrics = cached->metrics;
    hit.telemetry = cached->telemetry;
    hit.telemetry.from_cache = true;
    hit.error = cached->error;
    ++cache_hits_;
    if (im.options.on_result) im.options.on_result(hit);
    im.results[i] = std::move(hit);
    im.have[i] = 1;
    ++im.completed;
  }
  // Lease the misses costliest-first, the ThreadPoolExecutor's order.
  for (const std::size_t k : im.plan.dispatch_order(misses)) {
    im.pending.push_back(misses[k]);
  }
  for (const std::size_t i : misses) {
    im.fresh_cost += im.plan.expected_peer_rounds(i);
  }

  const auto lease_duration = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(im.options.lease_timeout_seconds));
  const auto resume_grace = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(
          std::max(0.0, im.options.resume_grace_seconds)));

  // Re-create the orphaned leases a previous incarnation journalled: their
  // sessions may still be alive (they outlived the coordinator) and will
  // reclaim them via RESUME; otherwise the normal lease timeout requeues
  // them. Runs the store already answered stay answered.
  if (im.journal && im.options.resume) {
    const JournalReplay& replay = im.journal->replayed();
    for (const auto& [idx, key] : replay.completed) {
      if (idx < im.have.size() && im.have[idx] == 0) {
        CF_LOG_WARN("coordinator: journal says run "
                    << idx << " completed but the store has no record ("
                    << (key == im.keys[idx] ? "lost append"
                                            : "foreign run key")
                    << "); re-executing");
      }
    }
    for (const auto& [idx, session] : replay.open_leases) {
      if (idx >= im.have.size() || im.have[idx] != 0) continue;
      const auto in_pending =
          std::find(im.pending.begin(), im.pending.end(), idx);
      if (in_pending != im.pending.end()) im.pending.erase(in_pending);
      // Orphans wait only the resume grace: their worker either survived
      // the coordinator crash (it reconnects with RESUME well within the
      // grace) or died with it (requeue fast, don't stall the fleet).
      const Clock::time_point now = Clock::now();
      im.leases[idx] = Impl::Lease{-1, session, now + resume_grace, now};
      ++journal_orphans_;
    }
    if (journal_orphans_ > 0) {
      CF_LOG_INFO("coordinator: resumed " << journal_orphans_
                                          << " orphaned lease(s) from "
                                          << im.journal->path());
    }
  }

  if (im.completed == im.plan.size()) {
    im.done = true;
    im.drain_deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               im.options.drain_seconds));
  }

  auto close_conn = [&](int fd) {
    // A vanished worker's leases are not forfeit yet: they orphan for the
    // resume grace window so the session can reconnect and RESUME them.
    // Only after the grace (or the original lease deadline, whichever is
    // sooner) does the timeout sweep requeue them for the fleet.
    const Clock::time_point grace_deadline = Clock::now() + resume_grace;
    for (auto& [idx, lease] : im.leases) {
      if (lease.fd == fd) {
        CF_LOG_INFO("coordinator: orphaning lease on run "
                    << idx << " (worker disconnected; RESUME window open)");
        lease.fd = -1;
        lease.deadline = std::min(lease.deadline, grace_deadline);
      }
    }
    im.conns.erase(fd);
  };

  auto mark_done_if_complete = [&] {
    if (!im.done && im.completed == im.plan.size()) {
      im.done = true;
      im.drain_deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 im.options.drain_seconds));
    }
  };

  /// Crash injection (Options::abort_after_executed): once enough runs
  /// executed, die at the first completion or grant that leaves a lease
  /// outstanding, so the successor always inherits an orphaned lease,
  /// however fast or slow the runs are.
  auto maybe_abort = [&] {
    if (im.options.abort_after_executed > 0 &&
        executed_ >= im.options.abort_after_executed && !im.done &&
        !im.leases.empty()) {
      throw CoordinatorAborted(
          "coordinator: injected crash after " +
          std::to_string(executed_) + " executed run(s)");
    }
  };

  /// Handle one completed RESULT payload (record ‖ series); false → protocol
  /// violation, close the connection.
  auto handle_result = [&](Impl::Conn& conn, const std::string& payload,
                           std::size_t record_bytes) {
    RunRecord record;
    try {
      record = parse_run_record(payload.substr(0, record_bytes));
    } catch (const std::exception& e) {
      CF_LOG_WARN("coordinator: unparseable run record: " << e.what());
      (void)conn.socket.send_all("ERR malformed run record\n");
      return false;
    }
    const std::size_t idx = record.result.run_index;
    if (idx >= im.plan.size() || !(record.key == im.keys[idx])) {
      // A worker on a different plan (other spec text, other binary) can
      // never corrupt the result set: its keys cannot match ours.
      CF_LOG_WARN("coordinator: rejecting record with mismatched key for run "
                  << idx);
      (void)conn.socket.send_all("ERR run key does not match the plan\n");
      return false;
    }
    if (im.have[idx] != 0) {
      ++duplicates_;
      return conn.socket.send_all("DUP\n");
    }
    // First completion wins, whoever delivers it — including a worker whose
    // lease was already revoked. Re-label with this plan's metadata and
    // keep the computed outcome, mirroring the SweepRunner cache merge.
    RunResult merged = im.plan.labelled_result(idx);
    merged.seed = record.result.seed;
    merged.metrics = std::move(record.result.metrics);
    merged.telemetry = record.result.telemetry;
    merged.error = std::move(record.result.error);
    // Durability order: result bytes first (store), then the journal's
    // done event — a crash between the two re-executes nothing (the store
    // answers) and corrupts nothing.
    if (im.store) im.store->put(im.keys[idx], merged);
    if (im.journal) im.journal->record_done(idx, im.keys[idx]);
    if (payload.size() > record_bytes && im.options.series_every > 0 &&
        !im.options.series_out_prefix.empty()) {
      const std::string path = im.options.series_out_prefix + ".run" +
                               std::to_string(idx) + ".csv";
      if (!util::atomic_write_file(
              path, std::string_view(payload).substr(record_bytes))) {
        CF_LOG_WARN("coordinator: failed writing series CSV " << path);
      }
    }
    const auto lease_it = im.leases.find(idx);
    if (lease_it != im.leases.end()) {
      const auto wall =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              Clock::now() - lease_it->second.granted)
              .count();
      im.lease_wall_ms.add(
          wall > 0 ? static_cast<std::uint64_t>(wall) : 0);
      im.leases.erase(lease_it);
    }
    ++conn.runs_completed;
    if (im.options.on_result) im.options.on_result(merged);
    im.results[idx] = std::move(merged);
    im.have[idx] = 1;
    ++im.completed;
    ++executed_;
    im.executed_cost += im.plan.expected_peer_rounds(idx);
    mark_done_if_complete();
    // Crash injection: state is on disk, the ack is not sent — exactly
    // the window a SIGKILL leaves. The worker redelivers after
    // reconnecting and collects a DUP from our successor.
    maybe_abort();
    return conn.socket.send_all("OK\n");
  };

  /// Handle one protocol line; false → close the connection (either a
  /// violation or an orderly DONE hand-off).
  auto handle_line = [&](Impl::Conn& conn, const std::string& line) {
    if (!conn.hello) {
      if (line == std::string("HELLO ") + kSweepProtocolVersion) {
        conn.hello = true;
        conn.session = im.next_token();
        ++workers_seen_;
        return conn.socket.send_all(im.plan_header_prefix + conn.session +
                                    "\n" + im.plan_payload);
      }
      (void)conn.socket.send_all("ERR expected HELLO " +
                                 std::string(kSweepProtocolVersion) + "\n");
      return false;
    }
    if (line == "PING") return conn.socket.send_all("PONG\n");
    if (line.rfind("RESUME ", 0) == 0) {
      // Reclaim the orphaned leases of a previous session: the worker
      // keeps its grants (and any results computed while disconnected)
      // instead of forfeiting them to the requeue path. An unknown or
      // expired token resumes nothing — the worker just starts fresh.
      const std::string token = line.substr(7);
      std::string indices;
      std::size_t reclaimed = 0;
      const Clock::time_point fresh = Clock::now() + lease_duration;
      for (auto& [idx, lease] : im.leases) {
        if (lease.fd != -1 || lease.session != token) continue;
        lease.fd = conn.socket.fd();
        lease.deadline = fresh;
        indices += " " + std::to_string(idx);
        ++reclaimed;
      }
      if (reclaimed > 0) {
        conn.session = token;  // adopt the resumed identity
        leases_resumed_ += reclaimed;
        CF_LOG_INFO("coordinator: session " << token << " resumed "
                                            << reclaimed << " lease(s)");
      }
      return conn.socket.send_all("RESUMED " + std::to_string(reclaimed) +
                                  indices + "\n");
    }
    if (line == "NEXT") {
      if (im.completed == im.plan.size()) {
        // Orderly completion: the worker disconnects after reading DONE.
        (void)conn.socket.send_all("DONE\n");
        return false;
      }
      // A requeued run can complete before it is re-granted (its original
      // worker delivered late); skip those so no one re-executes a run the
      // sweep already has.
      while (!im.pending.empty() && im.have[im.pending.front()] != 0) {
        im.pending.pop_front();
      }
      if (im.pending.empty()) return conn.socket.send_all("WAIT\n");
      // Adaptive batch: grant roughly one batch-window's worth of runs at
      // this worker's measured throughput. Fresh and slow workers get 1,
      // so a straggler's failure forfeits at most one run.
      const double connected = std::chrono::duration<double>(
                                   Clock::now() - conn.connected_at)
                                   .count();
      const double throughput =
          connected > 0.0
              ? static_cast<double>(conn.runs_completed) / connected
              : 0.0;
      const auto want = std::clamp<std::size_t>(
          static_cast<std::size_t>(
              throughput *
              batch_window_seconds(im.options.lease_timeout_seconds)),
          1, im.options.lease_batch_max);
      std::string grant = "RUN";
      const Clock::time_point granted = Clock::now();
      std::size_t issued = 0;
      while (issued < want && !im.pending.empty()) {
        const std::size_t idx = im.pending.front();
        im.pending.pop_front();
        if (im.have[idx] != 0) continue;
        if (im.journal) im.journal->record_grant(idx, conn.session);
        im.leases[idx] = Impl::Lease{conn.socket.fd(), conn.session,
                                     granted + lease_duration, granted};
        grant += " " + std::to_string(idx);
        ++issued;
      }
      if (issued == 0) return conn.socket.send_all("WAIT\n");
      // A crash deferred from a completion lands here, with the grant
      // journalled but never sent.
      maybe_abort();
      return conn.socket.send_all(grant + "\n");
    }
    if (line.rfind("RESULT ", 0) == 0) {
      char* end = nullptr;
      const unsigned long long record_bytes =
          std::strtoull(line.c_str() + 7, &end, 10);
      unsigned long long series_bytes = 0;
      if (end != line.c_str() + 7 && *end == ' ') {
        const char* series_begin = end;
        series_bytes = std::strtoull(series_begin, &end, 10);
      }
      if (end == line.c_str() + 7 || *end != '\0' || record_bytes == 0 ||
          record_bytes > kMaxResultBytes || series_bytes > kMaxResultBytes) {
        (void)conn.socket.send_all("ERR bad RESULT length\n");
        return false;
      }
      conn.payload_record_bytes = static_cast<std::size_t>(record_bytes);
      conn.payload_remaining =
          static_cast<std::size_t>(record_bytes + series_bytes);
      conn.payload.clear();
      return true;
    }
    (void)conn.socket.send_all("ERR unknown message\n");
    return false;
  };

  /// Drain conn.inbuf: raw payload bytes first, then complete lines.
  auto process_buffer = [&](Impl::Conn& conn) {
    while (true) {
      if (conn.payload_remaining > 0) {
        const std::size_t take =
            std::min(conn.payload_remaining, conn.inbuf.size());
        conn.payload.append(conn.inbuf, 0, take);
        conn.inbuf.erase(0, take);
        conn.payload_remaining -= take;
        if (conn.payload_remaining > 0) return true;  // need more bytes
        if (!handle_result(conn, conn.payload, conn.payload_record_bytes)) {
          return false;
        }
        continue;
      }
      const auto newline = conn.inbuf.find('\n');
      if (newline == std::string::npos) return true;
      const std::string line = conn.inbuf.substr(0, newline);
      conn.inbuf.erase(0, newline + 1);
      if (!handle_line(conn, line)) return false;
    }
  };

  /// The /status JSON snapshot, rendered from the serving loop's own state
  /// — no locks, nothing the loop doesn't already know.
  auto status_json = [&]() -> std::string {
    const Clock::time_point now = Clock::now();
    const double elapsed =
        std::chrono::duration<double>(now - im.started_at).count();
    const std::size_t remaining = im.plan.size() - im.completed;
    // ETA extrapolated from fresh completions only (cache hits resolve
    // before serving starts), per expected peer-round; negative → unknown,
    // rendered as null.
    double eta = -1.0;
    if (remaining == 0) {
      eta = 0.0;
    } else if (im.executed_cost > 0.0 && elapsed > 0.0) {
      eta = std::max(0.0, im.fresh_cost - im.executed_cost) * elapsed /
            im.executed_cost;
    }
    std::size_t orphaned = 0;
    for (const auto& [idx, lease] : im.leases) {
      if (lease.fd == -1) ++orphaned;
    }
    std::ostringstream out;
    out << "{\"plan_runs\":" << im.plan.size()
        << ",\"completed\":" << im.completed
        << ",\"pending\":" << im.pending.size()
        << ",\"leased\":" << im.leases.size()
        << ",\"orphaned_leases\":" << orphaned
        << ",\"executed\":" << executed_
        << ",\"cache_hits\":" << cache_hits_
        << ",\"requeued\":" << requeued_
        << ",\"duplicates\":" << duplicates_
        << ",\"workers_seen\":" << workers_seen_
        << ",\"leases_resumed\":" << leases_resumed_
        << ",\"journal_orphans\":" << journal_orphans_
        << ",\"done\":" << (im.done ? "true" : "false")
        << ",\"elapsed_seconds\":" << util::format_double(elapsed)
        << ",\"eta_seconds\":";
    if (eta < 0.0) {
      out << "null";
    } else {
      out << util::format_double(eta);
    }
    out << ",\"lease_wall_ms\":{\"count\":" << im.lease_wall_ms.count()
        << ",\"mean\":" << util::format_double(im.lease_wall_ms.mean())
        << ",\"p50\":"
        << util::format_double(im.lease_wall_ms.approx_quantile(0.5))
        << ",\"p90\":"
        << util::format_double(im.lease_wall_ms.approx_quantile(0.9))
        << ",\"max\":" << im.lease_wall_ms.max() << "},\"workers\":[";
    bool first = true;
    for (const auto& [fd, conn] : im.conns) {
      if (!conn.hello) continue;
      std::size_t active = 0;
      for (const auto& [idx, lease] : im.leases) {
        if (lease.fd == fd) ++active;
      }
      const double age =
          std::chrono::duration<double>(now - conn.last_traffic).count();
      const double connected =
          std::chrono::duration<double>(now - conn.connected_at).count();
      if (!first) out << ',';
      first = false;
      out << "{\"fd\":" << fd << ",\"completed\":" << conn.runs_completed
          << ",\"active_leases\":" << active
          << ",\"throughput_runs_per_s\":"
          << util::format_double(
                 connected > 0.0
                     ? static_cast<double>(conn.runs_completed) / connected
                     : 0.0)
          << ",\"last_heartbeat_age_seconds\":" << util::format_double(age)
          << '}';
    }
    out << "]}";
    return out.str();
  };

  /// The /metrics twin of /status: the same snapshot rendered in
  /// Prometheus text exposition format (one scrape = one poll-loop pass,
  /// same zero-lock state reads). Gauges, not counters, from Prometheus's
  /// point of view — a restarted coordinator restarts the sweep.
  auto metrics_text = [&]() -> std::string {
    const Clock::time_point now = Clock::now();
    const double elapsed =
        std::chrono::duration<double>(now - im.started_at).count();
    std::ostringstream out;
    auto gauge = [&out](std::string_view name, std::string_view help,
                        auto value) {
      out << "# HELP creditflow_sweep_" << name << ' ' << help << '\n'
          << "# TYPE creditflow_sweep_" << name << " gauge\n"
          << "creditflow_sweep_" << name << ' ' << value << '\n';
    };
    gauge("plan_runs", "Total runs in the sweep plan.", im.plan.size());
    gauge("completed_runs", "Runs completed (executed or cache hits).",
          im.completed);
    gauge("pending_runs", "Runs queued and not yet leased.",
          im.pending.size());
    gauge("leased_runs", "Runs currently leased to workers.",
          im.leases.size());
    gauge("executed_runs", "Runs freshly executed by workers.", executed_);
    gauge("cache_hits", "Runs answered from the run store.", cache_hits_);
    gauge("requeued_runs", "Leases revoked after worker silence.",
          requeued_);
    gauge("duplicate_results", "Results delivered for already-done runs.",
          duplicates_);
    gauge("workers_seen", "Distinct workers that ever joined.",
          workers_seen_);
    gauge("leases_resumed", "Leases reclaimed via the RESUME handshake.",
          leases_resumed_);
    gauge("journal_orphans", "Orphaned leases re-created from the journal.",
          journal_orphans_);
    gauge("done", "1 when every planned run is complete.",
          im.done ? 1 : 0);
    gauge("elapsed_seconds", "Wall time since the coordinator started.",
          util::format_double(elapsed));
    gauge("lease_wall_ms_p50", "Median lease wall time in milliseconds.",
          util::format_double(im.lease_wall_ms.approx_quantile(0.5)));
    gauge("lease_wall_ms_p90", "90th-percentile lease wall time (ms).",
          util::format_double(im.lease_wall_ms.approx_quantile(0.9)));
    out << "# HELP creditflow_sweep_worker_completed_runs Runs completed "
           "per connected worker.\n"
           "# TYPE creditflow_sweep_worker_completed_runs gauge\n";
    for (const auto& [fd, conn] : im.conns) {
      if (!conn.hello) continue;
      out << "creditflow_sweep_worker_completed_runs{fd=\"" << fd << "\"} "
          << conn.runs_completed << '\n';
    }
    return out.str();
  };

  /// Answer one HTTP request on a status connection as soon as its request
  /// line is complete (headers are ignored; one request per connection).
  /// false → close the connection.
  auto serve_status = [&](Impl::StatusConn& sc) {
    const auto newline = sc.inbuf.find('\n');
    if (newline == std::string::npos) {
      return sc.inbuf.size() <= 4096;  // keep waiting, bound the buffer
    }
    std::string line = sc.inbuf.substr(0, newline);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::istringstream request(line);
    std::string method;
    std::string path;
    request >> method >> path;
    std::string status_line;
    std::string body;
    std::string content_type = "application/json";
    if (method == "GET" &&
        (path == "/status" || path.rfind("/status?", 0) == 0)) {
      status_line = "HTTP/1.0 200 OK";
      body = status_json();
    } else if (method == "GET" &&
               (path == "/metrics" || path.rfind("/metrics?", 0) == 0)) {
      status_line = "HTTP/1.0 200 OK";
      body = metrics_text();
      content_type = "text/plain; version=0.0.4";
    } else {
      status_line = "HTTP/1.0 404 Not Found";
      body = "{\"error\":\"unknown path; try GET /status or /metrics\"}";
    }
    const std::string response =
        status_line + "\r\nContent-Type: " + content_type + "\r\n" +
        "Content-Length: " + std::to_string(body.size()) +
        "\r\nConnection: close\r\n\r\n" + body;
    (void)sc.socket.send_all(response);
    return false;
  };

  try {
  while (true) {
    const Clock::time_point now = Clock::now();
    // With the status endpoint enabled the early exit is off: scrapers must
    // be able to observe the drained terminal state for the full window.
    if (im.done &&
        (now >= im.drain_deadline ||
         (!im.status_listener.valid() && im.conns.empty() &&
          workers_seen_ > 0))) {
      break;
    }

    // Revoke leases whose deadline passed — a worker gone silent past the
    // lease timeout, or a disconnected session whose RESUME grace expired.
    // The runs go to the queue head so the next idle worker steals them.
    for (auto it = im.leases.begin(); it != im.leases.end();) {
      if (now >= it->second.deadline) {
        CF_LOG_WARN("coordinator: lease on run "
                    << it->first
                    << (it->second.fd == -1
                            ? " lost its worker; requeueing"
                            : " timed out; requeueing"));
        if (im.journal) im.journal->record_requeue(it->first);
        im.pending.push_front(it->first);
        ++requeued_;
        it = im.leases.erase(it);
      } else {
        ++it;
      }
    }

    // Sleep until traffic, the nearest lease deadline, or the drain
    // deadline — whichever comes first.
    Clock::time_point wake = Clock::time_point::max();
    for (const auto& [idx, lease] : im.leases) {
      wake = std::min(wake, lease.deadline);
    }
    if (im.done) wake = std::min(wake, im.drain_deadline);
    int timeout_ms = -1;
    if (wake != Clock::time_point::max()) {
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(wake - now);
      timeout_ms = left.count() <= 0
                       ? 0
                       : static_cast<int>(
                             std::min<long long>(left.count() + 1, 60000));
    }

    std::vector<pollfd> fds;
    fds.reserve(im.conns.size() + im.status_conns.size() + 2);
    fds.push_back(pollfd{im.listener.fd(), POLLIN, 0});
    const std::size_t status_listener_slot =
        im.status_listener.valid() ? fds.size()
                                   : static_cast<std::size_t>(-1);
    if (im.status_listener.valid()) {
      fds.push_back(pollfd{im.status_listener.fd(), POLLIN, 0});
    }
    const std::size_t worker_base = fds.size();
    for (const auto& [fd, conn] : im.conns) {
      fds.push_back(pollfd{fd, POLLIN, 0});
    }
    const std::size_t status_base = fds.size();
    for (const auto& [fd, sc] : im.status_conns) {
      fds.push_back(pollfd{fd, POLLIN, 0});
    }
    const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      CF_LOG_ERROR("coordinator: poll failed; shutting down");
      break;
    }

    if ((fds[0].revents & POLLIN) != 0) {
      util::Socket accepted = im.listener.accept();
      if (accepted.valid()) {
        const int fd = accepted.fd();
        Impl::Conn conn;
        conn.socket = std::move(accepted);
        conn.connected_at = conn.last_traffic = Clock::now();
        im.conns.emplace(fd, std::move(conn));
      }
    }
    if (status_listener_slot != static_cast<std::size_t>(-1) &&
        (fds[status_listener_slot].revents & POLLIN) != 0) {
      util::Socket accepted = im.status_listener.accept();
      if (accepted.valid()) {
        const int fd = accepted.fd();
        im.status_conns.emplace(fd,
                                Impl::StatusConn{std::move(accepted), {}});
      }
    }

    for (std::size_t k = worker_base; k < status_base; ++k) {
      if (fds[k].revents == 0) continue;
      const int fd = fds[k].fd;
      const auto it = im.conns.find(fd);
      if (it == im.conns.end()) continue;
      Impl::Conn& conn = it->second;
      const util::IoStatus status = conn.socket.recv_some(conn.inbuf, 0.0);
      if (status == util::IoStatus::kTimeout) continue;  // spurious wakeup
      if (status != util::IoStatus::kOk) {
        close_conn(fd);
        continue;
      }
      // Any traffic from a worker proves it alive: refresh its leases.
      const Clock::time_point fresh = Clock::now() + lease_duration;
      for (auto& [idx, lease] : im.leases) {
        if (lease.fd == fd) lease.deadline = fresh;
      }
      conn.last_traffic = Clock::now();
      if (!process_buffer(conn)) close_conn(fd);
    }

    for (std::size_t k = status_base; k < fds.size(); ++k) {
      if (fds[k].revents == 0) continue;
      const int fd = fds[k].fd;
      const auto it = im.status_conns.find(fd);
      if (it == im.status_conns.end()) continue;
      Impl::StatusConn& sc = it->second;
      const util::IoStatus status = sc.socket.recv_some(sc.inbuf, 0.0);
      if (status == util::IoStatus::kTimeout) continue;
      if (status != util::IoStatus::kOk || !serve_status(sc)) {
        im.status_conns.erase(fd);
      }
    }
  }
  } catch (const CoordinatorAborted&) {
    // The injected crash behaves exactly like the SIGKILL it stands in
    // for: every socket drops on the spot (workers see a dead peer, not a
    // half-open idle connection), and only the disk state survives.
    im.listener.close();
    im.conns.clear();
    im.status_listener.close();
    im.status_conns.clear();
    throw;
  }

  im.listener.close();
  im.conns.clear();
  im.status_listener.close();
  im.status_conns.clear();

  CF_ENSURES_MSG(im.completed == im.plan.size(),
                 "coordinator exited with incomplete results");
  return std::move(im.results);
}

}  // namespace creditflow::scenario
