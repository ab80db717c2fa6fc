// The service workload: an in-process IsexDaemon with shipped defaults (only
// the socket path is set) and four closed-loop IsexClient connections. A
// mixed round sends 64 requests, 16 per connection: half are fresh
// generator kernels carried as ir_text (store writes), half come from a hot
// set of registry requests warmed during set-up (store reads; concurrent
// duplicates dedup). Every client waits at most kRequestTimeoutMs for a
// response, so a stalled request is a failure rather than a hang. After the
// timed window every response is compared with an in-process Explorer run
// of the same request.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <thread>

#include "layers.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "support/hash.hpp"
#include "text/corpus_gen.hpp"

namespace perfbench {

namespace {

constexpr int kClients = 4;
constexpr int kRequestsPerClient = 16;
constexpr int kRequestsPerRound = kClients * kRequestsPerClient;
/// Client-side ceiling on one request, far above its p99 of a few ms.
constexpr std::uint64_t kRequestTimeoutMs = 5000;
/// Mixed rounds every untraced run completes, however long it is; peak RSS
/// is read after the last of them, so it is compared at equal work (the
/// daemon's store grows with every fresh kernel).
constexpr int kFixedRounds = 128;
/// Daemon set-ups at the start of a run; an untraced run times one more
/// after every kRoundsPerSetup mixed rounds, on a daemon of its own, so the
/// set-up samples span the run's window as the round samples do.
constexpr int kSetupReps = 4;
constexpr int kRoundsPerSetup = 16;

/// Registry kernels at two Nin/Nout points: small enough to sit in the
/// store's caches.
std::vector<isex::ExplorationRequest> hot_set() {
  std::vector<isex::ExplorationRequest> out;
  for (const std::string& name : isex::workload_names()) {
    for (const auto& [nin, nout] : {std::pair{4, 2}, std::pair{3, 1}}) {
      isex::ExplorationRequest r;
      r.workload = name;
      r.scheme = "iterative";
      r.constraints.max_inputs = nin;
      r.constraints.max_outputs = nout;
      out.push_back(std::move(r));
    }
  }
  return out;
}

/// Hash of the report a request must produce: stable_report_json without
/// the cache section, whose per-request deltas depend on the store's state.
std::uint64_t stable_hash(const isex::Json& report) {
  const isex::Json stable = isex::stable_report_json(report);
  isex::Json out = isex::Json::object();
  for (const auto& [key, value] : stable.as_object()) {
    if (key != "cache") out.set(key, value);
  }
  return isex::hash_bytes(out.dump());
}

/// What one request observed on the wire.
struct Exchange {
  std::size_t request = 0;  // index into ServiceRun::requests_
  bool attempted = false;   // false when an earlier failure ended the client's round
  Clock::time_point sent, accepted, extracted, selected, done;
  /// Whether the phase events arrived (a request deduped onto a run already
  /// in flight may attach after them).
  bool saw_extracted = false;
  bool saw_selected = false;
  double extract_ms = 0.0;
  bool deduped = false;
  double batch_size = 0.0;
  double queue_depth = 0.0;
  std::uint64_t report_hash = 0;
  isex::Json report;  // kept only in traced rounds
  std::string error;
};

/// The daemon, its serve thread and the client connections.
class DaemonSession {
 public:
  explicit DaemonSession(const std::string& socket_path) {
    isex::DaemonConfig config;
    config.socket_path = socket_path;
    daemon_ = std::make_unique<isex::IsexDaemon>(std::move(config));
    serve_ = std::thread([this] { daemon_->serve(); });
    isex::ClientOptions options;
    options.request_timeout_ms = kRequestTimeoutMs;
    for (int c = 0; c < kClients; ++c) {
      clients_.push_back(std::make_unique<isex::IsexClient>(socket_path, options));
    }
  }
  ~DaemonSession() {
    clients_.clear();
    daemon_->request_stop();
    serve_.join();
    std::filesystem::remove(daemon_->socket_path());
  }
  DaemonSession(const DaemonSession&) = delete;
  DaemonSession& operator=(const DaemonSession&) = delete;

  isex::IsexClient& client(int c) { return *clients_[static_cast<std::size_t>(c)]; }

 private:
  std::unique_ptr<isex::IsexDaemon> daemon_;
  std::thread serve_;
  std::vector<std::unique_ptr<isex::IsexClient>> clients_;
};

class ServiceRun {
 public:
  ServiceRun(const RunConfig& config, Tracer& tracer)
      : config_(config), tracer_(tracer), rng_(config.seed) {}

  Outcome run() {
    for (const isex::ExplorationRequest& r : hot_set()) requests_.push_back(r);
    hot_count_ = requests_.size();
    const int reps = config_.smoke ? 1 : kSetupReps;
    for (int i = 0; i < reps; ++i) {
      session_.reset();
      session_ = start_session();
    }
    if (config_.trace) {
      run_traced();
    } else {
      run_untraced();
    }
    session_.reset();
    verify();
    return std::move(out_);
  }

 private:
  /// Starts a daemon on a new socket, connects the clients and warms the
  /// hot set: one set-up sample.
  std::unique_ptr<DaemonSession> start_session() {
    const std::string path = config_.work_dir + "/svc-" + std::to_string(::getpid()) + "-" +
                             std::to_string(setup_s_.size()) + ".sock";
    const auto t0 = Clock::now();
    auto session = std::make_unique<DaemonSession>(path);
    for (std::size_t h = 0; h < hot_count_; ++h) (void)session->client(0).explore(requests_[h]);
    setup_s_.push_back(ms_since(t0) / 1e3);
    return session;
  }

  /// Appends the fresh kernels of a new mixed round and returns the round's
  /// request indices, client-major.
  std::vector<std::size_t> next_mixed_round() {
    std::vector<bool> fresh(kRequestsPerRound, false);
    for (int i = 0; i < kRequestsPerRound / 2; ++i) fresh[static_cast<std::size_t>(i)] = true;
    std::shuffle(fresh.begin(), fresh.end(), rng_);
    std::vector<std::size_t> round;
    for (const bool f : fresh) {
      if (!f) {
        round.push_back(rng_() % hot_count_);
        continue;
      }
      isex::CorpusGenConfig c;
      c.seed = (config_.seed << 24) + fresh_.size();
      c.num_ops = 8 + static_cast<int>(rng_() % 25);  // 8..32 data operations
      c.num_params = 1 + static_cast<int>(rng_() % 3);
      c.rom_words = (rng_() % 2) == 0 ? 0 : 16;
      fresh_.push_back(c);
      isex::ExplorationRequest r;
      r.ir_text = isex::generate_workload_text(c);
      r.scheme = "iterative";
      r.constraints.max_inputs = 4;
      r.constraints.max_outputs = 2;
      round.push_back(requests_.size());
      requests_.push_back(std::move(r));
    }
    return round;
  }

  /// Fresh kernels keep only their generator config once their rounds are
  /// done, so the benchmark's own memory does not grow with the daemon's
  /// throughput (verify() regenerates the text).
  void release(const std::vector<std::size_t>& round) {
    for (const std::size_t idx : round) {
      if (idx >= hot_count_) std::string().swap(requests_[idx].ir_text);
    }
  }

  /// Runs one round over the four connections; returns its wall seconds.
  /// A client stops its share of the round at its first failed request.
  double run_round(const std::vector<std::size_t>& round, bool keep_reports,
                   std::vector<Exchange>& out) {
    out.assign(round.size(), Exchange{});
    std::vector<std::thread> threads;
    const auto t0 = Clock::now();
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (int k = 0; k < kRequestsPerClient; ++k) {
          const std::size_t slot = static_cast<std::size_t>(c * kRequestsPerClient + k);
          exchange(session_->client(c), round[slot], keep_reports, out[slot]);
          if (!out[slot].error.empty()) break;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double s = ms_since(t0) / 1e3;
    for (const Exchange& e : out) {
      if (!e.attempted) continue;
      responses_.emplace_back(e.request, e.report_hash);
      if (!e.error.empty()) out_.fail("request " + std::to_string(e.request) + ": " + e.error);
    }
    return s;
  }

  void exchange(isex::IsexClient& client, std::size_t request, bool keep_report, Exchange& e) {
    e.request = request;
    e.attempted = true;
    e.sent = Clock::now();
    try {
      const isex::Json payload = client.explore(
          requests_[request], 0, [&](const isex::EventFrame& ev) {
            const auto now = Clock::now();
            if (ev.event == "accepted") {
              e.accepted = now;
              e.deduped = ev.data.at("deduped").as_bool();
              e.batch_size = ev.data.at("batch_size").as_double();
              e.queue_depth = ev.data.at("queue_depth").as_double();
            } else if (ev.event == "extracted") {
              e.extracted = now;
              e.saw_extracted = true;
              e.extract_ms = ev.data.at("extract_ms").as_double();
            } else if (ev.event == "selected") {
              e.selected = now;
              e.saw_selected = true;
            }
          });
      e.done = Clock::now();
      e.report_hash = stable_hash(payload.at("report"));
      if (keep_report) e.report = payload;
    } catch (const std::exception& ex) {
      e.done = Clock::now();
      e.error = ex.what();
    }
  }

  /// Mixed rounds until both kFixedRounds are done and the time is up, or
  /// until a request fails. The stream has no warm pass: warm_sweep_s
  /// repeats the mixed-round time so every workload prints the same set.
  void run_untraced() {
    std::vector<Exchange> ex;
    {
      // Warm-up round, checked but not sampled.
      const std::vector<std::size_t> round = next_mixed_round();
      run_round(round, false, ex);
      release(round);
    }
    const int fixed_rounds = config_.smoke ? 1 : kFixedRounds;
    const auto deadline = Clock::now() + std::chrono::duration<double>(config_.seconds);
    double rss_mb = 0.0;
    while (out_.failed == 0) {
      const std::vector<std::size_t> round = next_mixed_round();
      mixed_s_.push_back(run_round(round, false, ex));
      for (const Exchange& e : ex) {
        if (e.attempted) latency_ms_.push_back(ms_between(e.sent, e.done));
      }
      release(round);
      const int done = static_cast<int>(mixed_s_.size());
      if (done == fixed_rounds) rss_mb = peak_rss_mb();
      if (!config_.smoke && done % kRoundsPerSetup == 0) (void)start_session();
      if (done >= fixed_rounds && (config_.smoke || Clock::now() >= deadline)) break;
    }
    const double round_s = median(mixed_s_);
    set_end_to_end(out_, setup_s_, round_s, round_s, kRequestsPerRound, latency_ms_, rss_mb);
    out_.notes.set("mixed_rounds", static_cast<std::uint64_t>(mixed_s_.size()));
  }

  void run_traced() {
    const auto deadline = Clock::now() + std::chrono::duration<double>(config_.seconds);
    std::vector<Exchange> ex;
    const std::vector<std::size_t> first = next_mixed_round();
    const double untraced_s = run_round(first, false, ex);
    release(first);
    std::vector<Metrics> per_round;
    std::uint64_t warm_misses = 0;
    do {
      const std::vector<std::size_t> round = next_mixed_round();
      const double traced_s = run_round(round, true, ex);
      LayerTotals totals;
      Metrics m;
      trace_round(ex, totals, m);
      probe(round, totals, warm_misses);
      release(round);
      totals.to_metrics(m);
      m.set("trace.untraced_pass_s", untraced_s, "s");
      m.set("trace.traced_pass_s", traced_s, "s");
      per_round.push_back(std::move(m));
    } while (!config_.smoke && out_.failed == 0 && Clock::now() < deadline);
    out_.metrics = median_metrics(per_round);
    complete_layer_metrics(out_.metrics);
    out_.notes.set("traced_rounds", static_cast<std::uint64_t>(per_round.size()));
    out_.notes.set("probe_warm_select_misses", warm_misses);
    out_.notes.set("span_self_ms", tracer_.self_times_json());
    check_warm_select(out_, warm_misses);
  }

  /// Spans and service-layer metrics from the event timestamps and reports
  /// of one traced round (means per request; the queue/run/egress split over
  /// the requests that saw every phase event).
  void trace_round(const std::vector<Exchange>& ex, LayerTotals& totals, Metrics& m) {
    double ingress = 0, queue = 0, run = 0, egress = 0, phased = 0, dedup = 0, batch = 0;
    double depth = 0, store_hits = 0, encode_us = 0, decode_us = 0, report_bytes = 0;
    for (const Exchange& e : ex) {
      if (!e.attempted || !e.error.empty()) continue;
      const std::string id = "r" + std::to_string(e.request);
      const isex::Json& report = e.report.at("report");
      const isex::ExplorationReport r = isex::ExplorationReport::from_json(report);
      const std::uint64_t span = tracer_.record("request", e.sent, e.done, 0, id);
      tracer_.record("ingress", e.sent, e.accepted, span, id);
      ingress += ms_between(e.sent, e.accepted);
      if (e.saw_extracted && e.saw_selected) {
        const auto queued_until =
            e.extracted - std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(e.extract_ms));
        tracer_.record("queue", e.accepted, queued_until, span, id);
        tracer_.record("run", queued_until, e.selected, span, id);
        tracer_.record("egress", e.selected, e.done, span, id);
        queue += ms_between(e.accepted, queued_until);
        run += r.timings.total_ms;
        egress += ms_between(e.selected, e.done);
        phased += 1;
      }
      dedup += e.deduped ? 1 : 0;
      batch += e.batch_size;
      depth += e.queue_depth;
      store_hits += r.cache.counters.misses == 0 ? 1 : 0;
      totals.add_report(r.cache, r.timings);

      // Protocol cost of this exchange, re-encoded and re-decoded outside
      // the round: the request frame and the report event frame.
      isex::RequestFrame frame;
      frame.id = id;
      frame.type = "explore";
      frame.single = requests_[e.request];
      const auto t0 = Clock::now();
      const std::string request_line = isex::dump_request_frame(frame);
      const std::string report_line = isex::dump_event_frame(id, "report", e.report);
      const auto t1 = Clock::now();
      (void)isex::parse_request_frame(request_line);
      (void)isex::parse_event_frame(report_line);
      const auto t2 = Clock::now();
      encode_us += ms_between(t0, t1) * 1e3;
      decode_us += ms_between(t1, t2) * 1e3;
      report_bytes += static_cast<double>(report_line.size());
    }
    const double n = std::max<double>(1.0, static_cast<double>(ex.size()));
    phased = std::max(1.0, phased);
    m.set("service.ingress_ms", ingress / n, "ms");
    m.set("service.queue_ms", queue / phased, "ms");
    m.set("service.run_ms", run / phased, "ms");
    m.set("service.egress_ms", egress / phased, "ms");
    m.set("admission.dedup_ratio", dedup / n, "ratio");
    m.set("admission.batch_size_mean", batch / n, "count");
    m.set("admission.queue_depth_mean", depth / n, "count");
    m.set("service.store_hit_ratio", store_hits / n, "ratio");
    m.set("protocol.encode_us", encode_us / n, "us");
    m.set("protocol.decode_us", decode_us / n, "us");
    m.set("protocol.report_bytes", report_bytes / n, "bytes");
  }

  /// Text, extraction and selection layers of the round's fresh kernels,
  /// replayed by direct calls.
  void probe(const std::vector<std::size_t>& round, LayerTotals& totals,
             std::uint64_t& warm_misses) {
    for (const std::size_t idx : round) {
      if (idx < hot_count_) continue;
      const isex::ExplorationRequest& r = requests_[idx];
      isex::Workload w = probe_text(r.ir_text, totals);
      const ProbedBlocks pb = probe_extract(w, totals);
      isex::WorkloadBundle bundle;
      bundle.name = w.name();
      bundle.blocks = pb.blocks;
      bundle.base_cycles = pb.base_cycles;
      probe_select(r.scheme, std::span<const isex::WorkloadBundle>(&bundle, 1), r.constraints,
                   r.num_instructions, isex::serial_executor(), 0, totals, &warm_misses);
    }
  }

  /// Every response must equal an in-process run of its request.
  void verify() {
    std::vector<std::uint64_t> expected(requests_.size(), 0);
    std::vector<bool> needed(requests_.size(), false);
    for (const auto& [idx, hash] : responses_) needed[idx] = true;
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        const isex::Explorer explorer;
        for (std::size_t i = static_cast<std::size_t>(t); i < requests_.size(); i += kClients) {
          if (!needed[i]) continue;
          isex::ExplorationRequest r = requests_[i];
          if (i >= hot_count_) r.ir_text = isex::generate_workload_text(fresh_[i - hot_count_]);
          expected[i] = stable_hash(explorer.run(r).to_json());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const auto& [idx, hash] : responses_) {
      ++out_.attempted;
      if (hash != 0 && hash != expected[idx]) {
        out_.fail("request " + std::to_string(idx) + ": daemon report differs from in-process run");
      }
    }
    out_.notes.set("fresh_kernels", static_cast<std::uint64_t>(fresh_.size()));
  }

  const RunConfig& config_;
  Tracer& tracer_;
  Outcome out_;
  Rng rng_;
  std::unique_ptr<DaemonSession> session_;
  std::vector<isex::ExplorationRequest> requests_;  // hot set first, then fresh kernels
  std::size_t hot_count_ = 0;
  std::vector<isex::CorpusGenConfig> fresh_;  // generator config per fresh request
  std::vector<std::pair<std::size_t, std::uint64_t>> responses_;  // request, report hash
  std::vector<double> setup_s_, mixed_s_;
  std::vector<double> latency_ms_;  // every mixed-round request
};

}  // namespace

Outcome run_service(const RunConfig& config, Tracer& tracer) {
  return ServiceRun(config, tracer).run();
}

}  // namespace perfbench
