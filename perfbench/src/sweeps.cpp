// The fig11 and wide workloads: fixed registry kernels swept through the
// Explorer, one fresh Explorer per cold pass, then warm passes on the same
// Explorer (every identification a memo hit). The seed shuffles the order
// of the requests in a pass. Every cell is checked against a digest pinned
// in expected/<workload>.json.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "layers.hpp"
#include "support/hash.hpp"

namespace perfbench {

namespace {

struct SweepCell {
  std::size_t kernel = 0;
  int nin = 0;
  int nout = 0;
  std::string scheme;
  std::uint64_t budget = 0;
};

/// One request of the workload's latency distribution: a Fig. 11 table row
/// (one kernel at one Nin/Nout under all four schemes), or one wide kernel.
struct SweepRequest {
  std::string key;
  std::vector<SweepCell> cells;
};

struct SweepSpec {
  std::string name;
  std::vector<isex::Workload> (*make_workloads)();
  std::vector<SweepRequest> requests;
  bool fig11_pruning = false;  // branch-and-bound + permanent-input pruning
  int num_threads = 1;
  int split_depth = 0;
};

/// Warm passes after each cold pass.
constexpr std::size_t kWarmPassesPerCycle = 8;
/// Set-up runs per CPU before each cycle of an untraced run.
constexpr int kSetupRoundsPerCycle = 4;

std::string cell_key(const std::vector<isex::Workload>& workloads, const SweepCell& c) {
  return workloads[c.kernel].name() + "/" + std::to_string(c.nin) + "-" +
         std::to_string(c.nout) + "/" + c.scheme;
}

isex::ExplorationRequest make_request(const SweepSpec& spec, const SweepCell& c) {
  isex::ExplorationRequest r;
  r.scheme = c.scheme;
  r.num_instructions = 16;
  r.constraints.max_inputs = c.nin;
  r.constraints.max_outputs = c.nout;
  r.constraints.branch_and_bound = spec.fig11_pruning;
  r.constraints.prune_permanent_inputs = spec.fig11_pruning;
  r.constraints.search_budget = c.budget;
  r.num_threads = spec.num_threads;
  r.subtree_split_depth = spec.split_depth;
  return r;
}

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// Digest of everything a cell's answer consists of: the selected cuts
/// (block, node bits, merit), cuts considered, speedup and budget outcome.
std::string report_digest(const isex::ExplorationReport& r) {
  std::string s;
  for (const isex::CutReport& c : r.cuts) {
    s += std::to_string(c.block_index) + ":" + c.nodes + ":" + num(c.merit) + ";";
  }
  s += "|" + std::to_string(r.stats.cuts_considered) + "|" + num(r.estimated_speedup) + "|" +
       (r.stats.budget_exhausted ? "exhausted" : "complete");
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(isex::hash_bytes(s)));
  return buf;
}

std::string expected_path(const RunConfig& config, const std::string& workload) {
  return config.expected_dir + "/" + workload + ".json";
}

std::map<std::string, std::string> load_digests(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw isex::Error("cannot read expected digests " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  const isex::Json doc = isex::Json::parse(ss.str());
  std::map<std::string, std::string> out;
  for (const auto& [key, value] : doc.at("cells").as_object()) {
    out[key] = value.as_string();
  }
  return out;
}

void save_digests(const std::string& path, const std::string& workload,
                  const std::map<std::string, std::string>& digests) {
  isex::Json cells = isex::Json::object();
  for (const auto& [key, digest] : digests) cells.set(key, digest);
  isex::Json doc = isex::Json::object();
  doc.set("workload", workload);
  doc.set("digest", std::string("hash of cut bits, merit, cuts_considered, speedup, "
                                "budget_exhausted per cell"));
  doc.set("cells", std::move(cells));
  std::ofstream out(path);
  out << doc.dump(2) << "\n";
  if (!out) throw isex::Error("cannot write " + path);
}

class SweepRun {
 public:
  SweepRun(SweepSpec spec, const RunConfig& config, Tracer& tracer)
      : spec_(std::move(spec)), config_(config), tracer_(tracer) {}

  Outcome run() {
    setup();
    Rng rng(config_.seed);
    order_ = spec_.requests;
    std::shuffle(order_.begin(), order_.end(), rng);
    if (config_.trace) {
      run_traced();
    } else {
      run_untraced();
    }
    if (config_.record) save_digests(expected_path(config_, spec_.name), spec_.name, recorded_);
    return std::move(out_);
  }

 private:
  /// Set-up is building and preprocessing the registry workloads, about a
  /// millisecond. Its samples are taken once here and again before every
  /// cycle of an untraced run, so they span the run's window as the pass
  /// samples do. The pinned digests are the benchmark's own input and are
  /// read outside the timing.
  void setup() {
    if (!config_.record) expected_ = load_digests(expected_path(config_, spec_.name));
    sample_setup(1);
  }

  void sample_setup(int rounds) {
    const std::vector<double> s = rotated_setup_s(cpus_, rounds, [&] {
      workloads_ = spec_.make_workloads();
      for (isex::Workload& w : workloads_) w.preprocess();
    });
    setup_s_.insert(setup_s_.end(), s.begin(), s.end());
  }

  void check(const SweepCell& cell, const isex::ExplorationReport& report) {
    ++out_.attempted;
    const std::string key = cell_key(workloads_, cell);
    const std::string digest = report_digest(report);
    if (config_.record) {
      auto [it, inserted] = recorded_.emplace(key, digest);
      if (!inserted && it->second != digest) out_.fail(key + ": digest differs between passes");
      return;
    }
    auto it = expected_.find(key);
    if (it == expected_.end()) {
      out_.fail(key + ": no pinned digest");
    } else if (it->second != digest) {
      out_.fail(key + ": digest " + digest + " != pinned " + it->second);
    }
  }

  /// One pass over every request; returns its wall seconds. Cold passes
  /// append per-request latencies. With `traced` set, spans and report
  /// sections go into it.
  double pass(const isex::Explorer& explorer, bool cold, LayerTotals* traced) {
    Tracer untraced(false);
    Tracer& tracer = traced != nullptr ? tracer_ : untraced;
    const auto t_pass = Clock::now();
    const std::uint64_t pass_span = tracer.open(cold ? "pass.cold" : "pass.warm");
    // Serial sweeps spread over the CPUs: a cold pass moves each request to
    // the next CPU (starting one further each pass); a warm pass, too short
    // to migrate inside, runs on the next CPU as a whole.
    std::size_t slot = cold ? cold_passes_++ : warm_passes_++;
    if (serial() && !cold) cpus_.pin(slot);
    for (const SweepRequest& req : order_) {
      if (serial() && cold) cpus_.pin(slot++);
      const auto t_req = Clock::now();
      const std::uint64_t req_span = tracer.open("request", pass_span, req.key);
      for (const SweepCell& cell : req.cells) {
        const isex::ExplorationRequest request = make_request(spec_, cell);
        isex::ExplorationReport report;
        if (traced == nullptr) {
          report = explorer.run(workloads_[cell.kernel], request);
        } else {
          report = traced_run(explorer, cell, request, req_span, req.key, *traced);
        }
        check(cell, report);
      }
      tracer.close(req_span);
      if (cold) latency_ms_[req.key].push_back(ms_since(t_req));
    }
    tracer.close(pass_span);
    return ms_since(t_pass) / 1e3;
  }

  isex::ExplorationReport traced_run(const isex::Explorer& explorer, const SweepCell& cell,
                                     const isex::ExplorationRequest& request,
                                     std::uint64_t parent, const std::string& request_id,
                                     LayerTotals& totals) {
    std::map<std::string, Clock::time_point> at;
    isex::RunHooks hooks;
    hooks.on_phase = [&](const std::string& phase, const isex::Json&) { at[phase] = Clock::now(); };
    const auto t0 = Clock::now();
    isex::ExplorationReport report = explorer.run(workloads_[cell.kernel], request, hooks);
    const auto t1 = Clock::now();
    const std::uint64_t span = tracer_.record("explore." + cell.scheme, t0, t1, parent, request_id);
    tracer_.record("extract", t0, at.at("extracted"), span, request_id);
    tracer_.record("identify_select", at.at("extracted"), at.at("identified"), span, request_id);
    tracer_.record("report_cuts", at.at("identified"), at.at("selected"), span, request_id);
    totals.add_report(report.cache, report.timings);
    return report;
  }

  bool serial() const { return spec_.num_threads == 1; }

  void run_untraced() {
    const std::size_t warm = config_.smoke ? 1 : kWarmPassesPerCycle;
    const auto deadline = Clock::now() + std::chrono::duration<double>(config_.seconds);
    double rss_mb = 0.0;
    do {
      if (!config_.smoke) sample_setup(kSetupRoundsPerCycle);
      {
        const isex::Explorer explorer;
        cold_s_.push_back(pass(explorer, true, nullptr));
        for (std::size_t i = 0; i < warm; ++i) warm_s_.push_back(pass(explorer, false, nullptr));
      }
      // Every cycle does the same work on a fresh Explorer: the first one's
      // peak is the workload's.
      if (rss_mb == 0.0) rss_mb = peak_rss_mb();
    } while (!config_.smoke && Clock::now() < deadline);
    // A request's latency is its median over the cold passes, and a cold
    // pass the sum of those; the quantiles run across the workload's
    // distinct requests.
    std::vector<double> latency_ms;
    double sweep_ms = 0.0;
    for (const auto& [key, samples] : latency_ms_) {
      latency_ms.push_back(median(samples));
      sweep_ms += latency_ms.back();
    }
    set_end_to_end(out_, setup_s_, sweep_ms / 1e3, fastest(warm_s_), order_.size(), latency_ms,
                   rss_mb);
    isex::Json cold = isex::Json::array();
    for (const double x : cold_s_) cold.push_back(x);
    out_.notes.set("cold_pass_s_samples", std::move(cold));
    out_.notes.set("warm_passes", static_cast<std::uint64_t>(warm_s_.size()));
  }

  void run_traced() {
    const auto deadline = Clock::now() + std::chrono::duration<double>(config_.seconds);
    double untraced_s = 0.0;
    {
      const isex::Explorer explorer;
      untraced_s = pass(explorer, true, nullptr);
    }
    std::vector<Metrics> per_pass;
    std::uint64_t warm_misses = 0;
    do {
      LayerTotals totals;
      const isex::Explorer explorer;
      const double traced_s = pass(explorer, true, &totals);
      probe(totals, &warm_misses);
      Metrics m;
      totals.to_metrics(m);
      m.set("trace.untraced_pass_s", untraced_s, "s");
      m.set("trace.traced_pass_s", traced_s, "s");
      per_pass.push_back(std::move(m));
    } while (!config_.smoke && Clock::now() < deadline);
    out_.metrics = median_metrics(per_pass);
    complete_layer_metrics(out_.metrics);
    out_.notes.set("traced_passes", static_cast<std::uint64_t>(per_pass.size()));
    out_.notes.set("probe_warm_select_misses", warm_misses);
    out_.notes.set("span_self_ms", tracer_.self_times_json());
    check_warm_select(out_, warm_misses);
  }

  /// Replays the pass's work layer by layer on fresh workload instances.
  void probe(LayerTotals& totals, std::uint64_t* warm_misses) {
    std::vector<isex::Workload> fresh = spec_.make_workloads();
    std::vector<ProbedBlocks> extracted;
    for (isex::Workload& w : fresh) extracted.push_back(probe_extract(w, totals));

    std::unique_ptr<isex::ThreadPool> pool;
    isex::Executor* executor = &isex::serial_executor();
    if (spec_.num_threads != 1) {
      pool = std::make_unique<isex::ThreadPool>(spec_.num_threads);
      executor = pool.get();
    }
    for (const SweepRequest& req : order_) {
      for (const SweepCell& cell : req.cells) {
        const ProbedBlocks& pb = extracted[cell.kernel];
        isex::WorkloadBundle bundle;
        bundle.name = fresh[cell.kernel].name();
        bundle.blocks = pb.blocks;
        bundle.base_cycles = pb.base_cycles;
        const isex::ExplorationRequest request = make_request(spec_, cell);
        probe_select(cell.scheme, std::span<const isex::WorkloadBundle>(&bundle, 1),
                     request.constraints, request.num_instructions, *executor,
                     request.subtree_split_depth, totals, warm_misses);
      }
    }
    if (pool != nullptr && spec_.split_depth > 0) {
      // Subtree balance of the first-round search of every block.
      const isex::ExplorationRequest request = make_request(spec_, spec_.requests[0].cells[0]);
      for (const ProbedBlocks& pb : extracted) {
        probe_subtree_tasks(pb.blocks, request.constraints, *pool, spec_.split_depth, totals);
      }
    }
  }

  SweepSpec spec_;
  const RunConfig& config_;
  Tracer& tracer_;
  Outcome out_;
  std::vector<isex::Workload> workloads_;
  std::map<std::string, std::string> expected_;
  std::map<std::string, std::string> recorded_;
  std::vector<SweepRequest> order_;
  std::vector<double> setup_s_, cold_s_, warm_s_;
  std::map<std::string, std::vector<double>> latency_ms_;  // per request key, cold passes
  std::size_t cold_passes_ = 0;
  std::size_t warm_passes_ = 0;
  CpuRotation cpus_;
};

}  // namespace

Outcome run_fig11(const RunConfig& config, Tracer& tracer) {
  SweepSpec spec;
  spec.name = "fig11";
  spec.make_workloads = &isex::fig11_workloads;
  spec.fig11_pruning = true;
  const std::vector<std::pair<int, int>> ports = {{2, 1}, {3, 1}, {4, 1},
                                                  {2, 2}, {4, 2}, {8, 4}};
  const std::vector<isex::Workload> workloads = spec.make_workloads();
  for (std::size_t k = 0; k < workloads.size(); ++k) {
    for (const auto& [nin, nout] : ports) {
      SweepRequest req;
      req.key = workloads[k].name() + "/" + std::to_string(nin) + "-" + std::to_string(nout);
      // Optimal runs under the paper's budget, as in bench/fig11_speedup.
      req.cells.push_back({k, nin, nout, "optimal", 1'000'000});
      for (const char* scheme : {"iterative", "clubbing", "maxmiso"}) {
        req.cells.push_back({k, nin, nout, scheme, 0});
      }
      spec.requests.push_back(std::move(req));
    }
  }
  return SweepRun(std::move(spec), config, tracer).run();
}

Outcome run_wide(const RunConfig& config, Tracer& tracer) {
  SweepSpec spec;
  spec.name = "wide";
  spec.make_workloads = &isex::all_workloads;
  spec.num_threads = 4;
  spec.split_depth = 10;
  const std::vector<isex::Workload> workloads = spec.make_workloads();
  for (std::size_t k = 0; k < workloads.size(); ++k) {
    SweepRequest req;
    req.key = workloads[k].name();
    req.cells.push_back({k, 8, 4, "iterative", 0});
    spec.requests.push_back(std::move(req));
  }
  return SweepRun(std::move(spec), config, tracer).run();
}

}  // namespace perfbench
