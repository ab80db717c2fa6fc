// The corpus workload: the 12 registry kernels dumped to `.isex` files plus
// seeded generator kernels of mixed sizes, explored as one joint-iterative
// portfolio loaded from disk, with emission (verilog, c-intrinsics,
// manifest) and rewrite verification on. Each cycle runs a cold pass on a
// fresh Explorer, then warm passes reusing it. Every rewrite must be
// bit-exact with matching invocation counts (the interpreter is the
// oracle), and every pass's stable report must equal the first cold one.
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "layers.hpp"
#include "service/protocol.hpp"
#include "text/corpus_gen.hpp"
#include "text/workload_file.hpp"

namespace perfbench {

namespace {

constexpr int kGeneratedKernels = 128;
constexpr int kWarmPassesPerCycle = 3;

/// A corpus document: file name and text.
using CorpusDocs = std::vector<std::pair<std::string, std::string>>;

/// The corpus for `seed`: the registry kernels printed as `.isex` documents
/// and the seeded generator kernels.
CorpusDocs make_corpus(std::uint64_t seed) {
  CorpusDocs docs;
  for (const std::string& name : isex::workload_names()) {
    docs.emplace_back(name + ".isex", isex::dump_workload(isex::find_workload(name)));
  }
  Rng rng(seed);
  for (int i = 0; i < kGeneratedKernels; ++i) {
    isex::CorpusGenConfig c;
    c.seed = seed * 1000 + static_cast<std::uint64_t>(i);
    c.num_ops = 8 + static_cast<int>(rng() % 41);        // 8..48 data operations
    c.num_params = 1 + static_cast<int>(rng() % 3);      // 1..3
    c.loop_trips = 8 << (rng() % 3);                     // 8, 16, 32
    c.rom_words = (rng() % 2) == 0 ? 0 : 16;
    docs.emplace_back("gen" + std::to_string(c.seed) + ".isex",
                      isex::generate_workload_text(c));
  }
  return docs;
}

/// Writes `docs` into `dir`; returns the file paths.
std::vector<std::string> write_corpus(const std::filesystem::path& dir, const CorpusDocs& docs) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<std::string> paths;
  for (const auto& [file, text] : docs) {
    const std::filesystem::path p = dir / file;
    std::ofstream out(p, std::ios::binary);
    out << text;
    if (!out) throw isex::Error("cannot write " + p.string());
    paths.push_back(p.string());
  }
  return paths;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

isex::MultiExplorationRequest make_request(const std::vector<std::string>& paths,
                                           bool verify) {
  isex::MultiExplorationRequest r;
  for (const std::string& p : paths) {
    isex::PortfolioWorkloadRequest w;
    w.workload = p;
    r.workloads.push_back(std::move(w));
  }
  r.scheme = "joint-iterative";
  r.num_instructions = 16;
  r.emission.targets = {"verilog", "c-intrinsics", "manifest"};
  r.emission.verify_rewrites = verify;
  return r;
}

/// The report minus wall-clock timings and the cache section (cold and
/// warm runs differ exactly there).
std::string stable_text(const isex::PortfolioReport& report) {
  const isex::Json stable = isex::stable_report_json(report.to_json());
  isex::Json out = isex::Json::object();
  for (const auto& [key, value] : stable.as_object()) {
    if (key != "cache") out.set(key, value);
  }
  return out.dump();
}

class CorpusRun {
 public:
  CorpusRun(const RunConfig& config, Tracer& tracer) : config_(config), tracer_(tracer) {}

  Outcome run() {
    const std::filesystem::path dir =
        std::filesystem::path(config_.work_dir) / ("corpus-" + std::to_string(config_.seed));
    // Set-up is printing and generating the kernels; writing them to disk
    // is file-system work, outside the timing. More samples are taken before
    // every cycle of an untraced run, so they span the run's window as the
    // pass samples do.
    CorpusDocs docs;
    setup_s_ = rotated_setup_s(cpus_, 1, [&] { docs = make_corpus(config_.seed); });
    paths_ = write_corpus(dir, docs);
    if (config_.trace) {
      run_traced();
    } else {
      run_untraced();
    }
    out_.notes.set("kernels", static_cast<std::uint64_t>(paths_.size()));
    std::filesystem::remove_all(dir);
    return std::move(out_);
  }

 private:
  /// One pass; checks its report and returns it. Warm-up passes are
  /// checked but not sampled.
  isex::PortfolioReport pass(const isex::Explorer& explorer, bool cold, bool verify,
                             const isex::RunHooks& hooks, bool sample = true) {
    const auto t0 = Clock::now();
    isex::PortfolioReport report = explorer.run_portfolio(make_request(paths_, verify), hooks);
    const double s = ms_since(t0) / 1e3;
    if (verify) check(report);
    if (!sample) return report;
    (cold ? cold_s_ : warm_s_).push_back(s);
    return report;
  }

  /// One attempted operation per verified pass; it fails on the first
  /// problem found.
  void check(const isex::PortfolioReport& report) {
    ++out_.attempted;
    std::string problem;
    if (report.partial) problem = "partial report";
    int rewritten = 0;
    for (const isex::PortfolioWorkloadReport& w : report.workloads) {
      if (!w.validation.rewritten) continue;
      ++rewritten;
      if (problem.empty() && (!w.validation.bit_exact || !w.validation.counts_match)) {
        problem = w.workload + ": rewrite not bit-exact or invocation counts differ";
      }
    }
    if (problem.empty() && rewritten == 0) problem = "no application was rewritten";
    const std::string stable = stable_text(report);
    if (reference_.empty()) {
      reference_ = stable;
    } else if (problem.empty() && stable != reference_) {
      problem = "stable report differs from the first cold pass";
    }
    if (!problem.empty()) out_.fail(problem);
  }

  /// The first passes of a process pay page faults and cold instruction
  /// caches that no later pass sees; they are checked but not sampled.
  void warm_up() {
    const isex::Explorer explorer;
    pass(explorer, true, true, {}, false);
    pass(explorer, false, true, {}, false);
  }

  void run_untraced() {
    warm_up();
    // Each cycle runs on the next CPU, so no single CPU's neighbours decide
    // the result.
    const int warm = config_.smoke ? 1 : kWarmPassesPerCycle;
    const auto deadline = Clock::now() + std::chrono::duration<double>(config_.seconds);
    std::size_t cycle = 0;
    double rss_mb = 0.0;
    do {
      cpus_.pin(cycle++);
      const auto t_setup = Clock::now();
      (void)make_corpus(config_.seed);
      setup_s_.push_back(ms_since(t_setup) / 1e3);
      {
        const isex::Explorer explorer;
        pass(explorer, true, true, {});
        for (int i = 0; i < warm; ++i) pass(explorer, false, true, {});
      }
      // Every cycle does the same work on a fresh Explorer: the first one's
      // peak is the workload's.
      if (rss_mb == 0.0) rss_mb = peak_rss_mb();
    } while (!config_.smoke && Clock::now() < deadline);
    // The pass is the workload's one request, so p50 and p99 read the same.
    const double sweep_s = median(cold_s_);
    set_end_to_end(out_, setup_s_, sweep_s, fastest(warm_s_), 1, {sweep_s * 1e3}, rss_mb);
    out_.notes.set("cold_passes", static_cast<std::uint64_t>(cold_s_.size()));
    out_.notes.set("warm_passes", static_cast<std::uint64_t>(warm_s_.size()));
  }

  isex::PortfolioReport traced_pass(const isex::Explorer& explorer, bool cold,
                                    LayerTotals& totals) {
    std::map<std::string, Clock::time_point> at;
    isex::RunHooks hooks;
    hooks.on_phase = [&](const std::string& phase, const isex::Json&) { at[phase] = Clock::now(); };
    const auto t0 = Clock::now();
    isex::PortfolioReport report = pass(explorer, cold, true, hooks);
    const auto t1 = Clock::now();
    const std::string id = cold ? "cold" : "warm";
    const std::uint64_t span = tracer_.record("portfolio", t0, t1, 0, id);
    tracer_.record("extract", t0, at.at("extracted"), span, id);
    tracer_.record("identify_select", at.at("extracted"), at.at("identified"), span, id);
    tracer_.record("report_cuts", at.at("identified"), at.at("selected"), span, id);
    tracer_.record("emit", at.at("selected"), t1, span, id);
    totals.add_report(report.cache, report.timings);
    return report;
  }

  void run_traced() {
    warm_up();
    const auto deadline = Clock::now() + std::chrono::duration<double>(config_.seconds);
    double untraced_s = 0.0;
    {
      const isex::Explorer explorer;
      pass(explorer, true, true, {});
      untraced_s = cold_s_.back();
    }
    std::vector<Metrics> per_pass;
    std::uint64_t warm_misses = 0;
    do {
      LayerTotals totals;
      const isex::Explorer explorer;
      const isex::PortfolioReport cold = traced_pass(explorer, true, totals);
      const double traced_s = cold_s_.back();
      totals.emit_ms = cold.timings.emit_ms;
      for (const isex::ArtifactReport& a : cold.emission.artifacts) {
        totals.artifacts += 1;
        totals.emit_bytes += static_cast<double>(a.bytes);
      }
      // Rewrite verification cost: a warm pass with it minus one without.
      const isex::PortfolioReport warm = traced_pass(explorer, false, totals);
      const isex::PortfolioReport unverified =
          explorer.run_portfolio(make_request(paths_, false));
      totals.emit_verify_ms = warm.timings.emit_ms - unverified.timings.emit_ms;
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

  /// Text, extraction and selection layers replayed by direct calls.
  void probe(LayerTotals& totals, std::uint64_t* warm_misses) {
    std::vector<isex::Workload> workloads;
    for (const std::string& p : paths_) workloads.push_back(probe_text(read_file(p), totals));
    std::vector<ProbedBlocks> extracted;
    for (isex::Workload& w : workloads) extracted.push_back(probe_extract(w, totals));
    std::vector<isex::WorkloadBundle> bundles;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      isex::WorkloadBundle b;
      b.name = workloads[i].name();
      b.blocks = extracted[i].blocks;
      b.base_cycles = extracted[i].base_cycles;
      bundles.push_back(b);
    }
    const isex::MultiExplorationRequest r = make_request(paths_, true);
    probe_select(r.scheme, bundles, r.constraints, r.num_instructions, isex::serial_executor(),
                 0, totals, warm_misses);
  }

  const RunConfig& config_;
  Tracer& tracer_;
  Outcome out_;
  std::vector<std::string> paths_;
  std::string reference_;
  std::vector<double> setup_s_, cold_s_, warm_s_;
  CpuRotation cpus_;
};

}  // namespace

Outcome run_corpus(const RunConfig& config, Tracer& tracer) {
  return CorpusRun(config, tracer).run();
}

}  // namespace perfbench
