// Section 8 runtime claim: "in all but extreme cases it took only some
// seconds". Google-benchmark timings of single-cut identification vs. graph
// size and output constraint, plus whole-application iterative selection
// through the Explorer pipeline — including its thread-pool scaling and the
// ResultCache's cold-vs-warm sweep behaviour.
#include <benchmark/benchmark.h>

#include "api/explorer.hpp"
#include "dfg/random_dag.hpp"

namespace {

using namespace isex;

const Explorer& explorer() {
  static const Explorer ex;
  return ex;
}

Dfg synthetic(int n) {
  RandomDagConfig cfg;
  cfg.num_ops = n;
  cfg.num_inputs = 6;
  cfg.avg_fanin = 1.9;
  cfg.forbidden_fraction = 0.05;
  cfg.seed = static_cast<std::uint64_t>(n) * 1337;
  return random_dag(cfg);
}

void BM_SingleCut_Synthetic(benchmark::State& state) {
  const Dfg g = synthetic(static_cast<int>(state.range(0)));
  Constraints cons;
  cons.max_inputs = 1 << 20;
  cons.max_outputs = static_cast<int>(state.range(1));
  std::uint64_t considered = 0;
  for (auto _ : state) {
    // use_cache=false: this bench measures the enumeration itself; a memo
    // hit after iteration 1 would collapse the scaling curves to noise.
    const SingleCutResult r = explorer().identify(g, cons, /*use_cache=*/false);
    considered = r.stats.cuts_considered;
    benchmark::DoNotOptimize(r.merit);
  }
  state.counters["cuts_considered"] = static_cast<double>(considered);
}
BENCHMARK(BM_SingleCut_Synthetic)
    ->ArgsProduct({{16, 32, 64, 100}, {1, 2}})
    ->Unit(benchmark::kMillisecond);

void BM_SingleCut_AdpcmDecodeBody(benchmark::State& state) {
  Workload w = find_workload("adpcmdecode");
  w.preprocess();
  const std::vector<Dfg> graphs = w.extract_dfgs();
  const Dfg* body = nullptr;
  for (const Dfg& g : graphs) {
    if (body == nullptr || g.candidates().size() > body->candidates().size()) body = &g;
  }
  Constraints cons;
  cons.max_inputs = static_cast<int>(state.range(0));
  cons.max_outputs = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(explorer().identify(*body, cons, /*use_cache=*/false).merit);
  }
}
BENCHMARK(BM_SingleCut_AdpcmDecodeBody)
    ->Args({2, 1})
    ->Args({4, 2})
    ->Args({8, 4})
    ->Unit(benchmark::kMillisecond);

// Identification + selection only (request.graphs): pre-extracted graphs,
// with the per-block searches spread over `threads` workers.
void BM_IterativeSelection_Fig11Benchmarks(benchmark::State& state) {
  std::vector<ExplorationRequest> requests;
  for (Workload& w : fig11_workloads()) {
    w.preprocess();
    ExplorationRequest& request = requests.emplace_back();
    request.graphs = w.extract_dfgs();
    request.scheme = "iterative";
    request.constraints.max_inputs = 4;
    request.constraints.max_outputs = 2;
    request.constraints.branch_and_bound = true;
    request.constraints.prune_permanent_inputs = true;
    request.num_instructions = 16;
    request.use_cache = false;  // time the searches, not memo hits
    request.num_threads = static_cast<int>(state.range(0));
  }
  for (auto _ : state) {
    double total = 0;
    for (const ExplorationRequest& request : requests) {
      total += explorer().run(request).total_merit;
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_IterativeSelection_Fig11Benchmarks)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Full constraint sweep (profile + extract + identify + select per cell)
// through one Explorer, cold vs. warm: arg 0 opts every request out of the
// ResultCache, arg 1 runs through it. Warm iterations hit the extraction
// cache on every cell and the identification memo after the first sweep, so
// the warm/cold ratio is the headline speedup of the caching layer; the
// selections are byte-identical (asserted in tests/cache/).
void BM_ConstraintSweep_ColdVsWarm(benchmark::State& state) {
  const bool use_cache = state.range(0) != 0;
  Workload w = find_workload("crc32");
  const Explorer ex;  // local cache so cold runs are not polluted by others
  ExplorationRequest request;
  request.scheme = "iterative";
  request.num_instructions = 16;
  request.use_cache = use_cache;
  double total = 0;
  const auto sweep = [&] {
    double merit = 0;
    for (const int nin : {2, 3, 4, 8}) {
      for (const int nout : {1, 2}) {
        request.constraints.max_inputs = nin;
        request.constraints.max_outputs = nout;
        merit += ex.run(w, request).total_merit;
      }
    }
    return merit;
  };
  // Prime the warm arm outside the timed loop: google-benchmark re-invokes
  // this function with a fresh Explorer, and the first sweep is by
  // definition cold — it must not dilute the warm mean.
  if (use_cache) benchmark::DoNotOptimize(sweep());
  for (auto _ : state) {
    total += sweep();
    benchmark::DoNotOptimize(total);
  }
  const CacheCounters c = ex.cache().counters();
  state.counters["cache_hits"] = static_cast<double>(c.hits);
  state.counters["dfg_hits"] = static_cast<double>(c.dfg_hits);
}
BENCHMARK(BM_ConstraintSweep_ColdVsWarm)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
