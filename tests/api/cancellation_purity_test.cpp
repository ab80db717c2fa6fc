// Cancellation purity of the exploration pipeline: a token that never
// fires changes nothing, a token that fires mid-search yields a best-so-far
// report flagged partial while leaving the shared ResultCache byte-identical
// to a request that never ran — across thread counts and subtree splits —
// and a cancelled run never poisons later cache hits. All trips use the
// deterministic trip_after_polls seam, so nothing here depends on timing.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/explorer.hpp"
#include "dfg/random_dag.hpp"
#include "support/cancellation.hpp"

namespace isex {
namespace {

const LatencyModel kLat = LatencyModel::standard_018um();

Constraints cons(int nin, int nout) {
  Constraints c;
  c.max_inputs = nin;
  c.max_outputs = nout;
  return c;
}

std::vector<Dfg> random_blocks(std::uint64_t seed, int count, int num_ops) {
  std::vector<Dfg> blocks;
  for (int b = 0; b < count; ++b) {
    RandomDagConfig cfg;
    cfg.num_ops = num_ops;
    cfg.seed = seed * 131 + static_cast<std::uint64_t>(b);
    Dfg g = random_dag(cfg);
    g.set_exec_freq(1.0 + static_cast<double>(b) * 3);
    blocks.push_back(std::move(g));
  }
  return blocks;
}

ExplorationRequest blocks_request(const std::vector<Dfg>& blocks, int num_threads,
                                  int split_depth) {
  ExplorationRequest request;
  request.graphs = blocks;
  request.constraints = cons(3, 2);
  request.num_instructions = 4;
  request.scheme = "iterative";
  request.num_threads = num_threads;
  request.subtree_split_depth = split_depth;
  return request;
}

/// `report` JSON minus the sections that legitimately differ between runs
/// (wall-clock timings, warm-vs-cold cache counters).
Json comparable(const Json& payload) {
  if (payload.type() == Json::Type::array) {
    Json filtered = Json::array();
    for (const Json& element : payload.as_array()) filtered.push_back(comparable(element));
    return filtered;
  }
  if (payload.type() != Json::Type::object) return payload;
  Json filtered = Json::object();
  for (const auto& [key, value] : payload.as_object()) {
    if (key == "timings" || key == "cache") continue;
    filtered.set(key, comparable(value));
  }
  return filtered;
}

TEST(CancellationPurity, NeverFiringTokenIsByteIdenticalToNoToken) {
  const std::vector<Dfg> blocks = random_blocks(3, 5, 12);
  for (const int threads : {1, 8}) {
    const ExplorationRequest request = blocks_request(blocks, threads, 4);

    auto plain_cache = std::make_shared<ResultCache>();
    const Explorer plain(kLat, plain_cache);
    const ExplorationReport baseline = plain.run(request);
    EXPECT_FALSE(baseline.partial);

    auto token_cache = std::make_shared<ResultCache>();
    const Explorer with_token(kLat, token_cache);
    CancelToken token;  // present but never tripped
    RunHooks hooks;
    hooks.cancel = &token;
    const ExplorationReport tokened = with_token.run(request, hooks);

    EXPECT_FALSE(tokened.partial) << threads;
    EXPECT_EQ(comparable(tokened.to_json()).dump(), comparable(baseline.to_json()).dump())
        << threads;
    // Cache *bytes* only compare on the serial run: parallel identification
    // legitimately varies the memo insertion (= dump) order, never content.
    if (threads == 1) {
      EXPECT_EQ(token_cache->to_json().dump(), plain_cache->to_json().dump());
    }
  }
}

TEST(CancellationPurity, MidSearchTripLeavesTheSharedCacheUntouchedAcrossThreadCounts) {
  const std::vector<Dfg> blocks = random_blocks(7, 6, 12);
  for (const int threads : {1, 2, 8}) {
    for (const int split : {0, 4}) {
      auto cache = std::make_shared<ResultCache>();
      const Explorer explorer(kLat, cache);
      const std::string never_run = cache->to_json().dump();

      // The first poll of the run — wherever the thread schedule places it —
      // trips the token, so every identification search returns cancelled
      // and the memo layer refuses every store.
      CancelToken token;
      token.trip_after_polls(1);
      RunHooks hooks;
      hooks.cancel = &token;
      const ExplorationReport report =
          explorer.run(blocks_request(blocks, threads, split), hooks);

      const std::string label =
          "threads=" + std::to_string(threads) + " split=" + std::to_string(split);
      EXPECT_TRUE(report.partial) << label;
      EXPECT_EQ(report.partial_reason, "trip_after") << label;
      EXPECT_EQ(cache->to_json().dump(), never_run) << label;
    }
  }
}

TEST(CancellationPurity, AlreadyExpiredDeadlineYieldsAPartialReportAndAPureCache) {
  const std::vector<Dfg> blocks = random_blocks(11, 4, 10);
  auto cache = std::make_shared<ResultCache>();
  const Explorer explorer(kLat, cache);
  const std::string never_run = cache->to_json().dump();

  CancelToken token;
  token.arm_deadline_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  RunHooks hooks;
  hooks.cancel = &token;
  const ExplorationReport report =
      explorer.run(blocks_request(blocks, 1, 0), hooks);

  EXPECT_TRUE(report.partial);
  EXPECT_EQ(report.partial_reason, kReasonDeadlineExceeded);
  EXPECT_EQ(cache->to_json().dump(), never_run);
}

TEST(CancellationPurity, CancelledRunsNeverPoisonLaterCacheHits) {
  const std::vector<Dfg> blocks = random_blocks(19, 6, 12);
  const ExplorationRequest request = blocks_request(blocks, 2, 0);

  // A mid-run trip: early searches may have completed (and stored their
  // *complete* enumerations — those are valid entries), later ones return
  // cancelled best-so-far answers that must never reach the memo.
  auto cache = std::make_shared<ResultCache>();
  const Explorer explorer(kLat, cache);
  CancelToken token;
  token.trip_after_polls(200);
  RunHooks hooks;
  hooks.cancel = &token;
  const ExplorationReport cancelled = explorer.run(request, hooks);
  ASSERT_TRUE(cancelled.partial);  // 6 blocks of 12 ops demand far more polls

  // Replaying the request through the survivor cache must equal a cold run
  // on a fresh cache byte-for-byte: every entry the cancelled run left
  // behind replays its cold search exactly.
  const ExplorationReport warm = explorer.run(request);
  const Explorer fresh(kLat, std::make_shared<ResultCache>());
  const ExplorationReport cold = fresh.run(request);
  EXPECT_FALSE(warm.partial);
  EXPECT_EQ(comparable(warm.to_json()).dump(), comparable(cold.to_json()).dump());
}

TEST(CancellationPurity, PartialFlagRoundTripsThroughReportJson) {
  const std::vector<Dfg> blocks = random_blocks(23, 3, 10);
  const Explorer explorer(kLat, std::make_shared<ResultCache>());

  CancelToken token;
  token.trip_after_polls(1);
  RunHooks hooks;
  hooks.cancel = &token;
  const ExplorationReport partial =
      explorer.run(blocks_request(blocks, 1, 0), hooks);
  ASSERT_TRUE(partial.partial);
  const ExplorationReport back = ExplorationReport::from_json(partial.to_json());
  EXPECT_TRUE(back.partial);
  EXPECT_EQ(back.partial_reason, partial.partial_reason);
  EXPECT_EQ(back.to_json().dump(), partial.to_json().dump());

  // Complete reports spend no bytes on the flag and parse back untripped.
  const ExplorationReport full = explorer.run(blocks_request(blocks, 1, 0));
  EXPECT_EQ(full.to_json().find("partial"), nullptr);
  EXPECT_FALSE(ExplorationReport::from_json(full.to_json()).partial);
}

}  // namespace
}  // namespace isex
