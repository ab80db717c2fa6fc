// Robustness harness for cache snapshots: a daemon warm-starts from a file
// that a crash, a bit flip or a hostile hand may have corrupted, so seeded
// corruptions of a real saved snapshot must either load or throw
// isex::Error — the only failure ResultStore knows how to quarantine. Any
// other escape (a crash, std::bad_alloc, a wild write) is the bug class
// this test exists to catch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "cache/result_cache.hpp"
#include "dfg/random_dag.hpp"
#include "support/rng.hpp"

namespace isex {
namespace {

/// Snapshot text of a cache holding single-cut and multi-cut entries, read
/// back from the file save_file() wrote.
std::string saved_snapshot() {
  const LatencyModel latency = LatencyModel::standard_018um();
  Constraints constraints;
  constraints.max_inputs = 4;
  constraints.max_outputs = 2;
  ResultCache cache;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RandomDagConfig cfg;
    cfg.num_ops = 10;
    cfg.seed = seed;
    const Dfg g = random_dag(cfg);
    cache.single_cut(g, latency, constraints);
    cache.multi_cut(g, latency, constraints, 2);
  }
  const std::string path = testing::TempDir() + "isex_snapshot_mutation.json";
  cache.save_file(path);
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  return text.str();
}

/// Offsets of every integer literal in `text` (a leading '-' included).
std::vector<std::pair<std::size_t, std::size_t>> integer_spans(const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (std::size_t i = 0; i < text.size();) {
    const bool starts = std::isdigit(static_cast<unsigned char>(text[i])) &&
                        (i == 0 || (text[i - 1] != '.' && text[i - 1] != '"' &&
                                    !std::isalnum(static_cast<unsigned char>(text[i - 1]))));
    if (!starts) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < text.size() && std::isdigit(static_cast<unsigned char>(text[end]))) ++end;
    if (end < text.size() && (text[end] == '.' || text[end] == 'e' || text[end] == 'E')) {
      i = end;  // part of a floating-point literal
      continue;
    }
    const std::size_t begin = i > 0 && text[i - 1] == '-' ? i - 1 : i;
    spans.emplace_back(begin, end - begin);
    i = end;
  }
  return spans;
}

/// Applies one seeded corruption; the kind and coordinates all derive from
/// `rng`, so a failing seed reproduces exactly. Besides the byte-level
/// damage of a torn or flipped file, half the mutants overwrite one integer
/// (a size, a bit index, a cut count, a constraint) with a hostile value.
std::string mutate(const std::string& base, Rng& rng) {
  static const char* const kHostile[] = {"-1",         "-64",        "0",
                                         "9",          "1048577",    "2147483648",
                                         "4294967296", "9223372036854775807"};
  std::string text = base;
  const auto pick_offset = [&] {
    return static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(text.size()) - 1));
  };
  switch (rng.uniform(0, 7)) {
    case 0:  // truncate
      text.resize(pick_offset());
      break;
    case 1: {  // flip a bit
      const std::size_t at = pick_offset();
      text[at] = static_cast<char>(text[at] ^ (1 << rng.uniform(0, 7)));
      break;
    }
    case 2: {  // splice a chunk of the document over another location
      const std::size_t from = pick_offset();
      const std::size_t to = pick_offset();
      const std::size_t len = static_cast<std::size_t>(rng.uniform(1, 64));
      text = text.substr(0, to) + text.substr(from, len) +
             text.substr(std::min(text.size(), to + len));
      break;
    }
    case 3: {  // delete a span
      const std::size_t at = pick_offset();
      text.erase(at, static_cast<std::size_t>(rng.uniform(1, 32)));
      break;
    }
    default: {  // overwrite one integer with a hostile value
      const auto spans = integer_spans(text);
      const auto& [at, len] =
          spans[static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(spans.size()) - 1))];
      const auto pick = rng.uniform(0, static_cast<std::int64_t>(std::size(kHostile)) - 1);
      text.replace(at, len, kHostile[pick]);
      break;
    }
  }
  return text;
}

TEST(SnapshotMutation, CorruptedSnapshotsLoadOrThrowError) {
  const std::string base = saved_snapshot();
  ASSERT_NE(base.find("\"size\""), std::string::npos);
  ASSERT_NE(base.find("\"multi\""), std::string::npos);
  int loaded = 0;
  int rejected = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    const std::string text = mutate(base, rng);
    ResultCache cache;
    try {
      cache.merge_json(Json::parse(text));
      ++loaded;
    } catch (const Error&) {
      ++rejected;
      EXPECT_EQ(cache.num_entries(), 0u) << "seed " << seed << ": partial merge";
    } catch (const std::exception& e) {
      FAIL() << "seed " << seed << ": non-isex::Error escaped the loader: " << e.what();
    }
  }
  // Both outcomes occur, so the harness exercises the loader, not just the
  // JSON parser.
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace isex
