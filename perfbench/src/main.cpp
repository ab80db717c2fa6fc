// isex_perfbench: runs one benchmark workload and prints its metrics.
//
//   isex_perfbench --workload fig11|wide|corpus|service --seed N --seconds S
//                  --trace 0|1 [--smoke] [--record] [--expected-dir DIR]
//                  [--work-dir DIR] [--commit TEXT]
//
// --trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones.
// The last stdout line is the result object {correct, attempted, failed,
// metrics}; the full run record (environment, notes, spans) is written to
// <work-dir>/runs/. Exit status: 0 when every output check passed, 1 when
// some failed, 2 on a usage or set-up error (no result line).
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "support/assert.hpp"

namespace {

using perfbench::RunConfig;

int usage() {
  std::cerr << "usage: isex_perfbench --workload fig11|wide|corpus|service --seed N\n"
               "                      --seconds S --trace 0|1 [--smoke] [--record]\n"
               "                      [--expected-dir DIR] [--work-dir DIR] [--commit TEXT]\n";
  return 2;
}

isex::Json environment(const RunConfig& config, const std::string& commit) {
  isex::Json env = isex::Json::object();
  env.set("build_type", std::string(PERFBENCH_BUILD_TYPE));
  env.set("compiler", std::string(PERFBENCH_COMPILER));
  env.set("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  env.set("hardware_concurrency",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  env.set("commit", commit);
  env.set("workload", config.workload);
  env.set("seed", config.seed);
  env.set("seconds", config.seconds);
  env.set("trace", config.trace);
  env.set("smoke", config.smoke);
  return env;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string commit = "unknown";
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw isex::Error("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--workload") {
        config.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value());
      } else if (arg == "--trace") {
        config.trace = value() != "0";
      } else if (arg == "--smoke") {
        config.smoke = true;
      } else if (arg == "--record") {
        config.record = true;
      } else if (arg == "--expected-dir") {
        config.expected_dir = value();
      } else if (arg == "--work-dir") {
        config.work_dir = value();
      } else if (arg == "--commit") {
        commit = value();
      } else {
        throw isex::Error("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return usage();
  }
  if (!have_workload) return usage();

  perfbench::Tracer tracer(config.trace);
  perfbench::Outcome out;
  try {
    std::filesystem::create_directories(config.work_dir);
    if (config.workload == "fig11") {
      out = perfbench::run_fig11(config, tracer);
    } else if (config.workload == "wide") {
      out = perfbench::run_wide(config, tracer);
    } else if (config.workload == "corpus") {
      out = perfbench::run_corpus(config, tracer);
    } else if (config.workload == "service") {
      out = perfbench::run_service(config, tracer);
    } else {
      std::cerr << "unknown workload '" << config.workload
                << "' (fig11, wide, corpus, service)\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << config.workload << " failed: " << e.what() << "\n";
    return 2;
  }

  for (const std::string& f : out.failures) std::cerr << "check failed: " << f << "\n";

  const isex::Json metrics = out.metrics.to_json();
  isex::Json record = isex::Json::object();
  record.set("environment", environment(config, commit));
  record.set("attempted", out.attempted);
  record.set("failed", out.failed);
  record.set("notes", out.notes);
  record.set("metrics", metrics);
  if (tracer.enabled()) {
    record.set("spans", tracer.to_json());
    record.set("spans_dropped", tracer.dropped());
  }
  const std::filesystem::path runs = std::filesystem::path(config.work_dir) / "runs";
  std::filesystem::create_directories(runs);
  const std::filesystem::path record_path =
      runs / (config.workload + "-seed" + std::to_string(config.seed) + "-trace" +
              (config.trace ? "1" : "0") + ".json");
  std::ofstream(record_path) << record.dump(1) << "\n";

  std::cout << "environment " << record.at("environment").dump() << "\n";
  std::cout << "notes " << out.notes.dump() << "\n";
  for (const auto& [name, m] : metrics.as_object()) {
    std::cout << "  " << name << " = " << m.at("value").dump() << " "
              << m.at("unit").as_string() << "\n";
  }
  std::cout << "run record: " << record_path.string() << "\n";

  isex::Json result = isex::Json::object();
  result.set("correct", out.failed == 0);
  result.set("attempted", out.attempted);
  result.set("failed", out.failed);
  result.set("metrics", metrics);
  std::cout << result.dump() << std::endl;
  return out.failed == 0 ? 0 : 1;
}
