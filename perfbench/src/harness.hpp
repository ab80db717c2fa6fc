// Shared machinery of the isex benchmark program: clocks and order
// statistics, the in-memory span tracer, the timing Executor that measures
// identification work from outside the library, the metric sink, and the
// outcome every workload hands back to main().
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "support/parallel.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }
double mean(const std::vector<double>& xs);

/// The smallest sample, for passes of a few milliseconds: their median
/// measures how long the host keeps the benchmark's threads waiting, their
/// fastest what the program itself costs.
inline double fastest(std::vector<double> xs) { return quantile(std::move(xs), 0.0); }

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();

/// Deterministic generator for everything a seed decides.
using Rng = std::mt19937_64;

/// Command-line settings of one run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// One pass per phase and short set-up, for the self-test.
  bool smoke = false;
  /// Write the fig11/wide digest files instead of checking against them.
  bool record = false;
  std::string expected_dir = "perfbench/expected";
  /// Scratch space inside the checkout (corpus files, sockets, run records).
  std::string work_dir = ".bench_build/perfbench/work";
};

/// In-memory span recorder: name, start, end, parent span and request id.
/// Thread-safe; a disabled tracer records nothing and costs one branch.
/// Keeps the first kMaxSpans spans and counts the rest as dropped, so a
/// long traced run's record stays small.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Opens a span and returns its id (0 when disabled).
  std::uint64_t open(const std::string& name, std::uint64_t parent = 0,
                     const std::string& request = {});
  void close(std::uint64_t id);
  /// Records an already-finished span from two clock readings.
  std::uint64_t record(const std::string& name, Clock::time_point start, Clock::time_point end,
                       std::uint64_t parent = 0, const std::string& request = {});
  /// Self time of every span name (duration minus the time its child spans
  /// cover), in ms, summed over spans of that name.
  isex::Json self_times_json() const;
  isex::Json to_json() const;
  std::uint64_t dropped() const;

  static constexpr std::size_t kMaxSpans = 20000;

 private:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::string name;
    std::string request;
    double start_us = 0.0;
    double end_us = -1.0;
  };
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  /// Appends `s` (id assigned here) unless the cap is reached; returns its
  /// id or 0. Caller holds mu_.
  std::uint64_t push_locked(Span s);

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Executor decorator that times every parallel_for it forwards. A call
/// issued from outside any item is level 0 (in a scheme: the per-block
/// identification loop; in a direct find_best_cut: its subtree tasks); a
/// call issued from inside an item is level 1 (subtree tasks under a
/// per-block loop). Each call keeps its wall time, its items' durations and
/// its threads' busy times, from which task balance is derived.
class TimingExecutor : public isex::Executor {
 public:
  struct Call {
    int level = 0;
    double wall_ms = 0.0;
    std::vector<double> item_ms;
    /// Busy time of the busiest thread, and the mean busy time over all
    /// num_threads() threads (idle ones count as 0): their ratio is the
    /// call's load imbalance, 1.0 when every thread worked equally long.
    double busiest_ms = 0.0;
    double mean_thread_ms = 0.0;
  };

  explicit TimingExecutor(isex::Executor& inner) : inner_(inner) {}

  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) override;
  int num_threads() const override { return inner_.num_threads(); }

  /// Every call so far (copy; safe once the timed work has returned).
  std::vector<Call> calls() const;
  /// Wall time of the level-0 calls, ms.
  double level0_wall_ms() const;

 private:
  isex::Executor& inner_;
  mutable std::mutex mu_;
  std::vector<Call> calls_;
};

/// Moves the calling thread across the CPUs it may run on, one slot at a
/// time, and restores its original CPU set on destruction. Serial workloads
/// use it so that a run samples every CPU instead of the one the scheduler
/// happened to pick: on a shared host, neighbouring load makes CPUs differ
/// in speed for tens of seconds at a time.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to CPU number `slot` modulo the CPU count.
  void pin(std::size_t slot);
  /// Gives the calling thread back the CPU set it had at construction.
  void restore();
  std::size_t size() const { return cpus_.size(); }

 private:
  std::vector<int> cpus_;
  std::vector<unsigned char> original_;  // the cpu_set_t bytes
};

/// Set-up samples: runs `setup` `rounds` times on every CPU of `cpus` in
/// turn, and returns every run's wall time in seconds (rounds x CPUs
/// samples). The calling thread's original CPU set is restored
/// afterwards.
std::vector<double> rotated_setup_s(CpuRotation& cpus, int rounds,
                                    const std::function<void()>& setup);

/// Ordered name -> (value, unit) sink for one result line.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  double get(const std::string& name) const;
  isex::Json to_json() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// What a workload run reports back.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  /// Free-form facts for the run record (sample counts, pass counts, ...).
  isex::Json notes = isex::Json::object();
  /// First few failure descriptions, for stderr.
  std::vector<std::string> failures;

  void fail(const std::string& what);
};

/// One check of a traced run: select.*_ms is a selection cost with no
/// search in it only if the warm select found every identification in the
/// memo, so any of the `warm_misses` probe_select counted is a failure.
void check_warm_select(Outcome& out, std::uint64_t warm_misses);

/// Per-layer metric names every traced run emits (zero where the workload
/// does not exercise the layer), with their units.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

/// Fills every per-layer metric not yet set with 0, so each traced run
/// carries the full named set.
void complete_layer_metrics(Metrics& m);

/// Workload entry points.
Outcome run_fig11(const RunConfig& config, Tracer& tracer);
Outcome run_wide(const RunConfig& config, Tracer& tracer);
Outcome run_corpus(const RunConfig& config, Tracer& tracer);
Outcome run_service(const RunConfig& config, Tracer& tracer);

/// Adds the end-to-end metrics every workload shares: setup_s as the median
/// of its samples, sweep_s and warm_sweep_s as given, rps as
/// `requests_per_pass` over sweep_s, latency_p50_ms/latency_p99_ms as
/// quantiles of `latency_ms`, and peak_rss_mb as `rss_mb`, a peak_rss_mb()
/// reading the workload takes after a fixed amount of work (so it does not
/// grow with throughput). Sample counts go into the notes.
void set_end_to_end(Outcome& out, const std::vector<double>& setup_s, double sweep_s,
                    double warm_sweep_s, std::size_t requests_per_pass,
                    const std::vector<double>& latency_ms, double rss_mb);

}  // namespace perfbench
