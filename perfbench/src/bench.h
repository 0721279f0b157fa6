#pragma once
// Shared types of the repository benchmark: options, the per-run result,
// and small statistics helpers.
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Where traces and full results go, relative to the checkout root.
inline constexpr const char* kOutDir = ".bench_out";

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The service-level limits, read from perfbench/config.json.
struct Limits {
  double ttft_ms = 0.0;        // slo.ttft_ms
  double tpot_ms = 0.0;        // slo.tpot_ms
  double first_step_ms = 0.0;  // pretrain_slo.first_step_ms
  double step_ms = 0.0;        // pretrain_slo.step_ms
};

/// Fixed sizes of the workloads and their set-up.
inline constexpr int kSetupRepeats = 9;  // setup_s is the median set-up

// Serving deployment.
inline constexpr std::int64_t kMaxSeq = 320;
inline constexpr std::int64_t kMaxBatch = 8;
inline constexpr std::size_t kKvSlots = 8;
inline constexpr std::size_t kPrefixCacheBytes = 8u << 20;

// multiturn.
inline constexpr std::int64_t kSystemTokens = 96;
inline constexpr std::int64_t kUserTokensMin = 8, kUserTokensMax = 16;
inline constexpr std::int64_t kReplyTokensMin = 8, kReplyTokensMax = 16;
inline constexpr int kTurns = 6;
inline constexpr std::size_t kSessionsPerUser = 3;
inline constexpr double kThinkMsMean = 100.0;  // exponential pause before a turn
inline constexpr int kFullHistoryChecks = 16;

// pretrain.
inline constexpr std::uint64_t kCorpusSeed = 1;
inline constexpr std::size_t kMaterials = 200;
inline constexpr double kCorpusScale = 1e-6;
inline constexpr std::int32_t kPretrainVocab = 512;
inline constexpr std::int64_t kPretrainSteps = 4;
inline constexpr std::int64_t kPretrainBatch = 8;
inline constexpr std::int64_t kPretrainSeq = 32;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Limits limits;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `e2e` and `layer` are filled by the workload;
/// main() prints the set the --trace flag selects.
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t succeeded = 0;
  std::int64_t failed = 0;
  /// Output mismatches against the in-process reference (each is also
  /// counted in `failed`).
  std::int64_t mismatches = 0;
  std::int64_t checked = 0;
  /// Reasons the run is invalid beyond failed operations.
  std::vector<std::string> errors;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  /// Extra diagnostics written to the full-result file.
  matgpt::net::Json extra = matgpt::net::Json::object();
};

/// Linear-interpolated quantile (q in [0, 1]); NaN-free input required.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// CPU time of the process so far, every thread, in seconds. Time the
/// host stole from a vCPU and time a thread spent waiting are not in it.
double process_cpu_s();

/// Repeated set-ups. setup_s is the median CPU time: on a shared VM the
/// host runs a varying share of the vCPUs, which moved the wall time of
/// set-up (model init, a warm-up served over several threads) by a third
/// between runs of the same code. The wall median goes to the full result.
struct SetupTimes {
  std::vector<double> cpu_s;
  std::vector<double> wall_s;
  double median_s() const { return median(cpu_s); }
  /// Run one set-up and record its times.
  template <typename SetUp>
  void time(SetUp&& set_up) {
    const auto wall0 = Clock::now();
    const double cpu0 = process_cpu_s();
    set_up();
    cpu_s.push_back(process_cpu_s() - cpu0);
    wall_s.push_back(seconds_since(wall0));
  }
};

RunResult run_multiturn(const Options& opt);
RunResult run_pretrain(const Options& opt);

}  // namespace perfbench
