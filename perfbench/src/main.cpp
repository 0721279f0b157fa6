// perfbench: the repository benchmark. One run of one workload:
//
//   perfbench --workload multiturn|pretrain --seed N --seconds S
//             --trace 0|1
//
// run from the checkout root (it reads BENCHMARK.json and
// perfbench/config.json there), prints a readable report, writes the full
// result (host stamp, steal time, counts, every metric) to .bench_out/,
// and ends with one JSON line
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
// (--trace 1, which also writes .bench_out/trace_<workload>.json).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.h"
#include "common/error.h"
#include "host.h"

namespace perfbench {

using matgpt::net::Json;

double quantile(std::vector<double> values, double q) {
  MGPT_CHECK(!values.empty(), "quantile of no values");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || values[lo] == values[hi]) return values[lo];
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

namespace {

Json read_json(const std::string& path) {
  std::ifstream in(path);
  MGPT_CHECK(in.is_open(), "cannot read " << path);
  std::stringstream ss;
  ss << in.rdbuf();
  return Json::parse(ss.str());
}

double config_number(const Json& config, const char* section,
                     const char* key) {
  const Json* s = config.find(section);
  const Json* v = s != nullptr ? s->find(key) : nullptr;
  MGPT_CHECK(v != nullptr && v->is_number(),
             "perfbench/config.json has no number " << section << "." << key);
  return v->as_number();
}

Limits read_limits(const std::string& path) {
  const Json config = read_json(path);
  Limits l;
  l.ttft_ms = config_number(config, "slo", "ttft_ms");
  l.tpot_ms = config_number(config, "slo", "tpot_ms");
  l.first_step_ms = config_number(config, "pretrain_slo", "first_step_ms");
  l.step_ms = config_number(config, "pretrain_slo", "step_ms");
  return l;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload multiturn|pretrain "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

int run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || opt.seconds <= 0.0 || argc % 2 == 0) {
    return usage();
  }
  opt.limits = read_limits("perfbench/config.json");
  const Json bench = read_json("BENCHMARK.json");
  std::filesystem::create_directories(kOutDir);

  const HostStamp host = read_host();
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("host: %s\n", host.to_json().dump().c_str());
  std::fflush(stdout);

  RunResult r;
  if (opt.workload == "multiturn") {
    r = run_multiturn(opt);
  } else if (opt.workload == "pretrain") {
    r = run_pretrain(opt);
  } else {
    return usage();
  }

  // The emitted set is exactly the BENCHMARK.json list for this mode;
  // per-layer metrics off this workload's path read 0.
  const char* list = opt.trace ? "per_layer" : "end_to_end";
  auto& produced = opt.trace ? r.layer : r.e2e;
  Json metrics = Json::object();
  std::vector<std::string> errors = r.errors;
  for (const Json& m : bench.find(list)->items()) {
    const std::string& name = m.find("name")->as_string();
    const std::string& unit = m.find("unit")->as_string();
    auto it = produced.find(name);
    double value = 0.0;
    if (it != produced.end()) {
      MGPT_CHECK(it->second.unit == unit, "metric " << name << " is in "
                                                    << it->second.unit
                                                    << ", BENCHMARK.json says "
                                                    << unit);
      value = it->second.value;
    } else {
      MGPT_CHECK(opt.trace, "workload produced no " << name);
    }
    if (!std::isfinite(value)) {
      errors.push_back("metric " + name + " is not finite");
      value = 0.0;
    }
    Json entry = Json::object();
    entry.set("value", Json::number(value));  // dumped with all 17 digits
    entry.set("unit", Json::string(unit));
    metrics.set(name, std::move(entry));
    std::printf("  %-28s %16.6f %s\n", name.c_str(), value, unit.c_str());
  }
  if (r.mismatches > 0) {
    errors.push_back(std::to_string(r.mismatches) + " output mismatches");
  }
  if (r.failed > 0) {
    errors.push_back(std::to_string(r.failed) + " failed operations");
  }
  if (r.checked == 0) errors.push_back("no output was checked");
  const bool correct = errors.empty();
  std::printf("requests: sent=%lld succeeded=%lld failed=%lld checked=%lld "
              "mismatches=%lld\n",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.succeeded),
              static_cast<long long>(r.failed),
              static_cast<long long>(r.checked),
              static_cast<long long>(r.mismatches));
  for (const auto& e : errors) std::printf("ERROR: %s\n", e.c_str());

  Json full = Json::object();
  full.set("workload", Json::string(opt.workload));
  full.set("seed", Json::number(static_cast<std::int64_t>(opt.seed)));
  full.set("seconds", Json::number(opt.seconds));
  full.set("trace", Json::boolean(opt.trace));
  full.set("host", host.to_json());
  full.set("correct", Json::boolean(correct));
  full.set("sent", Json::number(r.attempted));
  full.set("succeeded", Json::number(r.succeeded));
  full.set("failed", Json::number(r.failed));
  full.set("checked", Json::number(r.checked));
  full.set("mismatches", Json::number(r.mismatches));
  Json all = Json::object();
  for (const auto* set : {&r.e2e, &r.layer}) {
    for (const auto& [name, m] : *set) all.set(name, Json::number(m.value));
  }
  full.set("all_metrics", all);
  full.set("extra", r.extra);
  const std::string path = std::string(kOutDir) + "/result_" + opt.workload +
                           "_seed" +
                           std::to_string(opt.seed) + "_trace" +
                           (opt.trace ? "1" : "0") + ".json";
  std::ofstream(path) << full.dump() << "\n";
  std::printf("stamp: %s\n", r.extra.dump().c_str());

  Json result = Json::object();
  result.set("correct", Json::boolean(correct));
  result.set("attempted", Json::number(std::max<std::int64_t>(r.attempted, 1)));
  result.set("failed", Json::number(r.failed));
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
