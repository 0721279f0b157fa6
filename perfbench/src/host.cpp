#include "host.h"

#include <sched.h>
#include <time.h>

#include <fstream>
#include <set>
#include <sstream>
#include <vector>

namespace perfbench {

using matgpt::net::Json;

namespace {

// Flags that decide which kernels the program's runtime dispatch takes.
const char* const kIsaFlags[] = {"sse4_2",      "avx",        "avx2",
                                 "fma",         "f16c",       "avx512f",
                                 "avx512bw",    "avx512vl",   "avx512_vnni",
                                 "avx512_bf16", "amx_tile",   "amx_bf16",
                                 "amx_int8"};

std::string affinity_ranges(const cpu_set_t& set) {
  std::ostringstream os;
  int run_start = -1;
  bool first = true;
  for (int cpu = 0; cpu <= CPU_SETSIZE; ++cpu) {
    const bool in = cpu < CPU_SETSIZE && CPU_ISSET(cpu, &set);
    if (in && run_start < 0) run_start = cpu;
    if (!in && run_start >= 0) {
      if (!first) os << ",";
      first = false;
      os << run_start;
      if (cpu - 1 > run_start) os << "-" << cpu - 1;
      run_start = -1;
    }
  }
  return os.str();
}

}  // namespace

Json HostStamp::to_json() const {
  Json j = Json::object();
  j.set("nproc", Json::number(static_cast<std::int64_t>(nproc)));
  j.set("affinity", Json::string(affinity));
  j.set("cpu_model", Json::string(cpu_model));
  j.set("isa", Json::string(isa));
  return j;
}

HostStamp read_host() {
  HostStamp h;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    h.nproc = CPU_COUNT(&set);
    h.affinity = affinity_ranges(set);
  }
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  std::set<std::string> flags;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    while (!key.empty() && (key.back() == ' ' || key.back() == '\t')) {
      key.pop_back();
    }
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && h.cpu_model.empty()) h.cpu_model = value;
    if (key == "flags" && flags.empty()) {
      std::istringstream fs(value);
      std::string f;
      while (fs >> f) flags.insert(f);
    }
  }
  for (const char* f : kIsaFlags) {
    if (flags.count(f) == 0) continue;
    if (!h.isa.empty()) h.isa += " ";
    h.isa += f;
  }
  return h;
}

StealMeter::Sample StealMeter::read() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice";
  // guest time is already inside user/nice, so it is not added again.
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::vector<std::uint64_t> v(8, 0);
  Sample s;
  if (!(in >> cpu) || cpu != "cpu") return s;
  for (auto& x : v) {
    if (!(in >> x)) return s;
  }
  for (const auto x : v) s.total += x;
  s.steal = v[7];
  return s;
}

void StealMeter::start() { start_ = read(); }

double StealMeter::steal_frac() const {
  const Sample now = read();
  const std::uint64_t total = now.total - start_.total;
  return total == 0 ? 0.0
                    : static_cast<double>(now.steal - start_.steal) /
                          static_cast<double>(total);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double read_peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ls(line.substr(6));
      double kb = 0.0;
      ls >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
