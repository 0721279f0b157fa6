#pragma once
// Host stamp for every run: the cores the process may use, the CPU model
// and ISA, and the CPU steal time over the timed window — so a reader can
// tell a noisy run from a slow program.
#include <cstdint>
#include <string>

#include "net/json.h"

namespace perfbench {

struct HostStamp {
  int nproc = 1;         // CPUs in the affinity mask
  std::string affinity;  // e.g. "0-3"
  std::string cpu_model;
  std::string isa;       // space-separated subset of /proc/cpuinfo flags
  matgpt::net::Json to_json() const;
};

HostStamp read_host();

/// CPU steal over an interval, from the aggregate "cpu" line of /proc/stat.
class StealMeter {
 public:
  StealMeter() { start(); }
  void start();
  /// Steal share of all CPU time since start() (0 when /proc/stat is
  /// unreadable).
  double steal_frac() const;

 private:
  struct Sample {
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
  };
  static Sample read();
  Sample start_;
};

/// Peak resident set size (VmHWM) in MiB; 0 when unavailable.
double read_peak_rss_mb();

}  // namespace perfbench
