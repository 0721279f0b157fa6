#include "trace.h"

#include <cstring>
#include <fstream>

#include "common/error.h"

namespace perfbench {

std::vector<const Span*> Tracer::find(const char* name) const {
  std::vector<const Span*> out;
  for (const Lane& lane : lanes_) {
    for (const Span& s : lane.spans()) {
      if (std::strcmp(s.name, name) == 0) out.push_back(&s);
    }
  }
  return out;
}

std::size_t Tracer::span_count() const {
  std::size_t n = 0;
  for (const Lane& lane : lanes_) n += lane.spans().size();
  return n;
}

void Tracer::write_chrome(const std::string& path,
                          const std::string& process) const {
  std::ofstream os(path);
  MGPT_CHECK(os.is_open(), "cannot write trace " << path);
  auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  };
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\""
     << process << "\"}}";
  for (const Lane& lane : lanes_) {
    os << ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":"
       << lane.tid() << ",\"args\":{\"name\":\"" << lane.name() << "\"}}";
  }
  os.precision(3);
  os << std::fixed;
  for (const Lane& lane : lanes_) {
    for (const Span& s : lane.spans()) {
      os << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << lane.tid()
         << ",\"cat\":\"" << s.cat << "\",\"name\":\"" << s.name
         << "\",\"ts\":" << us(s.start) << ",\"dur\":" << us(s.end) - us(s.start)
         << ",\"args\":{\"id\":" << s.id;
      if (s.arg_name != nullptr) os << ",\"" << s.arg_name << "\":" << s.arg;
      os << "}}";
    }
  }
  os << "\n]}\n";
  MGPT_CHECK(os.good(), "failed writing trace " << path);
}

}  // namespace perfbench
