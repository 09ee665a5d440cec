#include "report.hpp"

#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "eclipse/media/kernels.hpp"

namespace perfbench {

namespace {

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

/// JSON string body for text from the host (CPU model, revision).
std::string escaped(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string hostFingerprint(const std::string& git_sha) {
  namespace k = eclipse::media::kernels;
  std::ostringstream os;
  os << "{\"cores\": " << std::thread::hardware_concurrency() << ", \"cpu\": \""
     << escaped(cpuModel()) << "\", \"simd\": \"" << k::backendName(k::backend())
     << "\", \"build\": \"" << PERFBENCH_BUILD_TYPE << "\", \"git_sha\": \"" << escaped(git_sha)
     << "\"}";
  return os.str();
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << jsonNumber(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

std::string metricTable(const std::string& heading, const std::vector<Metric>& metrics) {
  std::string out = heading + "\n";
  char line[160];
  for (const Metric& m : metrics) {
    std::snprintf(line, sizeof line, "  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    out += line;
  }
  return out;
}

bool checkRecord(const std::string& path, const std::string& signature, std::string& why) {
  std::ifstream in(path);
  if (in) {
    std::string recorded;
    std::getline(in, recorded);
    if (recorded == signature) return true;
    why = "simulated totals differ from an earlier run with this seed:\n  earlier: " + recorded +
          "\n  now:     " + signature;
    return false;
  }
  std::ofstream out(path);
  out << signature << '\n';
  if (!out) {
    why = "cannot write exact-repeat record " + path;
    return false;
  }
  return true;
}

}  // namespace perfbench
