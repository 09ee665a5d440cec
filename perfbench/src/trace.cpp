#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

std::string spanLayer(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? "bench" : name.substr(0, dot);
}

double selfTimeUs(const Span& span, const std::vector<const Span*>& children) {
  std::vector<std::pair<double, double>> iv;
  iv.reserve(children.size());
  for (const Span* c : children) {
    const double a = std::max(c->start_us, span.start_us);
    const double b = std::min(c->end_us, span.end_us);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0.0;
  double cur_a = 0.0;
  double cur_b = -1.0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) covered += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) covered += cur_b - cur_a;
  return (span.end_us - span.start_us) - covered;
}

std::map<std::string, double> selfTimeByLayerUs(const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> out;
  static const std::vector<const Span*> kNone;
  for (const Span& s : spans) {
    const auto it = children.find(s.id);
    out[spanLayer(s.name)] += selfTimeUs(s, it == children.end() ? kNone : it->second);
  }
  return out;
}

std::int64_t Tracer::add(std::string name, std::int64_t parent, Clock::time_point start,
                         Clock::time_point end, std::uint64_t track, bool reported) {
  return addUs(std::move(name), parent, us(start), us(end), track, reported);
}

std::int64_t Tracer::addUs(std::string name, std::int64_t parent, double start_us,
                           double end_us, std::uint64_t track, bool reported) {
  Span s;
  s.name = std::move(name);
  s.id = static_cast<std::int64_t>(spans_.size());
  s.parent = parent;
  s.start_us = start_us;
  s.end_us = end_us;
  s.track = track;
  s.reported = reported;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::int64_t Tracer::open(std::string name, std::int64_t parent, Clock::time_point start,
                          std::uint64_t track) {
  return add(std::move(name), parent, start, start, track);
}

void Tracer::close(std::int64_t id, Clock::time_point end) {
  spans_.at(static_cast<std::size_t>(id)).end_us = us(end);
}

void Tracer::writeChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace file " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Span names are benchmark-chosen identifiers: no JSON escaping needed.
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%lld%s}}%s\n",
                 s.name.c_str(), spanLayer(s.name).c_str(),
                 static_cast<unsigned long long>(s.track), s.start_us, s.end_us - s.start_us,
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 s.reported ? ",\"reported_by\":\"server\"" : "",
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace perfbench
