#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

namespace perfbench {

int SpanLog::add(std::string name, double start, double end, int parent,
                 uint64_t id, uint32_t tid) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), start, end, parent, id, tid});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::finish(int index, double end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<size_t>(index)).end = end;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size())
      kids[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);

  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = 0.0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

std::map<std::string, double> layer_self_seconds(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string& n = spans[i].name;
    out[n.substr(0, n.find('.'))] += self[i];
  }
  return out;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

std::string chrome_trace_json(const std::vector<Span>& spans,
                              const std::string& workload, uint64_t seed) {
  const std::vector<double> self = self_times(spans);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\"";
  append_escaped(out, workload);
  out += "\",\"seed\":" + std::to_string(seed) + "},\"traceEvents\":[";
  char buf[256];
  std::set<uint32_t> tids;
  bool first = true;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    tids.insert(s.tid);
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, s.name);
    std::snprintf(buf, sizeof buf,
                  "\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%d,\"self_us\":%.3f}}",
                  s.name.substr(0, s.name.find('.')).c_str(), s.tid,
                  s.start * 1e6, (s.end - s.start) * 1e6,
                  static_cast<unsigned long long>(s.id), s.parent,
                  self[i] * 1e6);
    out += buf;
  }
  for (uint32_t t : tids) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"bench thread %u\"}}",
                  first ? "" : ",", t, t);
    first = false;
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
