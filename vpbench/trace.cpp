#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace vpbench {

namespace {

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::int64_t Tracer::next_id() {
  if (!enabled_) return 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(Span span) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::int64_t Tracer::record(std::string name, std::string layer, Clock::time_point start,
                            Clock::time_point end, std::int64_t parent, std::int64_t iter,
                            int tid) {
  if (!enabled_) return 0;
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.start = start;
  s.end = end;
  s.parent = parent;
  s.iter = iter;
  s.tid = tid;
  s.id = next_id();
  const std::int64_t id = s.id;
  record(std::move(s));
  return id;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::string Tracer::chrome_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"traceEvents\": [\n";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += "{\"name\": \"" + json_escape(s.name) + "\", \"cat\": \"" + json_escape(s.layer) + "\", ";
    std::snprintf(buf, sizeof(buf),
                  "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": %d, "
                  "\"args\": {\"id\": %lld, \"parent\": %lld, \"iter\": %lld}}",
                  us_between(origin_, s.start), us_between(s.start, s.end), s.tid,
                  static_cast<long long>(s.id), static_cast<long long>(s.parent),
                  static_cast<long long>(s.iter));
    out += buf;
    out += i + 1 < spans_.size() ? ",\n" : "\n";
  }
  out += "], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

std::vector<RollupRow> Tracer::rollup() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::int64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) children[s.parent].push_back(&s);

  std::map<std::string, RollupRow> rows;
  for (const Span& s : spans_) {
    // Union of the child intervals clipped to this span: children on
    // different threads may overlap one another.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const auto a = std::max(c->start, s.start);
        const auto b = std::min(c->end, s.end);
        if (a < b) iv.emplace_back(a, b);
      }
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    for (std::size_t i = 0; i < iv.size();) {
      auto lo = iv[i].first;
      auto hi = iv[i].second;
      for (++i; i < iv.size() && iv[i].first <= hi; ++i) hi = std::max(hi, iv[i].second);
      covered += us_between(lo, hi);
    }
    RollupRow& row = rows[s.name];
    row.name = s.name;
    row.layer = s.layer;
    row.count += 1;
    const double total = us_between(s.start, s.end);
    row.total_us += total;
    row.self_us += total - covered;
  }
  std::vector<RollupRow> out;
  for (auto& [name, row] : rows) out.push_back(std::move(row));
  std::sort(out.begin(), out.end(),
            [](const RollupRow& a, const RollupRow& b) { return a.self_us > b.self_us; });
  return out;
}

ScopedSpan::ScopedSpan(Tracer& tracer, std::string name, std::string layer,
                       std::int64_t parent, std::int64_t iter)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  span_.name = std::move(name);
  span_.layer = std::move(layer);
  span_.parent = parent;
  span_.iter = iter;
  span_.id = tracer_.next_id();
  span_.start = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (!tracer_.enabled()) return;
  span_.end = Clock::now();
  tracer_.record(std::move(span_));
}

}  // namespace vpbench
