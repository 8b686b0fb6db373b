#include "spans.hpp"

#include "common.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::size_t> t_open;

void append_number(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  *out += buf;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Span::Span(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ != nullptr) index_ = tracer_->open(name);
}

Tracer::Span::~Span() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

Tracer::Tracer(bool enabled, std::uint64_t run_id)
    : enabled_(enabled), run_id_(run_id) {}

std::size_t Tracer::open(const char* name) {
  Record r;
  r.name = name;
  r.tid = thread_index();
  r.parent = t_open.empty() ? -1 : static_cast<std::int64_t>(t_open.back());
  r.start_s = now_s();
  const std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(r));
  t_open.push_back(records_.size() - 1);
  return records_.size() - 1;
}

void Tracer::close(std::size_t index) {
  const double end = now_s();
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
  const std::lock_guard<std::mutex> lock(mu_);
  Record& r = records_[index];
  r.end_s = end;
  if (r.parent >= 0) {
    records_[static_cast<std::size_t>(r.parent)].child_s += end - r.start_s;
  }
}

void Tracer::counter(const std::string& name, double value) {
  if (!enabled_) return;
  const double at = now_s();
  const std::lock_guard<std::mutex> lock(mu_);
  counters_.push_back({name, at, value});
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::map<std::string, SpanTotals> out;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Record& r : records_) {
    if (r.end_s < r.start_s) continue;
    SpanTotals& t = out[r.name];
    const double dur = r.end_s - r.start_s;
    ++t.count;
    t.total_s += dur;
    t.self_s += dur - r.child_s;
  }
  return out;
}

std::string Tracer::chrome_events_json() const {
  const std::string pid = std::to_string(::getpid());
  const std::string run = std::to_string(run_id_);
  std::string out = "[";
  bool first = true;
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_s < r.start_s) continue;
    if (!first) out += ",\n";
    first = false;
    out += "{\"ph\":\"X\",\"cat\":\"perfbench\",\"name\":" + json_quote(r.name);
    out += ",\"pid\":" + pid + ",\"tid\":" + std::to_string(r.tid) + ",\"ts\":";
    append_number(&out, r.start_s * 1e6);
    out += ",\"dur\":";
    append_number(&out, (r.end_s - r.start_s) * 1e6);
    out += ",\"args\":{\"id\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(r.parent) + ",\"run\":" + run +
           ",\"self_us\":";
    append_number(&out, (r.end_s - r.start_s - r.child_s) * 1e6);
    out += "}}";
  }
  for (const CounterSample& c : counters_) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"ph\":\"C\",\"cat\":\"perfbench\",\"name\":" + json_quote(c.name);
    out += ",\"pid\":" + pid + ",\"ts\":";
    append_number(&out, c.at_s * 1e6);
    out += ",\"args\":{\"value\":";
    append_number(&out, c.value);
    out += "}}";
  }
  out += "]";
  return out;
}

}  // namespace perfbench
