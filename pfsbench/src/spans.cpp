#include "spans.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <tuple>

#include "harness.hpp"

namespace pfsbench {

Spans::Spans() : origin_(host_now()) {}

void Spans::sim_span(const char* cat, const char* name, int rank, std::uint64_t request,
                     double begin, double end) {
  sim_.push_back({cat, name, rank, request, begin, end, begin});
}

void Spans::host_span(const char* name, double host_begin, double host_end, double sim_at) {
  host_.push_back({"host", name, 0, 0, host_begin - origin_, host_end - origin_, sim_at});
  host_totals_[name] += host_end - host_begin;
}

double Spans::host_total(const std::string& name) const {
  const auto it = host_totals_.find(name);
  return it == host_totals_.end() ? 0.0 : it->second;
}

bool Spans::write_sim(const std::string& path) const { return write(path, sim_, 2); }
bool Spans::write_host(const std::string& path) const { return write(path, host_, 3); }

// Every span becomes an async b/e pair keyed by its index, so overlapping
// spans need no nesting; events are sorted by timestamp (begin before end
// on ties) because the checker requires a non-decreasing timeline.
bool Spans::write(const std::string& path, const std::vector<Span>& spans, int pid) {
  struct Event {
    double ts;
    int phase;  // 0 = begin, 1 = end
    std::size_t span;
  };
  std::vector<Event> events;
  events.reserve(spans.size() * 2);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    events.push_back({spans[i].begin, 0, i});
    events.push_back({spans[i].end, 1, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return std::tie(a.ts, a.phase, a.span) < std::tie(b.ts, b.phase, b.span);
  });

  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"),
                                                    &std::fclose);
  if (!f) return false;
  std::fprintf(f.get(), "[\n");
  std::fprintf(f.get(),
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
               "\"args\":{\"name\":\"%s\"}}",
               pid, pid == 2 ? "pfsbench calls (simulated time)" : "pfsbench host calls");
  for (const Event& e : events) {
    const Span& s = spans[e.span];
    std::fprintf(f.get(),
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"pid\":%d,\"tid\":%d,"
                 "\"id\":%zu,\"ts\":%.3f",
                 s.name, s.cat, e.phase == 0 ? "b" : "e", pid, s.rank, e.span + 1,
                 e.ts * 1e6);
    if (e.phase == 0) {
      std::fprintf(f.get(), ",\"args\":{\"request\":%" PRIu64 ",\"sim_s\":%.9f}", s.request,
                   s.sim_at);
    }
    std::fprintf(f.get(), "}");
  }
  std::fprintf(f.get(), "\n]\n");
  return std::ferror(f.get()) == 0;
}

HostSpan::HostSpan(Spans* spans, const ppfs::sim::Simulation& sim, const char* name)
    : spans_(spans), sim_(sim), name_(name) {
  if (spans_) begin_ = host_now();
}

HostSpan::~HostSpan() {
  if (spans_) spans_->host_span(name_, begin_, host_now(), sim_.now());
}

}  // namespace pfsbench
