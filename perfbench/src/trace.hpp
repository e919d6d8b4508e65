// perfbench/src/trace.hpp
//
// In-memory span recorder for the traced run. Spans sit around the
// benchmark's calls into each layer's public functions (never inside the
// program); they are kept in memory and written out when the run ends. A
// span's self time is its duration minus the part its child spans cover.
// A disabled tracer records nothing and costs one branch per scope.
#pragma once

#include <chrono>
#include <fstream>
#include <istream>
#include <ostream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;   // index of the enclosing span, -1 at top level
    int request;  // operation the span belongs to
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span. Nesting follows scopes on the same thread.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, int request = -1)
        : tracer_(tracer.enabled_ ? &tracer : nullptr) {
      if (tracer_ == nullptr) return;
      parent_ = current_;
      std::lock_guard lock(tracer_->mu_);
      index_ = static_cast<int>(tracer_->spans_.size());
      tracer_->spans_.push_back(
          {name, Clock::now(), {}, parent_,
           request >= 0 ? request
                        : (parent_ >= 0 ? tracer_->spans_[static_cast<std::size_t>(parent_)].request
                                        : -1)});
      current_ = index_;
    }
    ~Scope() {
      if (tracer_ == nullptr) return;
      const Clock::time_point now = Clock::now();
      std::lock_guard lock(tracer_->mu_);
      tracer_->spans_[static_cast<std::size_t>(index_)].end = now;
      current_ = parent_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
    int parent_ = -1;
  };

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Spans as text lines "span <name> <start_ns> <end_ns> <parent> <request>"
  /// (monotonic-clock nanoseconds), to carry them out of a child process.
  void export_lines(std::ostream& out) const {
    for (const Span& s : spans_) {
      out << "span " << s.name << " " << s.start.time_since_epoch().count()
          << " " << s.end.time_since_epoch().count() << " " << s.parent << " "
          << s.request << "\n";
    }
  }

  /// Append the spans of one export_lines batch (the fields after "span").
  void import_span(std::istream& in, std::size_t batch_base) {
    Span s;
    long long start = 0;
    long long end = 0;
    in >> s.name >> start >> end >> s.parent >> s.request;
    s.start = Clock::time_point(Clock::duration(start));
    s.end = Clock::time_point(Clock::duration(end));
    if (s.parent >= 0) s.parent += static_cast<int>(batch_base);
    spans_.push_back(std::move(s));
  }

  /// Summed self seconds per span name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += seconds(s);
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += seconds(spans_[i]) - child[i];
    }
    return out;
  }

  /// Summed wall seconds per span name.
  [[nodiscard]] std::map<std::string, double> total_seconds() const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) out[s.name] += seconds(s);
    return out;
  }

  /// Write every span (times in microseconds from the tracer's creation)
  /// plus the per-name self/total summary as one JSON document.
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"parent\": " << s.parent << ", \"request\": " << s.request
          << ", \"start_us\": " << micros(s.start)
          << ", \"end_us\": " << micros(s.end) << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "],\n\"summary\": {";
    const auto self = self_seconds();
    const auto total = total_seconds();
    bool first = true;
    for (const auto& [name, secs] : total) {
      out << (first ? "\n" : ",\n") << "  \"" << name
          << "\": {\"total_s\": " << secs << ", \"self_s\": " << self.at(name)
          << "}";
      first = false;
    }
    out << "\n}}\n";
  }

 private:
  static double seconds(const Span& s) {
    return std::chrono::duration<double>(s.end - s.start).count();
  }
  [[nodiscard]] long long micros(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::mutex mu_;
  std::vector<Span> spans_;
  static inline thread_local int current_ = -1;
};

}  // namespace perfbench
