// In-memory span tracer for the traced run. Spans are recorded by the
// benchmark around its own calls into the library's public functions; each
// carries a name, start and end, the span that caused it, and the request or
// experiment id it belongs to. Nothing is written until Export, which emits
// one Chrome/Perfetto trace-event file, and Summarize, which folds spans into
// per-name self times (span duration minus its children's).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // string literal: spans never own their names
  double start_s = 0.0;
  double end_s = 0.0;
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  int64_t op = -1;     // request or experiment id, -1 when none
  int thread = 0;
};

struct SpanStats {
  int64_t count = 0;
  std::vector<double> self_s;  // per span: duration minus children
};

class Tracer {
 public:
  explicit Tracer(int64_t max_spans = 1000000);

  // Records a finished span with explicit times; returns its id. The parent
  // defaults to the innermost open ScopedSpan of the calling thread.
  int64_t Record(const char* name, double start_s, double end_s, int64_t op = -1);

  // Per-name statistics over every recorded span.
  std::map<std::string, SpanStats> Summarize() const;
  // Writes the trace-event JSON; false when the file cannot be written.
  bool Export(const std::string& path) const;

  int64_t recorded() const;
  int64_t dropped() const;

 private:
  friend class ScopedSpan;
  struct ThreadBuffer {
    int thread = 0;
    std::vector<Span> spans;
  };
  ThreadBuffer* Buffer();
  int64_t NextId();

  const int64_t max_spans_;
  const uint64_t serial_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  int64_t next_id_ = 1;
  int64_t total_ = 0;
  int64_t dropped_ = 0;
};

// RAII span around a call. A null tracer makes it free, so the untraced run
// shares the traced run's code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t op = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  int64_t op_;
  int64_t id_ = 0;
  int64_t saved_parent_ = 0;
  double start_s_ = 0.0;
};

}  // namespace perfbench
