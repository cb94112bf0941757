#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "common.h"

namespace perfbench {
namespace {

// Innermost open span of this thread (0 = none) and this thread's buffer.
thread_local int64_t current_parent = 0;
// Keyed by the tracer's serial, not its address, so a buffer can never be
// mistaken for one of a later tracer allocated at the same address.
thread_local uint64_t buffer_owner = 0;
thread_local void* buffer_slot = nullptr;
std::atomic<uint64_t> next_serial{1};

}  // namespace

Tracer::Tracer(int64_t max_spans) : max_spans_(max_spans), serial_(next_serial++) {}

int64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

Tracer::ThreadBuffer* Tracer::Buffer() {
  if (buffer_owner != serial_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->thread = static_cast<int>(buffers_.size());
    buffer_owner = serial_;
    buffer_slot = buffers_.back().get();
  }
  return static_cast<ThreadBuffer*>(buffer_slot);
}

int64_t Tracer::Record(const char* name, double start_s, double end_s, int64_t op) {
  ThreadBuffer* buffer = Buffer();
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (total_ >= max_spans_) {
      ++dropped_;
      return 0;
    }
    ++total_;
    id = next_id_++;
  }
  buffer->spans.push_back(Span{name, start_s, end_s, id, current_parent, op, buffer->thread});
  return id;
}

int64_t Tracer::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

int64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::map<std::string, SpanStats> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one parent run on the parent's thread inside its interval
  // and never overlap each other, so the covered part is their summed time.
  std::unordered_map<int64_t, double> child_time;
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans) {
      if (span.parent != 0) child_time[span.parent] += span.end_s - span.start_s;
    }
  }
  std::map<std::string, SpanStats> out;
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans) {
      SpanStats& stats = out[span.name];
      ++stats.count;
      auto it = child_time.find(span.id);
      const double children = it == child_time.end() ? 0.0 : it->second;
      stats.self_s.push_back(std::max(0.0, span.end_s - span.start_s - children));
    }
  }
  return out;
}

bool Tracer::Export(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  char line[512];
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans) {
      std::snprintf(line, sizeof(line),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%lld,\"op\":%lld}}",
                    first ? "" : ",", span.name, span.thread, span.start_s * 1e6,
                    (span.end_s - span.start_s) * 1e6, static_cast<long long>(span.id),
                    static_cast<long long>(span.parent), static_cast<long long>(span.op));
      out << line;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, int64_t op)
    : tracer_(tracer), name_(name), op_(op) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->NextId();
  saved_parent_ = current_parent;
  current_parent = id_;
  start_s_ = NowS();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  const double end_s = NowS();
  current_parent = saved_parent_;
  Tracer::ThreadBuffer* buffer = tracer_->Buffer();
  {
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    if (tracer_->total_ >= tracer_->max_spans_) {
      ++tracer_->dropped_;
      return;
    }
    ++tracer_->total_;
  }
  buffer->spans.push_back(
      Span{name_, start_s_, end_s, id_, saved_parent_, op_, buffer->thread});
}

}  // namespace perfbench
