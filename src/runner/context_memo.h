#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/experiment.h"
#include "util/mutex.h"

namespace hetpipe::runner {

// Thread-safe FIFO memo of solving contexts by an experiment's (cluster,
// model or graph, batch size), bounded at kCapacity: the one place a
// core::SolveContext is shared. The plan daemon holds one for its lifetime;
// SweepRunner::Run holds one per call. A miss builds outside the lock (a
// build parses a spec and profiles a model: milliseconds); threads racing on
// a cold key each build, the first insert wins and every caller gets its
// pointer. A caller still holding an evicted context keeps it alive.
class ContextMemo {
 public:
  static constexpr int64_t kCapacity = 64;

  // The context for `experiment`, built by core::BuildSolveContext on a miss;
  // what that throws propagates and inserts nothing.
  std::shared_ptr<const core::SolveContext> Get(const core::Experiment& experiment);

  // Contexts held now, and ever inserted (a racing build that lost is not).
  int64_t size() const {
    util::ReaderMutexLock lock(mu_);
    return static_cast<int64_t>(entries_.size());
  }
  int64_t inserted() const {
    util::ReaderMutexLock lock(mu_);
    return inserted_;
  }

 private:
  mutable util::SharedMutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const core::SolveContext>> entries_
      GUARDED_BY(mu_);
  std::deque<const std::string*> order_ GUARDED_BY(mu_);  // keys of entries_, oldest first
  int64_t inserted_ GUARDED_BY(mu_) = 0;
};

}  // namespace hetpipe::runner
