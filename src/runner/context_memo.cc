#include "runner/context_memo.h"

namespace hetpipe::runner {

std::shared_ptr<const core::SolveContext> ContextMemo::Get(const core::Experiment& e) {
  // A caller-owned graph is keyed by its address. That is safe only because
  // Experiment::graph must outlive the SweepRunner::Run call running it and
  // that call's memo dies with it, so no two graphs alive while the memo is
  // share an address. The plan daemon's memo never sees a graph.
  const std::string key =
      (e.cluster_spec.empty() ? "nodes:" + e.cluster_nodes : "spec:" + e.cluster_spec) +
      (e.graph != nullptr ? "\ngraph@" + std::to_string(reinterpret_cast<uintptr_t>(e.graph))
                          : "\nmodel:" + std::string(core::ModelName(e.model))) +
      "\n" + std::to_string(e.config.batch_size);
  {
    util::ReaderMutexLock lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) return it->second;
  }
  std::shared_ptr<const core::SolveContext> built = core::BuildSolveContext(e);
  util::WriterMutexLock lock(mu_);
  const auto [it, inserted] = entries_.emplace(key, std::move(built));
  if (inserted) {
    ++inserted_;
    order_.push_back(&it->first);
    if (static_cast<int64_t>(order_.size()) > kCapacity) {
      entries_.erase(entries_.find(*order_.front()));
      order_.pop_front();
    }
  }
  return it->second;
}

}  // namespace hetpipe::runner
