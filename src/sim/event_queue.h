#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace hetpipe::sim {

// Simulated time, in seconds.
using SimTime = double;

// A scheduled callback. Events are ordered by (time, seq); seq is a strictly
// increasing insertion counter so that events scheduled for the same instant
// fire in FIFO order, making every simulation run deterministic.
struct Event {
  SimTime time = 0.0;
  uint64_t seq = 0;
  std::function<void()> action;
};

// Min-heap of events keyed on (time, seq).
//
// The heap holds only POD keys (time, seq, slot); each action lives in a slot
// of a side vector whose freed slots are reused, so heap sifts move 24-byte
// keys instead of whole std::functions. Pop moves the action out of its slot
// and frees the slot before the caller runs it, so an action may Push freely
// (even when that grows the slot vector). A capture of at most 16 trivially
// copyable bytes (e.g. [this, int]) fits std::function's small buffer, which
// makes Push allocation-free once the vectors have grown.
class EventQueue {
 public:
  // Enqueues `action` to fire at absolute time `time`. Returns the sequence
  // number assigned to the event.
  uint64_t Push(SimTime time, std::function<void()> action);

  // Removes and returns the earliest event. Must not be called when empty.
  Event Pop();

  // Time of the earliest event. Must not be called when empty.
  SimTime TopTime() const { return heap_.front().time; }
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

 private:
  struct Key {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  std::vector<Key> heap_;
  std::vector<std::function<void()>> actions_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 0;
};

}  // namespace hetpipe::sim
