// Binary-heap event queue for the fleet simulator.
//
// Determinism contract (docs/FLEET_SIM.md): events pop in strictly
// ascending (time, tie, seq) order, where `tie` is a caller-supplied 64-bit
// key and `seq` the schedule-order sequence number. The compat engine passes
// a global push counter as the tie — the seed engine's (time, push-seq)
// order — and the sharded engine packs (machine, kind, per-machine seq) into
// it, giving the (time, machine, kind) tie-break that makes shard execution
// independent of thread schedule. Both ties are unique per event, so the pop
// order is a pure function of the scheduled (time, tie) set.
//
// Schedule and pop are O(log n) in the pending count n. A shard holds about
// one pending arrival per machine plus a few events per open recovery, and
// the default shard count keeps shards under ~32k machines (up to its
// 64-shard cap at ~10^6 machines), so the heap stays at most 15-16 levels
// deep.
#ifndef AER_FLEET_EVENT_QUEUE_H_
#define AER_FLEET_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "log/action.h"
#include "log/log_entry.h"

namespace aer::fleet {

// The fleet simulator's event vocabulary.
enum class FleetEventKind : std::uint8_t {
  kFaultArrival = 0,
  kSymptom = 1,
  kChooseAction = 2,  // detection complete or decision gap elapsed
  kActionDone = 3,
};

struct FleetEvent {
  FleetEventKind kind = FleetEventKind::kFaultArrival;
  MachineId machine = 0;
  std::uint32_t process_seq = 0;  // guards stale per-machine events
  SymptomId symptom = kInvalidSymptom;          // kSymptom
  RepairAction action = RepairAction::kTryNop;  // kActionDone
};

struct ScheduledEvent {
  SimTime time = 0;
  std::uint64_t tie = 0;
  std::uint64_t seq = 0;  // schedule order, the last tie-break
  FleetEvent event;
};

class EventQueue {
 public:
  // Schedules an event at `time`. Events at equal times pop in ascending
  // (tie, seq) order.
  void Schedule(SimTime time, std::uint64_t tie, const FleetEvent& event) {
    heap_.push_back({time, tie, next_seq_++, event});
    std::push_heap(heap_.begin(), heap_.end(), Later);
    peak_size_ = std::max(peak_size_, heap_.size());
  }

  // Pops the next event in (time, tie, seq) order into *out. Returns false
  // when no events are pending.
  bool PopNext(ScheduledEvent* out) {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    *out = heap_.back();
    heap_.pop_back();
    return true;
  }

  std::size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }
  // High-water mark of pending events, for the aer_fleet_* gauges.
  std::size_t peak_size() const { return peak_size_; }

 private:
  // Max-heap comparator inverted: the earliest (time, tie, seq) is on top.
  static bool Later(const ScheduledEvent& a, const ScheduledEvent& b) {
    if (a.time != b.time) return a.time > b.time;
    if (a.tie != b.tie) return a.tie > b.tie;
    return a.seq > b.seq;
  }

  std::vector<ScheduledEvent> heap_;
  std::uint64_t next_seq_ = 0;
  std::size_t peak_size_ = 0;
};

}  // namespace aer::fleet

#endif  // AER_FLEET_EVENT_QUEUE_H_
