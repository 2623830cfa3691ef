#pragma once

// Typed discrete-event loop.
//
// A callback cannot be written to disk, so event_heap stores a plain
// payload per entry and lets the driver interpret it (the engine
// dispatches on an enum).  The complete pending-event set is therefore
// data: sorted_entries()/restore() move it in and out of a snapshot
// verbatim, including reserved tie-break slots.
//
// Events fire in (at, seq) order, seq is allocated monotonically at
// schedule time (FIFO among equal timestamps), and
// reserve_seq()/schedule_at_pinned() let a self-rescheduling event keep a
// fixed tie-order slot.  There is no cancel: the engine never cancels, so
// every heap entry is live (what a snapshot must capture anyway).

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "simcore/error.hpp"
#include "simcore/time.hpp"

namespace sci {

template <class Payload>
class event_heap {
public:
    struct entry {
        sim_time at;
        std::uint64_t seq;  // tie-break: FIFO among equal timestamps
        Payload payload;
    };

    /// Schedule `payload` at absolute time `at` (must not be in the past).
    void schedule_at(sim_time at, Payload payload) {
        expects(at >= now_, "event_heap::schedule_at: cannot schedule in the past");
        heap_.push(entry{at, next_seq_++, std::move(payload)});
    }

    /// Reserve a tie-break sequence slot at the current allocation point
    /// without scheduling anything.  A self-rescheduling event then
    /// re-enters at this slot through schedule_at_pinned, so it keeps the
    /// tie order of the event it stands in for.
    std::uint64_t reserve_seq() { return next_seq_++; }

    /// Schedule at `at` with an explicit reserved tie-break slot.  At most
    /// one live event may hold a given slot at a time.
    void schedule_at_pinned(sim_time at, std::uint64_t seq, Payload payload) {
        expects(at >= now_,
                "event_heap::schedule_at_pinned: cannot schedule in the past");
        expects(seq < next_seq_,
                "event_heap::schedule_at_pinned: sequence slot not reserved");
        heap_.push(entry{at, seq, std::move(payload)});
    }

    sim_time now() const { return now_; }
    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }
    std::uint64_t executed_count() const { return executed_; }

    /// Run events until the heap is empty or the clock passes `until`;
    /// events at exactly `until` are executed.  The clock is advanced to
    /// `until` even if the heap drains earlier.  `dispatch(payload, now)`
    /// may schedule further events.
    template <class Dispatch>
    void run_until(sim_time until, Dispatch&& dispatch) {
        expects(until >= now_, "event_heap::run_until: target in the past");
        while (!heap_.empty() && heap_.top().at <= until) {
            // copy out before pop: dispatch may push and reallocate
            entry top = heap_.top();
            heap_.pop();
            now_ = top.at;
            ++executed_;
            dispatch(top.payload, now_);
        }
        now_ = until;
    }

    // --- snapshot support ------------------------------------------------

    /// Every pending entry in (at, seq) order — the canonical serialized
    /// form, so save·load·save is byte-stable.
    std::vector<entry> sorted_entries() const {
        std::priority_queue<entry, std::vector<entry>, entry_later> copy = heap_;
        std::vector<entry> out;
        out.reserve(copy.size());
        while (!copy.empty()) {
            out.push_back(copy.top());
            copy.pop();
        }
        return out;
    }

    std::uint64_t next_seq() const { return next_seq_; }

    /// Replace the complete loop state with a previously captured one.
    void restore(std::vector<entry> entries, sim_time now,
                 std::uint64_t next_seq, std::uint64_t executed) {
        heap_ = {};
        for (entry& e : entries) {
            expects(e.seq < next_seq,
                    "event_heap::restore: entry seq beyond allocation point");
            heap_.push(std::move(e));
        }
        now_ = now;
        next_seq_ = next_seq;
        executed_ = executed;
    }

private:
    struct entry_later {
        bool operator()(const entry& a, const entry& b) const {
            if (a.at != b.at) return a.at > b.at;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<entry, std::vector<entry>, entry_later> heap_;
    sim_time now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
};

}  // namespace sci
