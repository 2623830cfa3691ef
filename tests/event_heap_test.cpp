// Tests for the typed discrete-event loop that runs every engine event.

#include "simcore/event_heap.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "simcore/error.hpp"

namespace sci {
namespace {

constexpr sim_time forever = std::numeric_limits<sim_time>::max();

/// Payloads are labels; dispatch records (label, fire time).
struct fired {
    int label;
    sim_time t;
    bool operator==(const fired&) const = default;
};

std::vector<fired> run_all(event_heap<int>& q, sim_time until = forever) {
    std::vector<fired> out;
    q.run_until(until, [&](int label, sim_time t) { out.push_back({label, t}); });
    return out;
}

std::vector<int> labels(const std::vector<fired>& events) {
    std::vector<int> out;
    for (const fired& e : events) out.push_back(e.label);
    return out;
}

TEST(EventHeapTest, StartsEmptyAtTimeZero) {
    event_heap<int> q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.now(), 0);
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.next_seq(), 0u);
}

TEST(EventHeapTest, ExecutesInTimeOrder) {
    event_heap<int> q;
    q.schedule_at(30, 3);
    q.schedule_at(10, 1);
    q.schedule_at(20, 2);
    const std::vector<fired> out = run_all(q, 30);
    EXPECT_EQ(out, (std::vector<fired>{{1, 10}, {2, 20}, {3, 30}}));
    EXPECT_EQ(q.now(), 30);
}

TEST(EventHeapTest, CallbackSeesEventTime) {
    // The clock is advanced before dispatch, so the callback reads the
    // event's own time from both its argument and now().
    event_heap<int> q;
    sim_time seen = -1;
    sim_time seen_now = -1;
    q.schedule_at(42, 0);
    q.run_until(forever, [&](int, sim_time t) {
        seen = t;
        seen_now = q.now();
    });
    EXPECT_EQ(seen, 42);
    EXPECT_EQ(seen_now, 42);
}

TEST(EventHeapTest, FifoAmongEqualTimestamps) {
    event_heap<int> q;
    for (int i = 0; i < 5; ++i) q.schedule_at(100, i);
    EXPECT_EQ(labels(run_all(q)), (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventHeapTest, DispatchScheduleUsesCurrentTime) {
    event_heap<int> q;
    q.schedule_at(10, 0);
    std::vector<fired> out;
    q.run_until(forever, [&](int label, sim_time t) {
        out.push_back({label, t});
        if (label == 0) q.schedule_at(q.now() + 5, 1);
    });
    EXPECT_EQ(out, (std::vector<fired>{{0, 10}, {1, 15}}));
}

TEST(EventHeapTest, SchedulingInThePastThrows) {
    event_heap<int> q;
    q.schedule_at(10, 0);
    run_all(q, 10);
    EXPECT_EQ(q.now(), 10);
    EXPECT_THROW(q.schedule_at(5, 1), precondition_error);
    const std::uint64_t slot = q.reserve_seq();
    EXPECT_THROW(q.schedule_at_pinned(5, slot, 1), precondition_error);
}

TEST(EventHeapTest, SizeTracksPendingEvents) {
    event_heap<int> q;
    q.schedule_at(1, 0);
    q.schedule_at(2, 1);
    EXPECT_EQ(q.size(), 2u);
    run_all(q, 1);
    EXPECT_EQ(q.size(), 1u);
    run_all(q);
    EXPECT_TRUE(q.empty());
}

TEST(EventHeapTest, RunUntilExecutesInclusiveBoundary) {
    event_heap<int> q;
    q.schedule_at(10, 0);
    q.schedule_at(20, 1);
    q.schedule_at(21, 2);
    EXPECT_EQ(labels(run_all(q, 20)), (std::vector<int>{0, 1}));
    EXPECT_EQ(q.now(), 20);
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventHeapTest, RunUntilAdvancesClockWhenHeapDrains) {
    event_heap<int> q;
    q.schedule_at(5, 0);
    run_all(q, 100);
    EXPECT_EQ(q.now(), 100);
}

TEST(EventHeapTest, RunUntilPastThrows) {
    event_heap<int> q;
    q.schedule_at(50, 0);
    run_all(q, 50);
    EXPECT_THROW(run_all(q, 10), precondition_error);
}

TEST(EventHeapTest, SelfReschedulingEvent) {
    event_heap<int> q;
    int count = 0;
    q.schedule_at(0, 0);
    q.run_until(forever, [&](int, sim_time t) {
        ++count;
        if (count < 5) q.schedule_at(t + 10, 0);
    });
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.executed_count(), 5u);
}

TEST(EventHeapTest, ExecutedCount) {
    event_heap<int> q;
    for (int i = 0; i < 7; ++i) q.schedule_at(i, i);
    run_all(q);
    EXPECT_EQ(q.executed_count(), 7u);
}

TEST(EventHeapTest, PinnedSeqKeepsTieOrderAcrossReschedules) {
    // A self-rescheduling event in a reserved slot must keep firing at
    // the reserved position among equal-timestamp events: after earlier
    // reservations, before later ones — even on its Nth rescheduling,
    // when a plain schedule_at would have drifted to the end of the tie.
    event_heap<int> q;
    q.schedule_at(10, 0);
    q.schedule_at(20, 0);
    const std::uint64_t slot = q.reserve_seq();
    q.schedule_at_pinned(10, slot, 1);
    q.schedule_at(10, 2);
    q.schedule_at(20, 2);
    std::vector<int> order;
    q.run_until(forever, [&](int label, sim_time t) {
        order.push_back(label);
        if (label == 1 && t < 20) q.schedule_at_pinned(t + 10, slot, 1);
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(EventHeapTest, PinnedSeqRequiresReservedSlot) {
    event_heap<int> q;
    EXPECT_THROW(q.schedule_at_pinned(0, 99, 0), precondition_error);
}

TEST(EventHeapTest, ManyEventsStressOrdering) {
    event_heap<int> q;
    for (int i = 999; i >= 0; --i) q.schedule_at(i % 100, i);
    const std::vector<fired> out = run_all(q);
    ASSERT_EQ(out.size(), 1000u);
    for (std::size_t k = 1; k < out.size(); ++k) {
        ASSERT_LE(out[k - 1].t, out[k].t) << k;
        // FIFO within a timestamp: labels were scheduled in descending order
        if (out[k - 1].t == out[k].t) {
            ASSERT_GT(out[k - 1].label, out[k].label);
        }
    }
}

TEST(EventHeapTest, SortedEntriesRestoreRoundTrip) {
    // Capture mid-run (with a pinned slot live), restore into a fresh
    // heap, and both must fire the same remaining events in the same order.
    event_heap<int> q;
    q.schedule_at(5, 0);
    q.schedule_at(30, 1);
    q.schedule_at(20, 2);
    const std::uint64_t slot = q.reserve_seq();
    q.schedule_at(20, 3);
    q.schedule_at_pinned(20, slot, 4);
    q.schedule_at(40, 5);
    run_all(q, 10);

    const std::vector<event_heap<int>::entry> entries = q.sorted_entries();
    ASSERT_EQ(entries.size(), 5u);
    for (std::size_t k = 1; k < entries.size(); ++k) {
        const auto& a = entries[k - 1];
        const auto& b = entries[k];
        EXPECT_TRUE(a.at < b.at || (a.at == b.at && a.seq < b.seq)) << k;
    }

    event_heap<int> copy;
    copy.restore(entries, q.now(), q.next_seq(), q.executed_count());
    EXPECT_EQ(copy.now(), 10);
    EXPECT_EQ(copy.next_seq(), q.next_seq());
    EXPECT_EQ(copy.executed_count(), 1u);
    EXPECT_EQ(copy.sorted_entries().size(), entries.size());

    const std::vector<fired> original = run_all(q);
    EXPECT_EQ(run_all(copy), original);
    EXPECT_EQ(labels(original), (std::vector<int>{2, 4, 3, 1, 5}));
    EXPECT_EQ(copy.executed_count(), q.executed_count());
}

TEST(EventHeapTest, RestoreRejectsEntriesBeyondAllocationPoint) {
    event_heap<int> q;
    EXPECT_THROW(q.restore({{10, 3, 0}}, 0, 3, 0), precondition_error);
}

}  // namespace
}  // namespace sci
