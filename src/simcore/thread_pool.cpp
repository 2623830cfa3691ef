#include "simcore/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "simcore/error.hpp"

namespace sci {

namespace {

/// Set while a pool worker (of any pool) executes a task; a nested
/// parallel_for seen under this flag is serialized inline instead of
/// dispatched, which would deadlock on the busy workers.
thread_local bool inside_pool_task = false;

}  // namespace

thread_pool::thread_pool(unsigned workers) {
    errors_.resize(workers);
    workers_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
        workers_.emplace_back([this, i] { worker_loop(i); });
    }
}

thread_pool::~thread_pool() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
}

std::pair<std::size_t, std::size_t> thread_pool::shard(std::size_t begin,
                                                       std::size_t end,
                                                       unsigned index,
                                                       unsigned count) {
    expects(count > 0, "thread_pool::shard: count must be positive");
    expects(index < count, "thread_pool::shard: index out of range");
    const std::size_t n = end > begin ? end - begin : 0;
    const std::size_t base = n / count;
    const std::size_t rem = n % count;
    const std::size_t lo =
        begin + index * base + std::min<std::size_t>(index, rem);
    const std::size_t len = base + (index < rem ? 1 : 0);
    return {lo, lo + len};
}

unsigned thread_pool::env_threads() {
    const char* v = std::getenv("SCI_THREADS");
    if (v == nullptr || *v == '\0') return 0;
    const long parsed = std::strtol(v, nullptr, 10);
    return parsed > 0 ? static_cast<unsigned>(parsed) : 0;
}

unsigned thread_pool::resolve_workers(std::optional<unsigned> requested,
                                      unsigned hardware) {
    return std::min(requested.value_or(env_threads()),
                    std::max(1u, hardware));
}

void thread_pool::parallel_for(std::size_t begin, std::size_t end,
                               const range_fn& fn) {
    expects(static_cast<bool>(fn), "thread_pool::parallel_for: empty task");
    if (begin >= end) return;
    if (workers_.size() < 2 || inside_pool_task) {
        fn(0, begin, end);
        return;
    }

    const std::lock_guard<std::mutex> submit_lock(submit_mutex_);
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        job_fn_ = &fn;
        job_begin_ = begin;
        job_end_ = end;
        job_pending_ = worker_count();
        ++job_epoch_;
    }
    work_cv_.notify_all();

    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return job_pending_ == 0; });
    job_fn_ = nullptr;

    // deterministic propagation: the lowest-indexed failure wins
    for (std::exception_ptr& err : errors_) {
        if (err) {
            const std::exception_ptr first = std::exchange(err, nullptr);
            for (std::exception_ptr& rest : errors_) rest = nullptr;
            lock.unlock();
            std::rethrow_exception(first);
        }
    }
}

void thread_pool::run_tasks(std::size_t count, const task_fn& fn) {
    expects(static_cast<bool>(fn), "thread_pool::run_tasks: empty task");
    if (count == 0) return;
    if (workers_.empty() || inside_pool_task || count == 1) {
        // Inline on the caller without the nested-use flag: with one task
        // (or a serial pool) the workers stay idle, so the task's own
        // parallel_for calls can still fan out across them.
        for (std::size_t i = 0; i < count; ++i) fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    const range_fn claim = [&next, count, &fn](unsigned, std::size_t,
                                               std::size_t) {
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count) return;
            fn(i);
        }
    };

    const std::lock_guard<std::mutex> submit_lock(submit_mutex_);
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        job_fn_ = &claim;
        job_begin_ = 0;
        job_end_ = count;
        job_pending_ = worker_count();
        ++job_epoch_;
    }
    work_cv_.notify_all();

    // The caller claims tasks too, under the nested-use flag so a task's
    // internal parallel_for serializes inline here exactly as on a worker.
    std::exception_ptr caller_error;
    inside_pool_task = true;
    try {
        claim(0, 0, 0);
    } catch (...) {
        caller_error = std::current_exception();
    }
    inside_pool_task = false;

    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return job_pending_ == 0; });
    job_fn_ = nullptr;

    for (std::exception_ptr& err : errors_) {
        if (err) {
            const std::exception_ptr first = std::exchange(err, nullptr);
            for (std::exception_ptr& rest : errors_) rest = nullptr;
            lock.unlock();
            std::rethrow_exception(first);
        }
    }
    if (caller_error) {
        lock.unlock();
        std::rethrow_exception(caller_error);
    }
}

void thread_pool::worker_loop(unsigned index) {
    std::uint64_t seen_epoch = 0;
    for (;;) {
        const range_fn* fn = nullptr;
        std::size_t begin = 0;
        std::size_t end = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock, [this, seen_epoch] {
                return stopping_ || job_epoch_ != seen_epoch;
            });
            if (stopping_) return;
            seen_epoch = job_epoch_;
            fn = job_fn_;
            begin = job_begin_;
            end = job_end_;
        }
        const auto [lo, hi] = shard(begin, end, index, worker_count());
        if (lo < hi) {
            inside_pool_task = true;
            try {
                (*fn)(index, lo, hi);
            } catch (...) {
                errors_[index] = std::current_exception();
            }
            inside_pool_task = false;
        }
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (--job_pending_ == 0) done_cv_.notify_all();
        }
    }
}

}  // namespace sci
