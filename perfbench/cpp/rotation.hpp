#pragma once

// CPU rotation: moves the workload thread to the next CPU it may run on
// at a fixed interval, for as long as the object lives.
//
// On a shared host each CPU slows down and speeds up on its own, for
// tens of seconds at a time (two copies of one workload pinned to two
// CPUs: per-day step times correlated at -0.04).  A run left on the CPU
// the kernel picked measures that CPU's phase; a rotating run averages
// over every CPU the process is allowed, one at a time.  The engine stays
// serial: only the moved thread does work, and the helper thread sleeps
// between moves.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <pthread.h>
#include <thread>
#include <vector>

namespace perfbench {

class cpu_rotation {
public:
    /// Rotate the calling thread every `interval` over the CPUs of its
    /// affinity mask; with one CPU allowed, do nothing.
    explicit cpu_rotation(std::chrono::milliseconds interval);
    /// Stops and joins the helper thread, then gives the thread back all
    /// of its CPUs.
    ~cpu_rotation();

    cpu_rotation(const cpu_rotation&) = delete;
    cpu_rotation& operator=(const cpu_rotation&) = delete;

    std::size_t cpus() const { return cpus_.size(); }
    /// Moves made so far.
    std::uint64_t moves() const;

private:
    void loop();

    std::chrono::milliseconds interval_;
    pthread_t target_;
    std::vector<int> cpus_;
    mutable std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
    std::uint64_t moves_ = 0;
    std::thread helper_;
};

}  // namespace perfbench
