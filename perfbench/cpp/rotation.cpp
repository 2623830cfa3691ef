#include "rotation.hpp"

#include <sched.h>

namespace perfbench {

cpu_rotation::cpu_rotation(std::chrono::milliseconds interval)
    : interval_(interval), target_(pthread_self()) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
        }
    }
    if (cpus_.size() > 1) helper_ = std::thread([this] { loop(); });
}

cpu_rotation::~cpu_rotation() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_one();
    if (!helper_.joinable()) return;
    helper_.join();
    cpu_set_t all;
    CPU_ZERO(&all);
    for (const int cpu : cpus_) CPU_SET(cpu, &all);
    pthread_setaffinity_np(target_, sizeof all, &all);
}

std::uint64_t cpu_rotation::moves() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return moves_;
}

void cpu_rotation::loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::size_t next = 0;; next = (next + 1) % cpus_.size()) {
        if (wake_.wait_for(lock, interval_, [this] { return stop_; })) return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next], &one);
        if (pthread_setaffinity_np(target_, sizeof one, &one) == 0) ++moves_;
    }
}

}  // namespace perfbench
