/**
 * @file
 * os::Thread - a kernel-schedulable entity wrapping a cpu::ExecContext.
 *
 * Threads execute one work item at a time: run() attaches a profile and
 * an instruction budget, the scheduler places the thread on CPUs (with
 * preemption and migration), and the user callback fires on retirement.
 * A thread with no work is Blocked and consumes no CPU.
 */

#ifndef MICROSCALE_OS_THREAD_HH
#define MICROSCALE_OS_THREAD_HH

#include <functional>
#include <string>

#include "base/cpumask.hh"
#include "base/types.hh"
#include "cpu/exec.hh"

namespace microscale::os
{

class Kernel;

/**
 * A schedulable thread. Created through Kernel::createThread; lifetime
 * is owned by the Kernel.
 */
class Thread
{
  public:
    enum class State
    {
        Blocked,  ///< No work; not on any run queue.
        Runnable, ///< Waiting on a run queue.
        Running,  ///< Executing on a CPU (or mid context-switch).
    };

    Thread(Kernel &kernel, std::uint32_t tid, std::string name,
           CpuMask affinity, NodeId home_node);

    Thread(const Thread &) = delete;
    Thread &operator=(const Thread &) = delete;

    const std::string &name() const { return name_; }
    std::uint32_t tid() const { return tid_; }
    State state() const { return state_; }

    /** The CPU-side context (counters, memory home, placement). */
    cpu::ExecContext &ec() { return ec_; }
    const cpu::ExecContext &ec() const { return ec_; }

    /** Allowed CPUs. */
    const CpuMask &affinity() const { return affinity_; }

    /**
     * Change the affinity mask, trimmed to the machine's CPUs (fatal
     * when none is left). Takes effect at the next scheduling
     * decision; a thread running outside the new mask is migrated at
     * the next preemption point.
     */
    void setAffinity(const CpuMask &mask);

    /**
     * Submit one work item; the thread must be Blocked. When the
     * instruction budget retires, `on_complete` runs in event context
     * (it may immediately submit more work).
     */
    void run(const cpu::WorkProfile &profile, double instructions,
             sim::EventFn on_complete);

    /** Total CPU time consumed, in ns (scheduler's vruntime basis). */
    double cpuTimeNs() const { return vruntime_; }

  private:
    friend class Kernel;

    Kernel &kernel_;
    std::uint32_t tid_;
    std::string name_;
    CpuMask affinity_;
    cpu::ExecContext ec_;

    State state_ = State::Blocked;
    sim::EventFn user_cb_;
    double vruntime_ = 0.0;       // ns of CPU consumed
    CpuId rq_cpu_ = kInvalidCpu;  // run queue residence while Runnable
    Tick last_dispatch_ = 0;      // when last placed on a CPU
};

} // namespace microscale::os

#endif // MICROSCALE_OS_THREAD_HH
