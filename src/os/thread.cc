#include "os/thread.hh"

#include "base/logging.hh"
#include "os/kernel.hh"

namespace microscale::os
{

Thread::Thread(Kernel &kernel, std::uint32_t tid, std::string name,
               CpuMask affinity, NodeId home_node)
    : kernel_(kernel),
      tid_(tid),
      name_(std::move(name)),
      affinity_(affinity),
      ec_(name_, home_node)
{
    if (affinity_.empty())
        MS_PANIC("thread ", name_, " created with empty affinity");
}

void
Thread::run(const cpu::WorkProfile &profile, double instructions,
            sim::EventFn on_complete)
{
    if (state_ != State::Blocked)
        MS_PANIC("Thread::run on non-blocked thread ", name_);
    user_cb_ = std::move(on_complete);
    kernel_.engine().setWork(ec_, profile, instructions,
                             [this] { kernel_.onWorkComplete(this); });
    kernel_.wake(this);
}

void
Thread::setAffinity(const CpuMask &mask)
{
    affinity_ = kernel_.allowedCpus(name_, mask);
    kernel_.onAffinityChanged(this);
}

} // namespace microscale::os
