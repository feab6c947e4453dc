/**
 * @file
 * CpuMask: an affinity set over logical CPUs, like Linux cpumask_t.
 *
 * Fixed capacity of kMaxCpus (512) covers any topology this library
 * builds (the paper's machine has 128 logical CPUs per socket).
 */

#ifndef MICROSCALE_BASE_CPUMASK_HH
#define MICROSCALE_BASE_CPUMASK_HH

#include <array>
#include <bit>
#include <cstdint>
#include <string>

#include "base/types.hh"

namespace microscale
{

/** Upper bound on logical CPUs in any modeled machine. */
constexpr CpuId kMaxCpus = 512;

/**
 * A set of logical CPU ids with the usual set algebra, used for thread
 * affinity, scheduling domains, and placement policies.
 */
class CpuMask
{
  public:
    /** The empty mask. */
    CpuMask() : words_{} {}

    /** Mask containing the single CPU `cpu`. */
    static CpuMask single(CpuId cpu);

    /** Mask containing CPUs [first, last] inclusive. */
    static CpuMask range(CpuId first, CpuId last);

    /** Mask containing all CPUs in [0, count). */
    static CpuMask firstN(CpuId count);

    /** Add a CPU. */
    void set(CpuId cpu)
    {
        checkCpu(cpu);
        words_[cpu / 64] |= std::uint64_t(1) << (cpu % 64);
    }
    /** Remove a CPU. */
    void clear(CpuId cpu)
    {
        checkCpu(cpu);
        words_[cpu / 64] &= ~(std::uint64_t(1) << (cpu % 64));
    }
    /** Membership test. */
    bool test(CpuId cpu) const
    {
        if (cpu >= kMaxCpus)
            return false;
        return (words_[cpu / 64] >> (cpu % 64)) & 1;
    }

    /** True when no CPU is set. */
    bool empty() const;
    /** Number of CPUs set. */
    unsigned count() const;

    /** Lowest CPU set, or kInvalidCpu when empty. */
    CpuId first() const { return scanFrom(0); }
    /** Lowest CPU set that is > `cpu`, or kInvalidCpu. */
    CpuId next(CpuId cpu) const
    {
        if (cpu == kInvalidCpu || cpu + 1 >= kMaxCpus)
            return kInvalidCpu;
        const CpuId start = cpu + 1;
        const std::uint64_t w = words_[start / 64] >> (start % 64);
        if (w)
            return start + std::countr_zero(w);
        return scanFrom(start / 64 + 1);
    }

    /** Set union. */
    CpuMask operator|(const CpuMask &o) const;
    /** Set intersection. */
    CpuMask operator&(const CpuMask &o) const;
    /** Set difference (this minus o). */
    CpuMask operator-(const CpuMask &o) const;
    CpuMask &operator|=(const CpuMask &o);
    CpuMask &operator&=(const CpuMask &o);

    bool operator==(const CpuMask &o) const { return words_ == o.words_; }
    bool operator!=(const CpuMask &o) const { return !(*this == o); }

    /** True when every CPU in this mask is also in `o`. */
    bool subsetOf(const CpuMask &o) const;
    /** True when the two masks share at least one CPU. */
    bool intersects(const CpuMask &o) const;

    /** Compact human-readable form, e.g. "0-3,8,12-15". */
    std::string toString() const;

    /** Iteration support: for (CpuId c : mask). */
    class Iterator
    {
      public:
        Iterator(const CpuMask *mask, CpuId cpu) : mask_(mask), cpu_(cpu) {}
        CpuId operator*() const { return cpu_; }
        Iterator &operator++()
        {
            cpu_ = mask_->next(cpu_);
            return *this;
        }
        bool operator!=(const Iterator &o) const { return cpu_ != o.cpu_; }

      private:
        const CpuMask *mask_;
        CpuId cpu_;
    };

    Iterator begin() const { return Iterator(this, first()); }
    Iterator end() const { return Iterator(this, kInvalidCpu); }

  private:
    static constexpr unsigned kWords = kMaxCpus / 64;

    /** Panics on ids >= kMaxCpus. */
    static void checkCpu(CpuId cpu)
    {
        if (cpu >= kMaxCpus)
            outOfRange(cpu);
    }
    [[noreturn]] static void outOfRange(CpuId cpu);

    /** Lowest CPU set in words [word, kWords), or kInvalidCpu. */
    CpuId scanFrom(unsigned word) const
    {
        for (unsigned i = word; i < kWords; ++i) {
            if (words_[i])
                return i * 64 + std::countr_zero(words_[i]);
        }
        return kInvalidCpu;
    }

    std::array<std::uint64_t, kWords> words_;
};

} // namespace microscale

#endif // MICROSCALE_BASE_CPUMASK_HH
