/**
 * @file
 * Machine: the immutable topology object every other module consults.
 *
 * Logical CPU numbering follows the Linux convention on SMT x86
 * servers: CPUs [0, cores) are the first hardware thread of each core,
 * CPUs [cores, 2*cores) are the SMT siblings, i.e. CPU c and CPU
 * c + numCores() share a core. Cores are numbered contiguously within
 * a CCX, CCXs within a node, nodes within a socket.
 */

#ifndef MICROSCALE_TOPO_MACHINE_HH
#define MICROSCALE_TOPO_MACHINE_HH

#include <vector>

#include "base/cpumask.hh"
#include "base/logging.hh"
#include "base/types.hh"
#include "topo/params.hh"

namespace microscale::topo
{

/**
 * Immutable machine topology with O(1) structural lookups: the
 * per-CPU ids and the per-core/CCX/node/socket masks and CPU lists are
 * tables built once at construction, so the per-event hot paths of the
 * execution engine and the scheduler do no mask algebra.
 */
class Machine
{
  public:
    /** Build from validated parameters (validate() is called here). */
    explicit Machine(MachineParams params);

    const MachineParams &params() const { return params_; }
    const std::string &name() const { return params_.name; }

    unsigned numCpus() const { return params_.totalCpus(); }
    unsigned numCores() const { return params_.totalCores(); }
    unsigned numCcxs() const
    {
        return params_.sockets * params_.nodesPerSocket *
               params_.ccxsPerNode;
    }
    unsigned numNodes() const
    {
        return params_.sockets * params_.nodesPerSocket;
    }
    unsigned numSockets() const { return params_.sockets; }
    unsigned threadsPerCore() const { return params_.threadsPerCore; }
    unsigned coresPerCcx() const { return params_.coresPerCcx; }

    /** Physical core of a logical CPU. */
    CoreId coreOf(CpuId cpu) const { return cpuInfo(cpu, "coreOf").core; }
    /** CCX (shared-L3 domain) of a logical CPU. */
    CcxId ccxOf(CpuId cpu) const { return cpuInfo(cpu, "ccxOf").ccx; }
    /** NUMA node of a logical CPU. */
    NodeId nodeOf(CpuId cpu) const { return cpuInfo(cpu, "nodeOf").node; }
    /** Socket of a logical CPU. */
    SocketId socketOf(CpuId cpu) const
    {
        return cpuInfo(cpu, "socketOf").socket;
    }

    /** SMT sibling CPU, or kInvalidCpu when SMT is off. */
    CpuId siblingOf(CpuId cpu) const
    {
        if (params_.threadsPerCore < 2)
            return kInvalidCpu;
        const unsigned cores = numCores();
        return cpu < cores ? cpu + cores : cpu - cores;
    }
    /** True when `cpu` is the first hardware thread of its core. */
    bool isPrimaryThread(CpuId cpu) const { return cpu < numCores(); }

    /** All logical CPUs of one core. */
    const CpuMask &cpusOfCore(CoreId core) const
    {
        return at(core_masks_, core, "cpusOfCore: core ");
    }
    /** All logical CPUs of one CCX. */
    const CpuMask &cpusOfCcx(CcxId ccx) const
    {
        return at(ccx_masks_, ccx, "cpusOfCcx: ccx ");
    }
    /** All logical CPUs of one NUMA node. */
    const CpuMask &cpusOfNode(NodeId node) const
    {
        return at(node_masks_, node, "cpusOfNode: node ");
    }
    /** All logical CPUs of one socket. */
    const CpuMask &cpusOfSocket(SocketId socket) const
    {
        return at(socket_masks_, socket, "cpusOfSocket: socket ");
    }
    /** Every logical CPU in the machine. */
    const CpuMask &allCpus() const { return all_cpus_; }
    /** The first hardware thread of every core (the SMT-off view). */
    const CpuMask &primaryThreads() const { return primary_threads_; }

    /** The CPUs of cpusOfCcx(ccx), ascending. */
    const std::vector<CpuId> &cpuListOfCcx(CcxId ccx) const
    {
        return at(ccx_lists_, ccx, "cpuListOfCcx: ccx ");
    }
    /** The CPUs of cpusOfSocket(socket), ascending. */
    const std::vector<CpuId> &cpuListOfSocket(SocketId socket) const
    {
        return at(socket_lists_, socket, "cpuListOfSocket: socket ");
    }

    /** NUMA node a CCX belongs to. */
    NodeId nodeOfCcx(CcxId ccx) const;
    /** Socket a NUMA node belongs to. */
    SocketId socketOfNode(NodeId node) const;
    /** CCX ids belonging to a node. */
    std::vector<CcxId> ccxsOfNode(NodeId node) const;

    /**
     * DRAM access latency in nanoseconds for a core on node `from`
     * touching memory homed on node `to`.
     */
    double memLatencyNs(NodeId from, NodeId to) const
    {
        const unsigned nodes = numNodes();
        if (from >= nodes || to >= nodes)
            MS_PANIC("memLatencyNs: node out of range: ", from, ", ", to);
        return mem_latency_[static_cast<std::size_t>(from) * nodes + to];
    }

    /** One-line summary, e.g. "rome128: 1S x 4N x 4CCX x 4C x SMT2". */
    std::string describe() const;

  private:
    /** Structural ids of one logical CPU. */
    struct CpuInfo
    {
        CoreId core;
        CcxId ccx;
        NodeId node;
        SocketId socket;
    };

    const CpuInfo &cpuInfo(CpuId cpu, const char *what) const
    {
        if (cpu >= cpu_info_.size())
            MS_PANIC(what, ": cpu ", cpu, " out of range");
        return cpu_info_[cpu];
    }

    template <typename T>
    static const T &at(const std::vector<T> &table, unsigned i,
                       const char *what)
    {
        if (i >= table.size())
            MS_PANIC(what, i, " out of range");
        return table[i];
    }

    MachineParams params_;
    CpuMask all_cpus_;
    CpuMask primary_threads_;
    std::vector<CpuInfo> cpu_info_;       // per cpu
    std::vector<CpuMask> core_masks_;     // per core
    std::vector<CpuMask> ccx_masks_;      // per ccx
    std::vector<CpuMask> node_masks_;     // per node
    std::vector<CpuMask> socket_masks_;   // per socket
    std::vector<std::vector<CpuId>> ccx_lists_;    // per ccx, ascending
    std::vector<std::vector<CpuId>> socket_lists_; // per socket, ascending
    std::vector<double> mem_latency_; // numNodes x numNodes
};

} // namespace microscale::topo

#endif // MICROSCALE_TOPO_MACHINE_HH
