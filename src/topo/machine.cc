#include "topo/machine.hh"

#include <sstream>

#include "base/logging.hh"

namespace microscale::topo
{

namespace
{

/** Ascending CPU list of a mask. */
std::vector<CpuId>
listOf(const CpuMask &mask)
{
    std::vector<CpuId> out;
    out.reserve(mask.count());
    for (CpuId c : mask)
        out.push_back(c);
    return out;
}

} // namespace

Machine::Machine(MachineParams params) : params_(std::move(params))
{
    params_.validate();
    all_cpus_ = CpuMask::firstN(numCpus());
    primary_threads_ = CpuMask::firstN(numCores());

    // CPU c and c + numCores() share core c % numCores(); cores are
    // numbered contiguously within a CCX, CCXs within a node, nodes
    // within a socket.
    core_masks_.resize(numCores());
    ccx_masks_.resize(numCcxs());
    node_masks_.resize(numNodes());
    socket_masks_.resize(numSockets());
    cpu_info_.resize(numCpus());
    for (CpuId cpu = 0; cpu < numCpus(); ++cpu) {
        CpuInfo &info = cpu_info_[cpu];
        info.core = cpu % numCores();
        info.ccx = info.core / params_.coresPerCcx;
        info.node = info.ccx / params_.ccxsPerNode;
        info.socket = info.node / params_.nodesPerSocket;
        core_masks_[info.core].set(cpu);
        ccx_masks_[info.ccx].set(cpu);
        node_masks_[info.node].set(cpu);
        socket_masks_[info.socket].set(cpu);
    }
    for (const CpuMask &m : ccx_masks_)
        ccx_lists_.push_back(listOf(m));
    for (const CpuMask &m : socket_masks_)
        socket_lists_.push_back(listOf(m));

    const unsigned nodes = numNodes();
    mem_latency_.resize(static_cast<std::size_t>(nodes) * nodes);
    for (NodeId from = 0; from < nodes; ++from) {
        for (NodeId to = 0; to < nodes; ++to) {
            double lat = params_.mem.localLatencyNs;
            if (from != to) {
                lat *= socketOfNode(from) == socketOfNode(to)
                           ? params_.mem.intraSocketFactor
                           : params_.mem.interSocketFactor;
            }
            mem_latency_[static_cast<std::size_t>(from) * nodes + to] = lat;
        }
    }
}

NodeId
Machine::nodeOfCcx(CcxId ccx) const
{
    if (ccx >= numCcxs())
        MS_PANIC("nodeOfCcx: ccx ", ccx, " out of range");
    return ccx / params_.ccxsPerNode;
}

SocketId
Machine::socketOfNode(NodeId node) const
{
    if (node >= numNodes())
        MS_PANIC("socketOfNode: node ", node, " out of range");
    return node / params_.nodesPerSocket;
}

std::vector<CcxId>
Machine::ccxsOfNode(NodeId node) const
{
    if (node >= numNodes())
        MS_PANIC("ccxsOfNode: node ", node, " out of range");
    std::vector<CcxId> out;
    const CcxId first = node * params_.ccxsPerNode;
    for (CcxId x = first; x < first + params_.ccxsPerNode; ++x)
        out.push_back(x);
    return out;
}

std::string
Machine::describe() const
{
    std::ostringstream os;
    os << params_.name << ": " << params_.sockets << "S x "
       << params_.nodesPerSocket << "N x " << params_.ccxsPerNode
       << "CCX x " << params_.coresPerCcx << "C x SMT"
       << params_.threadsPerCore << " = " << numCpus() << " logical CPUs, "
       << params_.cache.l3BytesPerCcx / (1024 * 1024) << "MB L3/CCX, "
       << params_.freq.boostGhz << "-" << params_.freq.allCoreGhz
       << " GHz";
    return os.str();
}

} // namespace microscale::topo
